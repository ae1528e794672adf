import hashlib
import json

import pytest

from soficdim.cli import main, parse_drange, parse_fraction
from soficdim.groupoid import transitive_groupoid


@pytest.fixture()
def r2_file(tmp_path):
    path = tmp_path / "r2.gpd"
    transitive_groupoid(2).save(path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCalc:
    def test_prints_value(self, capsys):
        code, out, _ = run(capsys, "calc", "amalgam(cyclic(2), cyclic(3), trivial)")
        assert code == 0 and out.strip() == "7/6"

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        code, _, _ = run(capsys, "calc", "cyclic(4)", "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert (doc["value_num"], doc["value_den"]) == (3, 4)
        assert doc["assumptions"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "calc", "corner(z, 0)")
        assert code == 2
        assert "error" in json.loads(err)


class TestCount:
    def test_trivial_family_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "zmod(1)",
                           "--d", "2", "--delta", "3/5", "--mode", "all")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0] == "d,delta,n,count,restricted_count,statistic"
        d, delta, n, count, rcount, stat = rows[1].split(",")
        assert (d, delta, n, count, rcount) == ("2", "3/5", "1", "3", "3")

    def test_non_increasing_statistic_column(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "zmod(1)",
                           "--d", "2..5", "--delta", "0.05", "--mode", "all")
        assert code == 0
        stats = [float(ln.split(",")[-1]) for ln in out.splitlines()
                 if ln and not ln.startswith(("#", "d,"))]
        assert all(a >= b for a, b in zip(stats, stats[1:]))

    def test_monte_carlo_mode(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "zmod(1)", "--d", "2",
                           "--delta", "2", "--mode", "all", "--mc", "50")
        assert code == 0
        row = [ln for ln in out.splitlines() if not ln.startswith(("#", "d,"))][0]
        assert float(row.split(",")[3]) == 7.0

    def test_infeasible_is_an_error(self, capsys):
        code, _, err = run(capsys, "count", "--family", "zmod(1)", "--d", "9",
                           "--delta", "1/10", "--mode", "all", "--cap", "10")
        assert code == 2 and "error" in json.loads(err)


class TestCurve:
    def test_involution_curve(self, capsys):
        code, out, _ = run(capsys, "curve", "--m", "2", "--d", "50,100",
                           "--delta", "0")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith(("#", "m,"))]
        stats = [float(r.split(",")[-1]) for r in rows]
        assert stats[0] < stats[1]


class TestVerify:
    def test_all_suites_pass_on_r2(self, capsys, r2_file):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--source",
                           r2_file, "--d", "4", "--delta", "0.1",
                           "--partitions", "2", "--instances", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"]
        assert set(doc["suites"]) == {"c1", "c2", "c3", "lin146", "ha", "scaling"}

    def test_single_suite_selection(self, capsys, r2_file):
        code, out, _ = run(capsys, "verify", "--suite", "c1", "--source",
                           r2_file, "--d", "4", "--delta", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc["suites"]) == ["c1"]

    def test_unknown_suite_rejected(self, capsys, r2_file):
        code, _, err = run(capsys, "verify", "--suite", "c9", "--source",
                           r2_file, "--d", "4", "--delta", "0.1")
        assert code == 2


class TestConstruct:
    def test_expand_certificate(self, capsys):
        code, out, _ = run(capsys, "construct", "--what", "expand",
                           "--d", "8", "--delta", "1/10")
        assert code == 0
        doc = json.loads(out)
        assert doc["expand"]["certificate"]["is_member"]
        assert doc["expand"]["d_prime"] == 16

    def test_phi_certificate(self, capsys):
        code, out, _ = run(capsys, "construct", "--what", "phi",
                           "--d", "4", "--delta", "1/10")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"]["certificate"]["is_member"]
        assert doc["phi"]["v_fraction"] == 1.0


class TestDeterminism:
    def test_count_reruns_byte_identical(self, capsys):
        argv = ("count", "--family", "zmod(2)", "--d", "2..4", "--delta",
                "1/10", "--mode", "all", "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_count_independent_of_workers(self, capsys):
        base = ("count", "--family", "zmod(2)", "--d", "4", "--delta", "1/10",
                "--mode", "all", "--seed", "3")
        _, out1, _ = run(capsys, *base, "--workers", "1")
        _, out2, _ = run(capsys, *base, "--workers", "2")
        # the workers flag is echoed nowhere; payload rows must agree
        assert out1 == out2

    def test_verify_reruns_byte_identical(self, capsys, r2_file):
        argv = ("verify", "--suite", "c1,c2", "--source", r2_file, "--d", "4",
                "--delta", "0.1", "--seed", "11", "--partitions", "2")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


# stdout sha256 of the README's exhaustive counts and of two larger count
# jobs; the CSV bytes of a configuration never change
COUNT_SHA256 = [
    ("readme-trivial",
     ("--family", "zmod(1)", "--d", "2..6", "--delta", "0.05", "--mode", "all"),
     "d15f13cb439fc0565d57e599c9ca16d96b0249420935bb7be003cc5a8cce6d72"),
    ("readme-workers",
     ("--family", "zmod(2)", "--d", "4", "--delta", "1/10", "--mode", "all",
      "--workers", "4"),
     "5e4985c7dfdb3371b1cdf1325a0e6e5a67a36fa4030a71f003cb55d98ee5b94f"),
    ("zmod2-d6-8",
     ("--family", "zmod(2)", "--d", "6..8", "--delta", "1/10", "--cap", "10000000000"),
     "00f74d823509ec31557a02f567d4ab2bab1e82ab9867825f111e0f721ec27ac6"),
    ("r2-d4-5",
     ("--source", "r2.gpd", "--mode", "all", "--d", "4..5", "--delta", "1/10"),
     "3e559d7a8749e96bdd056bc2b7feac22658cd57b8b6809126196b09086b89ef4"),
]

# stdout sha256 of the certificate jobs that build the projection universe
# (build_phi), the 146-delta pairs (verify --suite lin146), and every suite
# at once (the c1/c2/c3 sweeps and scaling)
CERTIFY_SHA256 = [
    ("verify-all-r2",
     ("verify", "--suite", "all", "--source", "r2.gpd", "--d", "4",
      "--delta", "1/20", "--partitions", "3", "--seed", "1"),
     "e7f3078e892043349091a2c017bb92fd03307d66c654aa9f5fab360c1e5665ec"),
    ("construct-phi",
     ("construct", "--what", "phi", "--d", "4", "--delta", "1/10"),
     "4162cc67e5c49fbe17379852a989a01851cc907fd7b6812c92dc22741d8b462a"),
    ("verify-ha-lin146",
     ("verify", "--suite", "ha,lin146", "--source", "r2.gpd", "--d", "4",
      "--delta", "1/10", "--partitions", "2", "--seed", "0"),
     "e852d27003587427b60c4420245181f67006fdc842a36b69f8643d329de359ca"),
]


class TestRecordedOutputs:
    @pytest.mark.parametrize("argv,want", [case[1:] for case in COUNT_SHA256],
                             ids=[case[0] for case in COUNT_SHA256])
    def test_count_stdout_is_byte_identical(self, capsys, tmp_path, monkeypatch,
                                            argv, want):
        # the source path is echoed into the header: keep it relative
        monkeypatch.chdir(tmp_path)
        transitive_groupoid(2).save("r2.gpd")
        code, out, _ = run(capsys, "count", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want

    @pytest.mark.parametrize("argv,want", [case[1:] for case in CERTIFY_SHA256],
                             ids=[case[0] for case in CERTIFY_SHA256])
    def test_certify_stdout_is_byte_identical(self, capsys, tmp_path, monkeypatch,
                                              argv, want):
        monkeypatch.chdir(tmp_path)
        transitive_groupoid(2).save("r2.gpd")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want


class TestHelpers:
    def test_parse_drange(self):
        assert parse_drange("2..6") == [2, 3, 4, 5, 6]
        assert parse_drange("2..10..4") == [2, 6, 10]
        assert parse_drange("50,100") == [50, 100]

    def test_parse_fraction(self):
        from fractions import Fraction
        assert parse_fraction("0.05") == Fraction(1, 20)
        assert parse_fraction("1/20") == Fraction(1, 20)
