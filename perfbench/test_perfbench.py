"""Checks of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import fractions
import io
import json
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stream_is_deterministic_per_seed_and_varies_across_seeds(name):
    w = workloads.WORKLOADS[name]
    assert workloads.stream(w, 7, 4) == workloads.stream(w, 7, 4)
    streams = {tuple(map(tuple, workloads.stream(w, seed, 4))) for seed in range(1, 6)}
    assert len(streams) == 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_runs_every_slot_and_every_job_has_a_golden_output(name):
    w = workloads.WORKLOADS[name]
    menu = set(workloads.menu(w))
    assert {" ".join(j) for j in menu} == set(GOLDEN[name])
    for rnd in workloads.stream(w, 3, 5):
        assert len(rnd) == len(w.slots)
        for job, slot in zip(rnd, w.slots):
            assert job in menu
            assert workloads.with_workers(slot[0], w.workers)[:2] == job[:2]


def test_count_outputs_do_not_depend_on_the_worker_count():
    one, two = GOLDEN["enumerate"], GOLDEN["enumerate-2w"]
    for key, want in one.items():
        assert two[key.replace("--workers 1", "--workers 2")] == want


def _degrees(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def test_count_variants_of_a_slot_run_the_same_search():
    # traces and distances are multiples of 1/d: the search depends on delta
    # only through ceil(delta * d)
    for slot in workloads.WORKLOADS["enumerate"].slots:
        for d in _degrees(slot[0][slot[0].index("--d") + 1]):
            classes = {ceil(Fraction(v[v.index("--delta") + 1]) * d) for v in slot}
            assert len(classes) == 1, slot


def test_every_count_job_passes_an_explicit_cap():
    for w in workloads.WORKLOADS.values():
        for job in workloads.menu(w):
            if job[0] == "count":
                assert job[job.index("--cap") + 1] == workloads.CAP


def test_rounds_leave_ten_jobs_beyond_a_tail_at_or_above_the_median():
    for w in workloads.WORKLOADS.values():
        assert workloads.rounds_for(w, 1) * len(w.slots) >= workloads.MIN_JOBS
        assert workloads.rounds_for(w, 10 * w.nominal_round_s) == 10


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    values = [float(v) for v in range(30, 0, -1)]
    pct, value = run.tail(values)
    assert value == 20.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([5.0] * 3 + [1.0] * 8) == (pytest.approx(100 / 11), 1.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_on_a_synthetic_nested_trace():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.work(1.0)

    def inner():
        clock.work(2.0)
        leaf_w()
        clock.work(0.5)

    def outer():
        clock.work(3.0)
        inner_w()
        leaf_w()

    leaf_w = tracer.wrap("t.leaf", leaf, record=False)
    inner_w = tracer.wrap("t.inner", inner, record=True)
    outer_w = tracer.wrap("t.outer", outer, record=True)
    tracer.job = 4
    outer_w()
    st = tracer.stats
    assert (st["t.outer"].calls, st["t.outer"].total_s, st["t.outer"].self_s) == (1, 7.5, 3.0)
    assert (st["t.inner"].calls, st["t.inner"].total_s, st["t.inner"].self_s) == (1, 3.5, 2.5)
    assert (st["t.leaf"].calls, st["t.leaf"].total_s, st["t.leaf"].self_s) == (2, 2.0, 2.0)
    # the aggregate-only leaf keeps no span; inner's parent is outer
    by_name = {s[2]: s for s in tracer.spans}
    assert set(by_name) == {"t.outer", "t.inner"}
    assert by_name["t.inner"][1] == by_name["t.outer"][0]
    assert by_name["t.outer"][1] is None
    assert by_name["t.inner"][3:] == (3.0, 6.5, 4)


def test_generators_are_timed_per_next_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.work(1.0)
            yield i

    wrapped = tracer.wrap("t.gen", gen, record=True)
    out = []
    for item in wrapped():
        clock.work(10.0)  # the consumer's time is not the generator's
        out.append(item)
    assert out == [0, 1, 2]
    assert tracer.stats["t.gen"].calls == 4  # three items and the final StopIteration
    assert tracer.stats["t.gen"].self_s == 3.0


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import soficdim
    from soficdim import cli, groupoid, partitions, pperm, sofic

    originals = (sofic.verify_membership, groupoid.b_compose, pperm.compose,
                 vars(pperm.PartialPermutation)["__init__"],
                 vars(fractions.Fraction)["__new__"])
    argv = ["count", "--family", "zmod(2)", "--d", "4", "--delta", "1/10", "--cap", "1000"]
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        cli.main(argv)
    tracer = spans.Tracer()
    installed = spans.Installation(tracer)
    try:
        assert partitions.verify_membership is sofic.verify_membership
        assert sofic.verify_membership.__wrapped__ is originals[0]
        assert sofic.b_compose is groupoid.b_compose
        assert groupoid.b_compose.__wrapped__ is originals[1]
        assert soficdim.count_SA is sofic.count_SA
        traced = io.StringIO()
        with contextlib.redirect_stdout(traced):
            cli.main(argv)
    finally:
        installed.uninstall()
    assert traced.getvalue() == plain.getvalue()
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["sofic.count_SA"].calls == 1
    assert tracer.stats["pperm.PartialPermutation.init"].calls > 0
    assert tracer.stats[spans.FRACTION].calls > 0
    assert (sofic.verify_membership, groupoid.b_compose, pperm.compose,
            vars(pperm.PartialPermutation)["__init__"],
            vars(fractions.Fraction)["__new__"]) == originals
    assert partitions.verify_membership is originals[0]


def test_closed_form_oracle():
    from soficdim import closed_form_count

    argv = ("count", "--family", "zmod(2)", "--d", "6..8", "--delta", "1/10")
    out = "# header\nd,delta,n,count,restricted_count,statistic\n" \
          "6,1/10,1,15,15,0.1\n7,1/10,1,0,0,-inf\n8,1/10,1,105,105,0.2\n"
    assert workloads.oracle_checks(argv, out, closed_form_count) == (3, 0)
    assert workloads.oracle_checks(argv, out.replace(",105,", ",104,"),
                                   closed_form_count) == (3, 1)
    # delta * d >= 1 admits approximate members: no exact closed form
    assert workloads.oracle_checks(argv, "8,1/4,1,9,9,0.1\n", closed_form_count) == (0, 0)
    assert workloads.oracle_checks(("count", "--family", "zmod(4)"), out,
                                   closed_form_count) == (0, 0)
    assert closed_form_count(3, 6, Fraction(1, 10)) == 40


def test_speed_factor_uses_the_samples_taken_during_a_span():
    sampler = speed.Sampler()
    sampler.samples = [speed.REFERENCE_S] * 4 + [2 * speed.REFERENCE_S] * 5
    assert sampler.factor((4, 0.0), (9, 0.0)) == 0.5
    assert sampler.factor((0, 0.0), (4, 0.0)) == 1.0
    # a span shorter than the period borrows its neighbours' samples
    assert sampler.factor((5, 0.0), (5, 0.0)) == 0.5
    assert sampler.scaled(3.0, (4, 0.5), (9, 1.0)) == 1.25
