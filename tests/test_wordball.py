from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficdim import wordball
from soficdim.groupoid import PartialBisection, group_groupoid, tau as groupoid_tau
from soficdim.wordball import (
    BallSizeError,
    CyclicGroup,
    FreeProductOfFinite,
    IntegerLine,
    TableGroup,
    ball,
    load_cayley_table,
    parse_descriptor,
    word_str,
)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def z23():
    return FreeProductOfFinite([CyclicGroup(2, "a"), CyclicGroup(3, "b")])


@st.composite
def words(draw, system, max_len=6):
    gens = system.generators
    n = draw(st.integers(0, max_len))
    return tuple((draw(st.sampled_from(gens)), draw(st.sampled_from([-2, -1, 1, 2])))
                 for _ in range(n))


class TestReduce:
    def test_zmod2(self):
        sys = CyclicGroup(2)
        assert sys.reduce_product((("a", 1),), (("a", 1),)) == ()

    def test_integer_line(self):
        sys = IntegerLine()
        assert sys.reduce_product((("a", 2),), (("a", -1),)) == (("a", 1),)

    def test_free_product_syllables(self):
        sys = z23()
        ab = (("a", 1), ("b", 1))
        b2 = (("b", 2),)
        assert sys.reduce_product(ab, b2) == (("a", 1),)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            CyclicGroup(2).reduce_product((("x", 1),), ())

    @settings(max_examples=200)
    @given(st.data())
    def test_reducer_idempotent_and_inverse_law(self, data):
        sys = data.draw(st.sampled_from([IntegerLine(), CyclicGroup(4), z23()]))
        w = data.draw(words(sys))
        r = sys.reduce_word(w)
        assert sys.reduce_word(r) == r
        assert sys.reduce_word(tuple(w) + invert_word(w)) == ()

    @settings(max_examples=200)
    @given(st.data())
    def test_associativity_on_canonical_forms(self, data):
        sys = data.draw(st.sampled_from([IntegerLine(), CyclicGroup(5), z23()]))
        u = sys.reduce_word(data.draw(words(sys)))
        v = sys.reduce_word(data.draw(words(sys)))
        w = sys.reduce_word(data.draw(words(sys)))
        assert (sys.reduce_product(sys.reduce_product(u, v), w)
                == sys.reduce_product(u, sys.reduce_product(v, w)))


class TestTau:
    def test_identity(self):
        assert IntegerLine().tau_word(()) == 1

    def test_nontrivial_in_zmod2(self):
        assert CyclicGroup(2).tau_word((("a", 1),)) == 0

    def test_free_product_reduced_word(self):
        assert z23().tau_word((("a", 1), ("b", 1))) == 0

    def test_table_group_routes_through_groupoid_trace(self):
        tg = TableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert tg.tau_word(()) == Fraction(1)
        assert tg.tau_word((("g1", 1),)) == 0
        assert tg.tau_word((("g1", 3),)) == 1


def s3_table_file(path):
    perms = list(permutations(range(3)))
    rows = [" ".join(str(perms.index(tuple(p[q[x]] for x in range(3)))) for q in perms)
            for p in perms]
    path.write_text("order 6\ntable\n" + "\n".join(rows) + "\n")
    return path


def test_table_trace_matches_the_groupoid_trace(tmp_path):
    # the groupoid route: the trace of the singleton bisection at the element
    z4 = TableGroup([[(i + j) % 4 for j in range(4)] for i in range(4)])
    s3 = load_cayley_table(s3_table_file(tmp_path / "s3.cay"))
    assert s3.table[1][3] != s3.table[3][1]
    for tg in (z4, s3):
        g = group_groupoid(tg.table)
        for idx, name in enumerate(tg.names):
            assert tg.tau_word(((name, 1),)) == groupoid_tau(PartialBisection(g, frozenset([idx])))


class TestBall:
    def test_integer_line_sizes(self):
        for n in range(11):
            assert len(ball(IntegerLine(), None, n)) == 2 * n + 1

    def test_zmod2_radius3(self):
        b = ball(CyclicGroup(2), None, 3)
        assert sorted(map(word_str, b.elements)) == ["a", "e"]

    def test_free_product_radius2(self):
        b = ball(z23(), None, 2)
        expected = {(), (("a", 1),), (("b", 1),), (("b", 2),),
                    (("a", 1), ("b", 1)), (("a", 1), ("b", 2)),
                    (("b", 1), ("a", 1)), (("b", 2), ("a", 1))}
        assert set(b.elements) == expected

    def test_ball_closure_under_short_products(self):
        b = ball(z23(), None, 3)
        wlen = {w: len(b.witness[i]) for i, w in enumerate(b.elements)}
        for u in b.elements:
            for v in b.elements:
                if wlen[u] + wlen[v] <= 3:
                    assert b.system.reduce_product(u, v) in b.index

    def test_closed_under_inverse_and_contains_identity(self):
        for sys in (IntegerLine(), CyclicGroup(6), z23()):
            b = ball(sys, None, 2)
            assert () in b.index
            for i in range(len(b)):
                assert sys.reduce_word(invert_word(b.elements[i])) in b.index

    def test_alternating_normal_forms(self):
        b = ball(z23(), None, 4)
        factor = {"a": 0, "b": 1}
        for w in b.elements:
            for (g1, _), (g2, _) in zip(w, w[1:]):
                assert factor[g1] != factor[g2]

    def test_mult_table_matches_reducer(self):
        b = ball(CyclicGroup(4), None, 2)
        for (i, j), k in b.mult.items():
            assert b.system.reduce_product(b.elements[i], b.elements[j]) == b.elements[k]

    def test_breadth_first_order_and_parents(self):
        def add(u, s):
            return (u + s) % 7
        elements, parents = wordball.breadth_first(0, (1, -1), add, 2, 10, None)
        assert elements == [0, 1, 6, 2, 5]
        assert parents == [None, (0, 1), (0, -1), (1, 1), (2, -1)]
        with pytest.raises(OverflowError, match="^5$"):
            wordball.breadth_first(0, (1, -1), add, 3, 4, lambda n: OverflowError(n))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(wordball, "BALL_CAP", 10)
        with pytest.raises(BallSizeError):
            ball(IntegerLine(), None, 50)


class TestDescriptors:
    def test_parse_round_trip(self):
        for text in ("z", "zmod(5)", "freeprod(zmod(2), zmod(3))"):
            sys = parse_descriptor(text)
            assert parse_descriptor(sys.descriptor()).descriptor() == sys.descriptor()

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            parse_descriptor("frob(2)")

    def test_table_file(self, tmp_path):
        p = tmp_path / "c3.cay"
        p.write_text("# cayley\norder 3\ntable\n0 1 2\n1 2 0\n2 0 1\nnames e r s\ngens r\n")
        sys = parse_descriptor(f"table({p})")
        assert sys.generators == ("r",)
        assert sys.reduce_word((("r", 3),)) == ()
