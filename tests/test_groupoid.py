from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficdim import groupoid
from soficdim.groupoid import (
    FiniteGroupoid,
    GroupoidError,
    PartialBisection,
    b_compose,
    b_inverse,
    bernoulli_action,
    corner,
    corner_embedding,
    cyclic_groupoid,
    finite_part_measure,
    full_identity,
    group_groupoid,
    projection_bisection,
    tau,
    transitive_groupoid,
    validate_pmp,
)
from soficdim.rng import SplitMix64


def swap_bisection(r2):
    # the two off-diagonal arrows of the transitive relation on 2 points
    arrows = [a for a in range(r2.n_arrows) if r2.source[a] != r2.range_[a]]
    return PartialBisection(r2, frozenset(arrows))


def random_bisection(g, rng):
    """Random partial matching of units, one arrow per matched pair."""
    n = g.n_units
    perm = list(range(n))
    rng.shuffle(perm)
    k = rng.below(n + 1)
    arrows = set()
    used_targets = perm[:k]
    for e, f in zip(range(k), used_targets):
        options = sorted(a for a in g.arrows_with_range(f) if g.source[a] == e)
        if options:
            arrows.add(options[rng.below(len(options))])
    return PartialBisection(g, frozenset(arrows))


def uniform_disagreement(s, t):
    """Weight of the units where s and t act differently.

    A unit where one map is defined and the other is not counts as a
    disagreement; a unit where neither is defined does not.
    """
    g = s.host
    return sum((g.unit_weights[e] for e in range(g.n_units)
                if s.arrow_at_source(e) != t.arrow_at_source(e)), Fraction(0))


class TestPmp:
    def test_transitive_uniform_is_pmp(self):
        assert validate_pmp(transitive_groupoid(2)).ok

    def test_unbalanced_arrow_is_flagged(self):
        g = transitive_groupoid(2, [Fraction(1, 3), Fraction(2, 3)])
        rep = validate_pmp(g)
        assert not rep.ok
        # exactly the two off-diagonal arrows violate the equality
        assert len(rep.violations) == 2

    def test_groups_are_pmp(self):
        assert validate_pmp(cyclic_groupoid(5)).ok


class TestTrace:
    def test_full_identity(self):
        g = transitive_groupoid(3)
        assert tau(full_identity(g)) == 1

    def test_swap_has_trace_zero(self):
        assert tau(swap_bisection(transitive_groupoid(2))) == 0

    def test_projection_trace(self):
        g = transitive_groupoid(4)
        assert tau(projection_bisection(g, [0])) == Fraction(1, 4)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**31))
    def test_displayed_identity_on_pseudogroup(self, d, seed):
        g = transitive_groupoid(d)
        rng = SplitMix64(seed)
        s, t = random_bisection(g, rng), random_bisection(g, rng)
        lhs = uniform_disagreement(s, t)
        rhs = (tau(b_compose(b_inverse(s), s)) + tau(b_compose(b_inverse(t), t))
               - tau(b_compose(b_compose(b_inverse(s), s), b_compose(b_inverse(t), t)))
               - tau(b_compose(s, b_inverse(t))))
        assert lhs == rhs
        assert (tau(b_compose(b_inverse(s), s)) + tau(b_compose(b_inverse(t), t))
                - 2 * tau(b_compose(s, b_inverse(t)))) >= lhs

    def test_inverse_involution(self):
        g = transitive_groupoid(3)
        rng = SplitMix64(7)
        for _ in range(20):
            s = random_bisection(g, rng)
            assert b_inverse(b_inverse(s)) == s
            # s s^-1 is the projection onto the range
            assert b_compose(s, b_inverse(s)) == projection_bisection(g, s.ran_units())


class TestCorner:
    def test_corner_of_r4_is_r2(self):
        g4 = transitive_groupoid(4)
        c = corner(g4, [0, 1])
        r2 = transitive_groupoid(2)
        assert c.n_units == 2 and c.n_arrows == 4
        assert c.unit_weights == r2.unit_weights
        assert validate_pmp(c).ok

    def test_corner_full_is_identity(self):
        g = transitive_groupoid(3)
        c = corner(g, range(3))
        assert c.n_arrows == g.n_arrows and c.unit_weights == g.unit_weights

    def test_corner_of_group_is_group(self):
        g = cyclic_groupoid(4)
        c = corner(g, [0])
        assert c.n_arrows == 4 and validate_pmp(c).ok

    def test_empty_corner_rejected(self):
        with pytest.raises(GroupoidError):
            corner(transitive_groupoid(2), [])


class TestBernoulli:
    def test_trivial_group_base(self):
        g = cyclic_groupoid(1)
        action = bernoulli_action(g, [Fraction(1, 3), Fraction(2, 3)])
        assert action.n_points == 2
        assert action.weight == (Fraction(1, 3), Fraction(2, 3))

    def test_z2_fair_alphabet(self):
        action = bernoulli_action(cyclic_groupoid(2), [Fraction(1, 2), Fraction(1, 2)])
        assert action.n_points == 4
        assert all(w == Fraction(1, 4) for w in action.weight)

    def test_alphabet_must_be_probability(self):
        with pytest.raises(GroupoidError):
            bernoulli_action(cyclic_groupoid(2), [Fraction(1, 2), Fraction(1, 3)])

    def test_cap_refuses_blowup(self, monkeypatch):
        monkeypatch.setattr(groupoid, "FIBER_CAP", 4)
        with pytest.raises(GroupoidError):
            bernoulli_action(transitive_groupoid(3), [Fraction(1, 2)] * 2)


class TestFinitePart:
    def test_one_unit_group(self):
        assert finite_part_measure(cyclic_groupoid(5)) == Fraction(1, 5)

    def test_transitive(self):
        for d in (1, 2, 4):
            assert finite_part_measure(transitive_groupoid(d)) == Fraction(1, d)

    def test_trivial_base(self):
        # only unit arrows over a two-point base
        g = FiniteGroupoid([Fraction(1, 4), Fraction(3, 4)], [0, 1], [0, 1], [0, 1],
                           [0, 1], {(0, 0): 0, (1, 1): 1})
        assert finite_part_measure(g) == 1


class TestFileFormat:
    @pytest.mark.parametrize("make", [
        lambda: transitive_groupoid(3),
        lambda: cyclic_groupoid(4),
        lambda: FiniteGroupoid([Fraction(2, 5), Fraction(3, 5)], [0, 1], [0, 1], [0, 1],
                               [0, 1], {(0, 0): 0, (1, 1): 1}),
    ])
    def test_bit_exact_round_trip(self, make):
        g = make()
        text = g.to_text()
        h = FiniteGroupoid.from_text(text)
        assert h.to_text() == text
        assert h.unit_weights == g.unit_weights
        assert h.comp == g.comp

    def test_malformed_file_rejected(self):
        with pytest.raises(GroupoidError):
            FiniteGroupoid.from_text("units 1\nunit 0 1\narrows 1\n")

    @pytest.mark.parametrize("old,new,message", [
        ("arrow 1 1 0 2", "arrow 1 1 5 2", "arrow 1 has bad endpoints"),
        ("arrow 1 1 0 2", "arrow 1 1 0 1", "inverse of 1 has wrong endpoints"),
        ("compose 1 3 1\n", "", "composition table domain mismatch"),
        ("compose 1 3 1", "compose 1 3 0", r"composite of \(1,3\) has wrong endpoints"),
    ])
    def test_each_axiom_refusal_names_its_axiom(self, old, new, message):
        text = transitive_groupoid(2).to_text()
        assert old in text
        with pytest.raises(GroupoidError, match=message):
            FiniteGroupoid.from_text(text.replace(old, new))

    def test_non_associative_loop_rejected(self):
        # a loop of order 5: identity 0 and two-sided inverses, no associativity
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(GroupoidError, match="composition is not associative"):
            group_groupoid(table)


class TestCornerEmbedding:
    def test_round_trip_bisection(self):
        g = transitive_groupoid(4)
        emb = corner_embedding(g, [0, 1])
        s = swap_bisection(emb.groupoid)
        amb = emb.embed_bisection(s)
        assert emb.pull_back_bisection(amb) == s
        assert tau(b_compose(amb, amb)) == Fraction(1, 2)
