from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficdim import groupoid
from soficdim.groupoid import (
    FiniteGroupoid,
    GroupoidError,
    PartialBisection,
    FibredAction,
    b_compose,
    b_inverse,
    b_two_norm_sq,
    b_uniform,
    bernoulli_action,
    bernoulli_crossed_product,
    corner,
    corner_embedding,
    cyclic_groupoid,
    empty_bisection,
    finite_part_measure,
    full_identity,
    fundamental_domain_measure,
    group_groupoid,
    is_free_action,
    is_principal,
    projection_bisection,
    singleton_bisection,
    tau,
    transitive_groupoid,
    trivial_groupoid,
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
        options = sorted(set(g.arrows_with_source(e)) & set(g.arrows_with_range(f)))
        if options:
            arrows.add(options[rng.below(len(options))])
    return PartialBisection(g, frozenset(arrows))


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
        lhs = b_uniform(s, t)
        rhs = (tau(b_compose(b_inverse(s), s)) + tau(b_compose(b_inverse(t), t))
               - tau(b_compose(b_compose(b_inverse(s), s), b_compose(b_inverse(t), t)))
               - tau(b_compose(s, b_inverse(t))))
        assert lhs == rhs
        assert b_two_norm_sq(s, t) >= lhs

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
        action, crossed = bernoulli_crossed_product(g, [Fraction(1, 3), Fraction(2, 3)])
        assert action.n_points == 2
        assert crossed.n_units == 2 and crossed.n_arrows == 2
        assert crossed.unit_weights == (Fraction(1, 3), Fraction(2, 3))

    def test_z2_fair_alphabet(self):
        action, crossed = bernoulli_crossed_product(cyclic_groupoid(2),
                                                    [Fraction(1, 2), Fraction(1, 2)])
        assert action.n_points == 4
        assert all(w == Fraction(1, 4) for w in action.weight)
        assert crossed.n_arrows == 8
        assert validate_pmp(crossed).ok

    def test_r2_crossed_product_is_pmp_equivalence_relation(self):
        g = transitive_groupoid(2)
        action, crossed = bernoulli_crossed_product(g, [Fraction(1, 2), Fraction(1, 2)])
        # action table already validated composition exhaustively on construction
        assert validate_pmp(crossed).ok
        assert is_free_action(action)
        assert is_principal(crossed)

    def test_alphabet_must_be_probability(self):
        with pytest.raises(GroupoidError):
            bernoulli_crossed_product(cyclic_groupoid(2), [Fraction(1, 2), Fraction(1, 3)])

    @pytest.mark.parametrize("g", [cyclic_groupoid(1), cyclic_groupoid(3),
                                   transitive_groupoid(2), transitive_groupoid(3)],
                             ids=["z1", "z3", "r2", "r3"])
    def test_action_alone_equals_the_crossed_product_action(self, g):
        weights = [Fraction(1, 3), Fraction(2, 3)]
        alone = bernoulli_action(g, weights)
        action, _ = bernoulli_crossed_product(g, weights)
        assert alone.groupoid is action.groupoid
        for slot in ("unit_of", "cond_weight", "weight", "fibers", "act", "labels"):
            assert getattr(alone, slot) == getattr(action, slot)

    def test_cap_refuses_blowup(self, monkeypatch):
        monkeypatch.setattr(groupoid, "FIBER_CAP", 4)
        with pytest.raises(GroupoidError):
            bernoulli_crossed_product(transitive_groupoid(3), [Fraction(1, 2)] * 2)


class TestFinitePart:
    def test_one_unit_group(self):
        assert finite_part_measure(cyclic_groupoid(5)) == Fraction(1, 5)

    def test_transitive(self):
        for d in (1, 2, 4):
            assert finite_part_measure(transitive_groupoid(d)) == Fraction(1, d)

    def test_trivial_base(self):
        g = trivial_groupoid([Fraction(1, 4), Fraction(3, 4)])
        assert finite_part_measure(g) == 1


class TestPrincipal:
    def test_transitive_is_principal(self):
        assert is_principal(transitive_groupoid(3))

    def test_group_is_not(self):
        assert not is_principal(cyclic_groupoid(2))

    def test_crossed_product_of_free_action_is_principal(self):
        # free two-point swap action of the order-2 group
        g = cyclic_groupoid(2)
        act = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        action = FibredAction(g, [0, 0], [Fraction(1, 2)] * 2, act)
        assert is_free_action(action)
        pairs = [(a, x) for a in range(2) for x in range(2)]
        pos = {p: i for i, p in enumerate(pairs)}
        src = [x for (_, x) in pairs]
        rng_ = [act[p] for p in pairs]
        inv = [pos[(a, act[(a, x)])] for (a, x) in pairs]
        unit_arrow = [pos[(0, x)] for x in range(2)]
        comp = {}
        for i, (a, x) in enumerate(pairs):
            for j, (b, y) in enumerate(pairs):
                if act[(b, y)] == x:
                    comp[(i, j)] = pos[((a + b) % 2, y)]
        crossed = FiniteGroupoid(action.weight, src, rng_, inv, unit_arrow, comp)
        assert is_principal(crossed)


class TestFundamentalDomain:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bernoulli_orbit_domain_matches_finite_part(self, d):
        g = transitive_groupoid(d)
        action, _ = bernoulli_crossed_product(g, [Fraction(1, 2), Fraction(1, 2)])
        assert is_free_action(action)
        mu_min = fundamental_domain_measure(action, "min")
        mu_max = fundamental_domain_measure(action, "max")
        assert mu_min == mu_max == finite_part_measure(g)

    def test_free_group_action_domain(self):
        g = cyclic_groupoid(2)
        act = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        action = FibredAction(g, [0, 0], [Fraction(1, 2)] * 2, act)
        assert fundamental_domain_measure(action) == finite_part_measure(g) == Fraction(1, 2)


class TestFileFormat:
    @pytest.mark.parametrize("make", [
        lambda: transitive_groupoid(3),
        lambda: cyclic_groupoid(4),
        lambda: trivial_groupoid([Fraction(2, 5), Fraction(3, 5)]),
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


class TestCornerEmbedding:
    def test_round_trip_bisection(self):
        g = transitive_groupoid(4)
        emb = corner_embedding(g, [0, 1])
        s = swap_bisection(emb.groupoid)
        amb = emb.embed_bisection(s)
        assert emb.pull_back_bisection(amb) == s
        assert tau(b_compose(amb, amb)) == Fraction(1, 2)
