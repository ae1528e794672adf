import math
from fractions import Fraction

import pytest

from soficdim.groupoid import (
    PartialBisection,
    b_compose,
    b_inverse,
    cyclic_groupoid,
    full_identity,
    projection_bisection,
    tau,
    transitive_groupoid,
)
from soficdim import partitions
from soficdim.partitions import (
    BoundReport,
    CylinderModel,
    HypothesisError,
    LemmaContext,
    RandomPartition,
    bell_number,
    c2_partition_frequency,
    augment_generators,
    exact_partition,
    lemma_constants,
    profile_h_measure,
    profile_measures,
    random_partition,
    regular_model_candidate,
    set_partitions,
    span_basis,
    verify_lemma_c1,
    verify_lemma_c2,
    verify_lemma_c3,
    verify_lemma_c3_sweep,
)
from soficdim.partitions import _indicator as indicator
from soficdim.partitions import _solve_against
from soficdim.rng import SplitMix64
from soficdim.sofic import SoficCandidate, iter_SA_members


def r2_swap():
    g = transitive_groupoid(2)
    swap = PartialBisection(g, frozenset(a for a in range(4)
                                         if g.source[a] != g.range_[a]))
    return g, swap


FAIR = (Fraction(1, 2), Fraction(1, 2))


class TestSetPartitions:
    @pytest.mark.parametrize("k", range(7))
    def test_counts_are_bell_numbers(self, k):
        parts = list(set_partitions(k))
        assert len(parts) == len(set(parts)) == bell_number(k)

    def test_bell_values(self):
        assert [bell_number(k) for k in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestProfiles:
    def test_single_swap_full_measure(self):
        g, swap = r2_swap()
        assert profile_h_measure([swap], (0,)) == 1

    def test_separating_partition_full(self):
        g, swap = r2_swap()
        ident = full_identity(g)
        assert profile_h_measure([ident, swap], (0, 1)) == 1

    def test_joining_partition_empty(self):
        g, swap = r2_swap()
        ident = full_identity(g)
        assert profile_h_measure([ident, swap], (0, 0)) == 0

    def test_profile_measures_requires_nonempty(self):
        with pytest.raises(ValueError):
            profile_measures([], (), None)

    def test_profiles_partition_common_range(self):
        # the profile sets over all partitions tile the common range set
        g = transitive_groupoid(3)
        rng = SplitMix64(3)
        for _ in range(25):
            F0 = []
            for _ in range(rng.below(3) + 1):
                perm = list(range(3))
                rng.shuffle(perm)
                k = rng.below(4)
                F0.append(PartialBisection(g, frozenset(e * 3 + perm[e]
                                                        for e in range(k))))
            common = b_compose(F0[0], b_inverse(F0[0]))
            for s in F0[1:]:
                common = b_compose(common, b_compose(s, b_inverse(s)))
            total = sum((profile_h_measure(F0, blocks)
                         for blocks in set_partitions(len(F0))), Fraction(0))
            assert total == tau(common)


class TestLemmaConstants:
    def test_c1_values(self):
        assert lemma_constants(3, 1).c1 == 176 * 9 * 9 == 14256
        assert lemma_constants(2, 1).c1 == 6336

    def test_c2_value(self):
        consts = lemma_constants(2, 1)
        assert bell_number(2) == 2
        assert consts.c2 == 25344

    def test_n_ell_and_bell(self):
        assert 3 * 2 ** 3 == 24
        assert bell_number(3) == 5

    def test_monotone_in_n_and_size(self):
        for f in (2, 3):
            for n in (1, 2):
                a, b = lemma_constants(f, n), lemma_constants(f, n + 1)
                assert b.c1 >= a.c1 and b.c2 >= a.c2
            a, b = lemma_constants(f, 1), lemma_constants(f + 1, 1)
            assert b.c1 >= a.c1 and b.c2 >= a.c2


class TestAugment:
    def test_identity_only(self):
        g, _ = r2_swap()
        ident = full_identity(g)
        F1 = augment_generators([ident], 1, g)
        # the only profile projection is the full unit projection = identity
        assert F1 == [ident]

    def test_augments_are_projections(self):
        g, swap = r2_swap()
        for p in augment_generators([swap], 1, g):
            if p == swap:
                continue
            assert p.is_projection()
            assert b_compose(p, p) == p
            assert b_inverse(p) == p

    def test_size_bounded_by_bell_sum(self):
        g, swap = r2_swap()
        F1 = augment_generators([swap], 1, g)
        ball_size = 2  # identity and swap
        bound = 1 + sum(math.comb(ball_size, k) * bell_number(k)
                        for k in range(ball_size + 1))
        assert len(F1) <= bound

    def test_cap(self):
        g = transitive_groupoid(3)
        gens = [PartialBisection(g, frozenset([1])), PartialBisection(g, frozenset([2])),
                PartialBisection(g, frozenset([5]))]
        with pytest.raises(HypothesisError):
            augment_generators(gens, 2, g, pm_cap=3)


class TestRandomPartition:
    def test_single_block(self):
        p = random_partition(5, [Fraction(1)], seed=1)
        assert p.block(0) == frozenset(range(1, 6))

    def test_determinism(self):
        a = random_partition(40, FAIR, seed=9)
        b = random_partition(40, FAIR, seed=9)
        assert a == b

    def test_block_fractions_match_weights(self):
        d = 100
        mu = (Fraction(1, 4), Fraction(3, 4))
        seeds = range(10 ** 4)
        mean = [Fraction(0), Fraction(0)]
        for s in seeds:
            p = random_partition(d, mu, seed=s)
            for i in range(2):
                mean[i] += Fraction(len(p.block(i)), d)
        n = len(seeds)
        for i in range(2):
            tol = 3 * math.sqrt(float(mu[i] * (1 - mu[i])) / d)
            assert abs(float(mean[i] / n) - float(mu[i])) <= tol

    def test_exact_partition_round_trip(self):
        p = exact_partition([frozenset({1, 3}), frozenset({2, 4})])
        assert p.block(0) == {1, 3} and p.block(1) == {2, 4}


@pytest.fixture(scope="module")
def r2_setup():
    g, swap = r2_swap()
    ctx = LemmaContext(g, [swap], 1)
    model = CylinderModel(ctx, FAIR)
    basis = span_basis(model)
    members = list(iter_SA_members(ctx.hypothesis_params(Fraction(1, 10), 4)))
    return g, swap, ctx, model, basis, members


class TestCylinderModel:
    def test_measure_routes_agree(self, r2_setup):
        _, _, _, model, _, _ = r2_setup
        for psi in model.psis:
            assert model.mu_cylinder(psi) == model.mu_cylinder_closed(psi)

    def test_degenerate_q1(self):
        g, swap = r2_swap()
        ctx = LemmaContext(g, [swap], 1)
        model = CylinderModel(ctx, [Fraction(1)])
        basis = span_basis(model)
        assert basis.ell == 1 and basis.kappa == 1 and basis.gamma == 1

    def test_trivial_group_basis(self):
        g = cyclic_groupoid(1)
        ctx = LemmaContext(g, [full_identity(g)], 1)
        model = CylinderModel(ctx, FAIR)
        basis = span_basis(model)
        assert basis.ell == 2 and basis.kappa == 1 and basis.gamma == 1

    def test_zmod2_basis_rank_bounded_by_atoms(self):
        g = cyclic_groupoid(2)
        a = PartialBisection(g, frozenset({1}))
        ctx = LemmaContext(g, [a], 1)
        model = CylinderModel(ctx, FAIR)
        basis = span_basis(model)
        # the model has 4 points, so the cylinder algebra has at most 4 atoms
        assert basis.ell <= 4
        assert basis.ell >= 1


class TestBoundChecks:
    def test_exact_instance_is_exactly_zero(self, r2_setup):
        g, swap, ctx, model, basis, _ = r2_setup
        sigma, part = regular_model_candidate(model)
        assert verify_lemma_c1(sigma, [swap], 1, Fraction(1, 10), ctx).worst == 0
        assert verify_lemma_c2(sigma, part, [swap], 1, Fraction(1, 10), model).worst == 0
        assert verify_lemma_c3_sweep(sigma, part, basis, Fraction(1, 10)).worst == 0

    def test_enumerated_members_pass_c1(self, r2_setup):
        g, swap, ctx, _, _, members = r2_setup
        assert len(members) == 3
        for m in members:
            rep = verify_lemma_c1(m, [swap], 1, Fraction(1, 10), ctx)
            assert rep.passed

    def test_non_member_rejected_before_checking(self, r2_setup):
        g, swap, ctx, _, _, _ = r2_setup
        from soficdim.pperm import PartialPermutation
        bad = SoficCandidate(4, [PartialPermutation.empty(4)] * 3)
        with pytest.raises(HypothesisError):
            verify_lemma_c1(bad, [swap], 1, Fraction(1, 10), ctx)

    def test_members_pass_c2_c3_random_partitions(self, r2_setup):
        g, swap, ctx, model, basis, members = r2_setup
        delta = Fraction(1, 10)
        for m in members[:2]:
            for seed in range(5):
                part = random_partition(4, FAIR, seed)
                assert verify_lemma_c2(m, part, [swap], 1, delta, model,
                                       precheck=False).passed
                assert verify_lemma_c3_sweep(m, part, basis, delta,
                                             precheck=False).passed

    def test_c3_zero_on_basis_elements(self, r2_setup):
        g, swap, ctx, model, basis, members = r2_setup
        sigma = members[0]
        part = random_partition(4, FAIR, seed=0)
        for i in basis.basis_psi_indices:
            rep = verify_lemma_c3(sigma, part, basis, model.psis[i],
                                  Fraction(1, 10), precheck=False)
            assert rep.worst == 0

    @pytest.mark.parametrize("delta,stride",
                             [(Fraction(1, 10), 1), (Fraction(1, 3), 50)])
    def test_c3_sweep_is_the_first_worst_single_psi(self, r2_setup, delta, stride):
        # at 1/10 every residual of the 3 members vanishes; at 1/3 every
        # 50th of the 507 members leaves nonzero residuals
        _, _, ctx, model, basis, _ = r2_setup
        members = list(iter_SA_members(ctx.hypothesis_params(delta, 4)))[::stride]
        for m in members:
            for seed in range(5):
                part = random_partition(4, FAIR, seed)
                worst = None
                for psi in model.psis:
                    rep = verify_lemma_c3(m, part, basis, psi, delta, precheck=False)
                    if worst is None or rep.worst > worst.worst:
                        worst = rep
                assert verify_lemma_c3_sweep(m, part, basis, delta,
                                             precheck=False) == worst

    def test_expansions_solve_each_subset_once(self, r2_setup, monkeypatch):
        _, _, _, model, _, _ = r2_setup
        basis = span_basis(model)
        solved = []
        monkeypatch.setattr(partitions, "_solve_against",
                            lambda rows, vec: solved.append(vec)
                            or _solve_against(rows, vec))
        n = model.action.n_points
        subsets = ([model.cylinder(psi) for psi in model.psis]
                   + [model.translate(b, letter) for b in range(len(model.ball))
                      for letter in range(model.q)]
                   + list(model.universe.elements))
        for subset in subsets + subsets:
            coeffs = basis.expand_vector(subset)
            assert coeffs == _solve_against(basis.rows, indicator(subset, n))
            assert indicator(subset, n) == tuple(
                sum((c * row[x] for c, row in zip(coeffs, basis.rows)), Fraction(0))
                for x in range(n))
        for i, psi in enumerate(model.psis):
            assert basis.expand_vector(model.cylinder(psi)) == basis.coeffs[i]
        assert len(solved) == len(set(solved))
        cylinders = {model.cylinder(psi) for psi in model.psis}
        assert len(solved) == len(set(subsets) - cylinders)

    def test_chebyshev_frequency_report(self, r2_setup):
        g, swap, ctx, model, _, members = r2_setup
        out = c2_partition_frequency(members[0], Fraction(1, 10), model,
                                     seeds=range(10), precheck=False)
        assert out["violations"] == 0
        assert out["trials"] > 0
        assert out["violation_frequency"] <= out["chebyshev_rate"]
        # the same data rides along in the bound report extras
        part = random_partition(4, FAIR, seed=0)
        rep = verify_lemma_c2(members[0], part, [swap], 1, Fraction(1, 10),
                              model, precheck=False, chebyshev_seeds=range(3))
        assert rep.extras and rep.extras["violations"] == 0

    def test_q1_discrepancy_is_common_range_defect(self, r2_setup):
        # a single letter degenerates the cylinder bound to the counting
        # bound on intersections of ranges
        g, swap, ctx, _, _, members = r2_setup
        model1 = CylinderModel(ctx, [Fraction(1)])
        sigma = members[0]
        part = random_partition(4, [Fraction(1)], seed=0)
        images = ctx.align(sigma, model1.ball)
        rep = verify_lemma_c2(sigma, part, [swap], 1, Fraction(1, 10), model1,
                              precheck=False)
        worst_direct = Fraction(0)
        from soficdim.groupoid import b_compose, b_inverse, full_identity, tau
        for psi in model1.psis:
            support = [model1.ball[i] for i, _ in psi]
            common = full_identity(g)
            for s in support:
                common = b_compose(common, b_compose(s, b_inverse(s)))
            pts = set(range(1, 5))
            for i, _ in psi:
                s = images[i]
                pts &= {s.images[x - 1] for x in range(1, 5) if s.images[x - 1]}
            worst_direct = max(worst_direct,
                               abs(tau(common) - Fraction(len(pts), 4)))
        assert rep.worst == worst_direct

    def test_null_letter_contributes_nothing(self, r2_setup):
        # alphabet weight (1, 0): the second letter set is null on both sides
        g, swap, ctx, _, _, members = r2_setup
        model = CylinderModel(ctx, [Fraction(1), Fraction(0)])
        sigma = members[0]
        part = random_partition(4, [Fraction(1), Fraction(0)], seed=1)
        assert part.block(1) == frozenset()
        images = ctx.align(sigma, model.ball)
        for psi in model.psis:
            if any(v == 1 for _, v in psi):
                assert model.mu_cylinder(psi) == 0
                assert model.image_cylinder(psi, images, part) == frozenset()


class TestBoundReport:
    def test_json_shape(self):
        rep = BoundReport(Fraction(10), Fraction(1), "w", True)
        d = rep.to_json_dict()
        assert set(d) >= {"bound", "worst", "witness", "slack_ratio", "passed"}
        assert d["slack_ratio"] == 0.1
