import math
from fractions import Fraction
from itertools import combinations, permutations, product

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
from soficdim import partitions, sofic
from soficdim.cli import full_group_generators
from soficdim.partitions import (
    BoundReport,
    CylinderModel,
    HypothesisError,
    LemmaContext,
    ModelMember,
    Phi0Table,
    RandomPartition,
    bell_number,
    lemma_constants,
    profile_sigma_points,
    profile_units,
    random_partition,
    set_partitions,
    span_basis,
    verify_lemma_c1,
    verify_lemma_c2,
    verify_lemma_c3_sweep,
)
from soficdim.partitions import _indicator as indicator
from soficdim.partitions import _solve_against
from soficdim.pperm import (
    PartialPermutation,
    inverse,
    random_permutation,
    random_pperm,
)
from soficdim.rng import SplitMix64
from soficdim.sofic import SoficCandidate, iter_SA_members

from references import conjugate, exact_partition, regular_model_candidate


# -- the closed measure route: profile measures times letter weights ---------------


def profile_h_measure(F0, blocks) -> Fraction:
    """Exact measure of the units classified by the given block pattern."""
    if not F0:
        raise ValueError("F0 must be nonempty")
    g = F0[0].host
    return sum((g.unit_weights[e] for e in profile_units(g, F0, blocks)),
               Fraction(0))


def block_weight(alphabet, letters, blocks) -> Fraction:
    """Product of the letter weights over the blocks of a profile partition.

    Item i carries ``letters[i]`` and lies in block ``blocks[i]``; the
    weight is 0 when a block holds two different letters.
    """
    letter_of = {}
    for letter, b in zip(letters, blocks):
        if letter_of.setdefault(b, letter) != letter:
            return Fraction(0)
    w = Fraction(1)
    for letter in letter_of.values():
        w *= alphabet[letter]
    return w


def mu_cylinder_closed(model, psi) -> Fraction:
    """Cylinder measure by the closed sum over profile partitions.

    Sums, over partitions of the psi support compatible with the
    letters, the profile measure times the product of letter weights
    over the blocks.
    """
    support = [model.ball[i] for i, _ in psi]
    letters = [v for _, v in psi]
    if not support:
        return Fraction(1)
    total = Fraction(0)
    for blocks in set_partitions(len(support)):
        w = block_weight(model.alphabet, letters, blocks)
        if w:
            total += profile_h_measure(support, blocks) * w
    return total


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

    def test_profile_h_measure_requires_nonempty(self):
        with pytest.raises(ValueError):
            profile_h_measure([], ())

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

    def test_sigma_points_match_range_scan(self):
        # reference: a point counts when every map has it in its range and
        # its preimages agree exactly where the blocks do
        def reference(images, blocks, d):
            out = set()
            for e in range(1, d + 1):
                if any(e not in s.images for s in images):
                    continue
                pres = [s.images.index(e) for s in images]
                if all((pres[i] == pres[j]) == (blocks[i] == blocks[j])
                       for i in range(len(images)) for j in range(i)):
                    out.add(e)
            return frozenset(out)

        rng = SplitMix64(12)
        for d in (1, 3, 6):
            for k in range(4):
                for _ in range(30):
                    images = [random_pperm(d, rng) for _ in range(k)]
                    for blocks in set_partitions(k):
                        assert profile_sigma_points(images, blocks, d) == \
                            reference(images, blocks, d)


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
        # the only profile projection is the full unit projection = identity
        assert LemmaContext(g, [ident], 1).F_n == (ident,)

    def test_augments_are_projections(self):
        g, swap = r2_swap()
        for p in LemmaContext(g, [swap], 1).F_n:
            if p == swap:
                continue
            assert all(g.is_unit[a] for a in p.arrows)
            assert b_compose(p, p) == p
            assert b_inverse(p) == p

    def test_size_bounded_by_bell_sum(self):
        g, swap = r2_swap()
        F1 = LemmaContext(g, [swap], 1).F_n
        ball_size = 2  # identity and swap
        bound = 1 + sum(math.comb(ball_size, k) * bell_number(k)
                        for k in range(ball_size + 1))
        assert len(F1) <= bound

    def test_cap(self, monkeypatch):
        g = transitive_groupoid(3)
        gens = [PartialBisection(g, frozenset([1])), PartialBisection(g, frozenset([2])),
                PartialBisection(g, frozenset([5]))]
        monkeypatch.setattr(partitions, "PROFILE_CAP", 3)
        with pytest.raises(HypothesisError, match="exceeds the cap 3"):
            LemmaContext(g, gens, 2)


class TestRandomPartition:
    def test_single_block(self):
        p = random_partition(5, [Fraction(1)], seed=1)
        assert p.blocks == (frozenset(range(1, 6)),)

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
            for i, block in enumerate(p.blocks):
                mean[i] += Fraction(len(block), d)
        n = len(seeds)
        for i in range(2):
            tol = 3 * math.sqrt(float(mu[i] * (1 - mu[i])) / d)
            assert abs(float(mean[i] / n) - float(mu[i])) <= tol

    def test_exact_partition_round_trip(self):
        p = exact_partition([frozenset({1, 3}), frozenset({2, 4})])
        assert p.blocks == ({1, 3}, {2, 4})


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
            assert model.mu_cylinder(psi) == mu_cylinder_closed(model, psi)

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


def c2_partition_frequency(sigma, delta, model, seeds, precheck=True):
    """Empirical frequency of per-term violations against the Chebyshev rate.

    For each seeded partition and each (psi, profile partition) pair,
    compares the summand |h(profile) * prod(weights) - |intersection|/d|
    with 2 * c1 * delta; returns the violating fraction next to the
    predicted rate |ball|^2 / ((c1 delta)^2 d).
    """
    delta = Fraction(delta)
    ctx = model.context
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    images = ctx.align(sigma, model.ball)
    c1 = lemma_constants(model.f_pm_size, model.n).c1
    threshold = 2 * c1 * delta
    d = sigma.degree
    trials = 0
    violations = 0
    for seed in seeds:
        letter_blocks = random_partition(d, model.alphabet, seed).blocks
        for psi in model.psis:
            support = [model.ball[i] for i, _ in psi]
            letters = [v for _, v in psi]
            imgs = [images[i] for i, _ in psi]
            a_psi = model.image_cylinder(psi, images, letter_blocks)
            for blocks in set_partitions(len(support)):
                trials += 1
                w = block_weight(model.alphabet, letters, blocks)
                if support:
                    h = profile_h_measure(support, blocks) if w else Fraction(0)
                    pts = profile_sigma_points(imgs, blocks, d)
                else:
                    h = Fraction(1)
                    pts = frozenset(range(1, d + 1))
                rhs = Fraction(len(a_psi & pts), d)
                if abs(h * w - rhs) >= threshold:
                    violations += 1
    rate_bound = float(Fraction(len(model.ball) ** 2) / ((c1 * delta) ** 2 * d))
    return {
        "trials": trials,
        "violations": violations,
        "violation_frequency": violations / trials if trials else 0.0,
        "chebyshev_rate": rate_bound,
    }


class TestBoundChecks:
    def test_exact_instance_is_exactly_zero(self, r2_setup):
        g, swap, ctx, model, basis, _ = r2_setup
        sigma, part = regular_model_candidate(model)
        assert verify_lemma_c1(sigma, ctx, Fraction(1, 10)).worst == 0
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        assert verify_lemma_c2(table, Fraction(1, 10)).worst == 0
        assert verify_lemma_c3_sweep(table, Fraction(1, 10)).worst == 0

    def test_enumerated_members_pass_c1(self, r2_setup):
        g, swap, ctx, _, _, members = r2_setup
        assert len(members) == 3
        for m in members:
            rep = verify_lemma_c1(m, ctx, Fraction(1, 10))
            assert rep.passed

    def test_non_member_rejected_before_checking(self, r2_setup):
        g, swap, ctx, _, _, _ = r2_setup
        from soficdim.pperm import PartialPermutation
        bad = SoficCandidate(4, [PartialPermutation.empty(4)] * 3)
        with pytest.raises(HypothesisError):
            verify_lemma_c1(bad, ctx, Fraction(1, 10))

    def test_members_pass_c2_c3_random_partitions(self, r2_setup):
        g, swap, ctx, model, basis, members = r2_setup
        delta = Fraction(1, 10)
        for m in members[:2]:
            for seed in range(5):
                table = Phi0Table(basis, ModelMember(model, m),
                                  random_partition(4, FAIR, seed))
                assert verify_lemma_c2(table, delta, precheck=False).passed
                assert verify_lemma_c3_sweep(table, delta, precheck=False).passed

    def test_c3_zero_on_basis_elements(self, r2_setup):
        g, swap, ctx, model, basis, members = r2_setup
        table = Phi0Table(basis, ModelMember(model, members[0]),
                          random_partition(4, FAIR, seed=0))
        for i in basis.basis_psi_indices:
            _, res = table.residuals[i]
            assert not any(res)

    @pytest.mark.parametrize("delta,stride",
                             [(Fraction(1, 10), 1), (Fraction(1, 3), 50)])
    def test_c3_sweep_is_the_first_worst_single_psi(self, r2_setup, delta, stride):
        # at 1/10 every residual of the 3 members vanishes; at 1/3 every
        # 50th of the 507 members leaves nonzero residuals, often tied
        _, _, ctx, model, basis, _ = r2_setup
        members = list(iter_SA_members(ctx.hypothesis_params(delta, 4)))[::stride]
        ties = 0
        for m in members:
            for seed in range(5):
                table = Phi0Table(basis, ModelMember(model, m),
                                  random_partition(4, FAIR, seed))
                norms = [Fraction(sum(r * r for r in res), den * den * 4)
                         for den, res in table.residuals]
                first = max(range(len(norms)), key=norms.__getitem__)
                rep = verify_lemma_c3_sweep(table, delta, precheck=False)
                assert rep.worst == norms[first]
                assert rep.witness == f"psi={model.psis[first]}"
                ties += norms.count(norms[first]) > 1
        assert ties

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
        # fewer seeds: the trials scale with the seed count
        few = c2_partition_frequency(members[0], Fraction(1, 10), model,
                                     seeds=range(3), precheck=False)
        assert few["violations"] == 0 and 10 * few["trials"] == 3 * out["trials"]

    def test_q1_discrepancy_is_common_range_defect(self, r2_setup):
        # a single letter degenerates the cylinder bound to the counting
        # bound on intersections of ranges
        g, swap, ctx, _, _, members = r2_setup
        model1 = CylinderModel(ctx, [Fraction(1)])
        sigma = members[0]
        part = random_partition(4, [Fraction(1)], seed=0)
        images = ctx.align(sigma, model1.ball)
        basis1 = span_basis(model1)
        rep = verify_lemma_c2(Phi0Table(basis1, ModelMember(model1, sigma), part),
                              Fraction(1, 10), precheck=False)
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
        assert part.blocks[1] == frozenset()
        images = ctx.align(sigma, model.ball)
        for psi in model.psis:
            if any(v == 1 for _, v in psi):
                assert model.mu_cylinder(psi) == 0
                assert model.image_cylinder(psi, images, part.blocks) == frozenset()


class TestBoundReport:
    def test_json_shape(self):
        rep = BoundReport(Fraction(10), Fraction(1), "w", True)
        d = rep.to_json_dict()
        assert set(d) >= {"bound", "worst", "witness", "slack_ratio", "passed"}
        assert d["slack_ratio"] == 0.1


# -- the integer basis solve against the rational one it replaces ---------------


def reference_solve_against(basis_rows, vec):
    """Gauss-Jordan elimination on Fractions, as _solve_against ran before
    it eliminated on integers."""
    if not basis_rows:
        if any(vec):
            raise ValueError("vector outside span")
        return ()
    ncols = len(vec)
    nrows = len(basis_rows)
    aug = [[Fraction(basis_rows[r][c]) for r in range(nrows)] + [Fraction(vec[c])]
           for c in range(ncols)]
    pivots = []
    row = 0
    for col in range(nrows):
        sel = None
        for r in range(row, ncols):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(ncols):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    coeffs = [Fraction(0)] * nrows
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][-1]
    for r in range(row, ncols):
        if aug[r][-1] != 0:
            raise ValueError("vector outside span")
    return tuple(coeffs)


def solve_outcome(solve, rows, vec):
    try:
        return solve(rows, vec)
    except ValueError as exc:
        return str(exc)


def random_rational(rng):
    return Fraction(rng.below(9) - 4, 1 + rng.below(6))


@pytest.mark.parametrize("kind", ["01", "rational"])
def test_integer_solve_matches_rational_solve(kind):
    rng = SplitMix64(71 if kind == "01" else 72)
    draw = (lambda: rng.below(2)) if kind == "01" else (lambda: random_rational(rng))
    inside = outside = 0
    for _ in range(150):
        n = 2 + rng.below(8)
        rows = []
        for _ in range(1 + rng.below(n)):  # keep the independent draws
            row = tuple(draw() for _ in range(n))
            if not isinstance(solve_outcome(reference_solve_against, rows, row), tuple):
                rows.append(row)
        coeffs = [random_rational(rng) for _ in rows]
        in_span = tuple(sum((c * r[x] for c, r in zip(coeffs, rows)), Fraction(0))
                        for x in range(n))
        free = tuple(draw() for _ in range(n))
        for vec in (in_span, free):
            want = solve_outcome(reference_solve_against, rows, vec)
            assert solve_outcome(_solve_against, rows, vec) == want
            inside += isinstance(want, tuple)
            outside += want == "vector outside span"
        assert _solve_against(rows, in_span) == tuple(coeffs)
    assert inside > 150 and outside > 10


def test_integer_solve_on_an_empty_basis():
    assert _solve_against((), (0, 0, 0)) == reference_solve_against((), (0, 0, 0)) == ()
    for vec in ((0, 1, 0), (Fraction(1, 2),)):
        with pytest.raises(ValueError, match="outside span"):
            _solve_against((), vec)


def reference_span_basis(model):
    """basis indices, coefficients, kappa, gamma and its parts by the
    rational solve on Fraction indicator vectors."""
    n = model.action.n_points
    vectors = [tuple(Fraction(x in model.cylinder(psi)) for x in range(n))
               for psi in model.psis]
    rows, idx = [], []
    for i, v in enumerate(vectors):
        if not isinstance(solve_outcome(reference_solve_against, rows, v), tuple):
            idx.append(i)
            rows.append(v)
    coeffs = tuple(reference_solve_against(rows, v) for v in vectors)
    kappa = max(Fraction(1), *(abs(c) for row in coeffs for c in row))
    sums = set()
    for row in coeffs:
        part = {Fraction(0)}
        for c in row:
            if c:
                part |= {s + c for s in part}
        sums |= part
    gamma1 = min((abs(s) for s in sums if s), default=Fraction(1))
    gamma2 = min((abs(s - 1) for s in sums if s != 1), default=Fraction(1))
    parts = (gamma1, gamma2, gamma1 * gamma1)
    return tuple(idx), coeffs, kappa, min(parts), parts


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("source", ["r2", "zmod2"])
def test_span_basis_matches_rational_solve(source, q):
    g = transitive_groupoid(2) if source == "r2" else cyclic_groupoid(2)
    model = CylinderModel(LemmaContext(g, full_group_generators(g), 1),
                          [Fraction(1, q)] * q)
    basis = span_basis(model)
    assert (basis.basis_psi_indices, basis.coeffs, basis.kappa, basis.gamma,
            basis.gamma_parts) == reference_span_basis(model)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [None, 2, 3], ids=["r2", "zmod2", "zmod3"])
def test_sigma_source_ball_is_the_model_ball(m, n):
    # ModelMember.sigma_report checks the model-ball images over the
    # sigma source, so the two balls must list the same bisections in
    # the same order
    g = transitive_groupoid(2) if m is None else cyclic_groupoid(m)
    ctx = LemmaContext(g, full_group_generators(g), n)
    assert ctx.ball == ctx.sigma_source.ball_elements



@pytest.mark.parametrize("m", [None, 2], ids=["r2", "zmod2"])
def test_member_pads_and_inverses(m):
    # the transport s p s^-1 that crossed reads from the member
    g = transitive_groupoid(2) if m is None else cyclic_groupoid(m)
    ctx = LemmaContext(g, full_group_generators(g), 1)
    model = CylinderModel(ctx, FAIR)
    members = list(iter_SA_members(ctx.hypothesis_params(Fraction(1, 10), 4)))
    assert members
    for sigma in members:
        member = ModelMember(model, sigma)
        assert len(member.pads) == len(member.inverses) == len(model.ball)
        for b, s in enumerate(member.images):
            assert member.pads[b] == (0,) + s.images
            assert member.inverses[b] == inverse(s).images


# -- the context's one profile sweep against the two routes it replaced ------------


def oracle_augment(F, n, g):
    """F with every profile projection of its own radius-n ball, as the
    standalone augmentation built it."""
    ball = sofic.bisection_ball(g, F, n)
    out = list(F)
    seen = set(out)
    for r in range(len(ball) + 1):
        for combo in combinations(range(len(ball)), r):
            F0 = [ball[i] for i in combo]
            for blocks in set_partitions(len(F0)):
                p = projection_bisection(g, profile_units(g, F0, blocks))
                if p not in seen:
                    seen.add(p)
                    out.append(p)
    return out


def oracle_c1(sigma, ctx, delta, precheck=True):
    """The c1 sweep with both sides computed per subset and partition."""
    delta = Fraction(delta)
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    ball = ctx.ball
    images_all = ctx.align(sigma, ball)
    bound = lemma_constants(ctx.f_pm_size, ctx.n).c1 * delta
    worst = Fraction(0)
    witness = "empty profile sweep"
    d = sigma.degree
    for r in range(len(ball) + 1):
        for combo in combinations(range(len(ball)), r):
            F0 = [ball[i] for i in combo]
            imgs = [images_all[i] for i in combo]
            for blocks in set_partitions(len(F0)):
                if F0:
                    h = profile_h_measure(F0, blocks)
                    frac = Fraction(len(profile_sigma_points(imgs, blocks, d)), d)
                else:
                    h = frac = Fraction(1)
                disc = abs(h - frac)
                if disc > worst:
                    worst = disc
                    witness = f"F0={list(combo)} blocks={blocks}"
    return BoundReport(bound, worst, witness, worst < bound)


SWEEP_SOURCES = {
    "r2": lambda: transitive_groupoid(2),
    "zmod2": lambda: cyclic_groupoid(2),
    "zmod3": lambda: cyclic_groupoid(3),
    "r3": lambda: transitive_groupoid(3),
}


@pytest.mark.parametrize("source,n", [("r2", 1), ("zmod2", 1), ("zmod3", 1),
                                      ("r3", 1), ("r2", 2)])
def test_context_sweep_matches_the_standalone_routes(source, n):
    g = SWEEP_SOURCES[source]()
    F = full_group_generators(g)
    ctx = LemmaContext(g, F, n)
    assert ctx.F_n == tuple(oracle_augment(F, n, g))
    ball = sofic.bisection_ball(g, F, n)
    expected = [(combo, blocks, profile_units(g, [ball[i] for i in combo], blocks))
                for r in range(len(ball) + 1)
                for combo in combinations(range(len(ball)), r)
                for blocks in set_partitions(r)]
    assert list(ctx.profiles) == expected


def test_context_builds_its_ball_once(monkeypatch):
    calls = []
    original = sofic.bisection_ball

    def counting(g, F, n):
        calls.append((tuple(F), n))
        return original(g, F, n)

    monkeypatch.setattr(sofic, "bisection_ball", counting)
    g, swap = r2_swap()
    ctx = LemmaContext(g, [swap], 1)
    # the radius-n ball, then the hypothesis source's ball over F_n
    assert calls == [((swap,), 1), (ctx.F_n, ctx.radius)]


@pytest.mark.parametrize("source,d", [("r2", 4), ("zmod2", 4), ("r3", 3)])
def test_c1_matches_the_per_member_sweep(source, d):
    g = SWEEP_SOURCES[source]()
    ctx = LemmaContext(g, full_group_generators(g), 1)
    delta = Fraction(1, 10)
    members = list(iter_SA_members(ctx.hypothesis_params(delta, d)))
    assert members
    for sigma in members:
        assert verify_lemma_c1(sigma, ctx, delta) == oracle_c1(sigma, ctx, delta)
    # every member is exact (worst 0); random maps give nonzero worsts
    # and witnesses
    rng = SplitMix64(d)
    size = len(ctx.hypothesis_source.ball_elements)
    worsts = set()
    for _ in range(20):
        sigma = SoficCandidate(d, [random_pperm(d, rng) for _ in range(size)])
        report = verify_lemma_c1(sigma, ctx, delta, precheck=False)
        assert report == oracle_c1(sigma, ctx, delta, precheck=False)
        worsts.add(report.worst)
    assert len(worsts) > 1



# -- the relabeling key of (member, partition) ------------------------------------


def relabeled(member, block_of, perm):
    """The member and colouring carried along the permutation of the
    points, given as its image tuple (perm[x - 1] is the image of x)."""
    g = PartialPermutation(len(perm), tuple(perm))
    sigma = SoficCandidate(member.sigma.degree,
                           [conjugate(s, g) for s in member.sigma.images])
    moved = [None] * len(perm)
    for x, y in enumerate(perm):
        moved[y - 1] = block_of[x]
    return ModelMember(member.model, sigma), tuple(moved)


@pytest.mark.parametrize("m", [None, 2], ids=["r2", "zmod2"])
def test_relabeling_key_is_invariant(m):
    # random partial maps (members or not) and 3-letter colourings keep
    # their key under seeded random relabelings of the points
    g = transitive_groupoid(2) if m is None else cyclic_groupoid(m)
    model = CylinderModel(LemmaContext(g, full_group_generators(g), 1), FAIR)
    size = len(model.context.hypothesis_source.ball_elements)
    rng = SplitMix64(7)
    for _ in range(40):
        d = 1 + rng.below(8)
        member = ModelMember(model, SoficCandidate(
            d, [random_pperm(d, rng) for _ in range(size)]))
        block_of = tuple(rng.below(3) for _ in range(d))
        key = member.relabeling_key(block_of)
        for _ in range(3):
            perm = random_permutation(d, rng).images
            other, moved = relabeled(member, block_of, perm)
            assert other.relabeling_key(moved) == key


def least_relabeling(pads, block_of, perms):
    """The least copy of (padded images, colouring) over every
    relabeling of the points: one value per orbit, by brute force."""
    out = None
    for perm in perms:
        images = []
        for s in pads:
            t = [0] * len(perm)
            for x, y in enumerate(s[1:]):
                if y:
                    t[perm[x] - 1] = perm[y - 1]
            images.append(tuple(t))
        moved = [None] * len(perm)
        for x, y in enumerate(perm):
            moved[y - 1] = block_of[x]
        copy = (tuple(images), tuple(moved))
        if out is None or copy < out:
            out = copy
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [None, 2], ids=["r2", "zmod2"])
def test_relabeling_key_separates_exactly_the_orbits(m, d):
    # members of distinct model-ball images, a seeded few of them, with
    # every 2- and 3-letter colouring: equal keys exactly when some
    # permutation of {1..d} carries one pair onto the other
    g = transitive_groupoid(2) if m is None else cyclic_groupoid(m)
    ctx = LemmaContext(g, full_group_generators(g), 1)
    model = CylinderModel(ctx, FAIR)
    delta = Fraction(1, 2) if d < 5 else Fraction(1, 4)
    members = {}
    for sigma in iter_SA_members(ctx.hypothesis_params(delta, d)):
        member = ModelMember(model, sigma)
        members.setdefault(member.pads, member)
    members = list(members.values())
    rng = SplitMix64(d)
    rng.shuffle(members)
    members = members[:6]
    perms = list(permutations(range(1, d + 1)))
    keys, orbits = [], []
    for member in members:
        for block_of in product(range(3), repeat=d):
            keys.append(member.relabeling_key(block_of))
            orbits.append(least_relabeling(member.pads, block_of, perms))
    assert len(set(keys)) == len(set(orbits)) == len(set(zip(keys, orbits)))
    assert 1 < len(set(keys)) < len(keys)
