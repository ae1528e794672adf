from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

from soficdim import pperm
from soficdim.cli import full_group_generators
from soficdim.crossed import (
    HACandidate,
    HAReport,
    PropertyReport,
    SqrtTol,
    SumCheck,
    approx_sum_check,
    build_phi,
    build_phi0,
    delta0_squared,
    gap_below,
    ha_statistic,
    verify_HA,
)
from soficdim.groupoid import (
    PartialBisection,
    cyclic_groupoid,
    full_identity,
    projection_bisection,
    transitive_groupoid,
)
from soficdim.partitions import (
    BoundReport,
    CylinderModel,
    HypothesisError,
    LemmaContext,
    ModelMember,
    Phi0Table,
    SpanBasis,
    lemma_constants,
    random_partition,
    span_basis,
    verify_lemma_c2,
    verify_lemma_c3_sweep,
)
from soficdim.partitions import _indicator as indicator
from soficdim.pperm import PartialPermutation, parse_pperm, random_pperm
from soficdim.rng import SplitMix64
from soficdim.sofic import SoficCandidate, count_SA, iter_SA_members, verify_membership

from references import (exact_partition, mu_cylinder, mu_points, pair_gaps,
                        reference_cylinders, reference_image_cylinder,
                        reference_translates, regular_model_candidate, uneven_groupoid)

FAIR = (Fraction(1, 2), Fraction(1, 2))


@pytest.fixture(scope="module")
def r2():
    g = transitive_groupoid(2)
    swap = PartialBisection(g, frozenset(a for a in range(4)
                                         if g.source[a] != g.range_[a]))
    ctx = LemmaContext(g, [swap], 1)
    model = CylinderModel(ctx, FAIR)
    basis = span_basis(model)
    return g, swap, ctx, model, basis


class TestVerifyHA:
    def test_exact_model_all_gaps_zero(self, r2):
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        res = build_phi(table, Fraction(1, 10))
        rep = res.report
        assert rep.is_member
        assert rep.trace_gap == rep.equivariance_gap == rep.mult_gap == 0
        assert rep.unit_gap == 0

    def test_one_point_corruption_breaks_equivariance(self, r2):
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        res = build_phi(table, Fraction(1, 10))
        d = sigma.degree
        uni = model.universe
        # corrupt phi at the first letter block: drop its first support point
        pos = uni.letter_index[0]
        supports = list(res.candidate.supports)
        supports[pos] &= supports[pos] - 1
        bad = HACandidate(ModelMember(model, sigma), supports)
        rep = verify_HA(bad, Fraction(1, d + 1))
        assert rep.equivariance_gap >= Fraction(1, d)
        assert not rep.is_member

    def test_phi_coverage_enforced(self, r2):
        # the candidate is refused when it is built
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        with pytest.raises(ValueError, match=f"^phi covers 0 of {len(model.universe)} "):
            HACandidate(ModelMember(model, sigma), [])

    def test_phi_degree_enforced(self, r2):
        # phi covers the universe, but one support holds point d + 1 or
        # the bit of point 0, which no point of 1..d sets
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        d = sigma.degree
        res = build_phi(Phi0Table(basis, ModelMember(model, sigma), part), Fraction(1, 10))
        HACandidate(res.candidate.member, res.candidate.supports)
        for bad in (1 << (d + 1), 1, -2):
            supports = list(res.candidate.supports)
            supports[0] = bad
            with pytest.raises(ValueError, match=f"degree d = {d}$"):
                HACandidate(res.candidate.member, supports)

    def test_problems_on_one_model_share_universe_and_sigma_source(self, r2):
        _, _, _, model, basis = r2
        assert (model.context.sigma_params(1, 4).source
                is model.context.sigma_params(Fraction(1, 3), 3).source)
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        res = build_phi(table, Fraction(1, 10))
        # the model builds its universe once, and phi covers that one
        assert res.candidate.member.model is model
        assert model.universe is model.universe
        assert len(res.candidate.supports) == len(model.universe)


# -- object-level oracles for the mask sweeps of verify_HA and the 146 delta
# linearity: s p s^-1 and the corrected sum as composed and summed maps


def points_mask(points) -> int:
    """The support bitmask of a set of points of 1..d, bit x for x."""
    return sum(1 << x for x in points)


def projections(cand) -> list:
    """The candidate's phi as maps: the projection onto each support."""
    d = cand.member.sigma.degree
    return [PartialPermutation.projection(d, [x for x in range(1, d + 1) if m >> x & 1])
            for m in cand.supports]


def push_forward(s, p):
    """p transported by s, the conjugation s p s^-1."""
    return pperm.compose(pperm.compose(s, p), pperm.inverse(s))


def corrected_sum(a, b):
    """Sum of two near-orthogonal maps: b is cut off a's domain and range."""
    taken = set(a.images)
    trimmed = [0 if x or y in taken else y for x, y in zip(a.images, b.images)]
    return pperm.orthogonal_sum([a, PartialPermutation(b.degree, trimmed)], b.degree)


def reference_disjoint_pairs(uni):
    out = []
    for i in range(len(uni)):
        for j in range(i, len(uni)):
            a, b = uni.elements[i], uni.elements[j]
            if not (a & b) and (a | b) in uni.index:
                out.append((a, b))
    return out


def reference_approx_sum_check(cand, delta, p1, p2):
    """(gap, bound, passed, witness) of one disjoint pair of subsets."""
    uni = cand.member.model.universe
    p1, p2 = frozenset(p1), frozenset(p2)
    if p1 & p2:
        raise ValueError("projections are not disjoint")
    phi = projections(cand)
    a = phi[uni.index[p1]]
    b = phi[uni.index[p2]]
    whole = phi[uni.index[p1 | p2]]
    gap = pperm.uniform_distance(whole, corrected_sum(a, b))
    bound = 146 * delta
    return gap, bound, gap < bound, f"|p1|={len(p1)}, |p2|={len(p2)}"


class TestPushForward:
    def test_projection_pushforward(self):
        s = parse_pperm("4:[1->2, 2->1, 3->4]")
        p = PartialPermutation.projection(4, [1, 3])
        assert push_forward(s, p) == PartialPermutation.projection(4, [2, 4])

    def test_outside_domain_drops(self):
        s = parse_pperm("3:[1->2]")
        p = PartialPermutation.projection(3, [1, 3])
        assert push_forward(s, p) == PartialPermutation.projection(3, [2])


class TestCorrectedSum:
    def test_orthogonal_images_strict_sum(self):
        a = parse_pperm("4:[1->2]")
        b = parse_pperm("4:[3->4]")
        assert corrected_sum(a, b) == parse_pperm("4:[1->2, 3->4]")

    def test_overlap_resolved_off_first(self):
        a = parse_pperm("4:[1->2]")
        b = parse_pperm("4:[1->3, 4->2, 3->4]")
        # 1->3 cut (domain hit), 4->2 cut (range hit), 3->4 kept
        assert corrected_sum(a, b) == parse_pperm("4:[1->2, 3->4]")


def reference_corrected_sum(a, b):
    """corrected_sum on bit masks of a's domain and range, as it was
    computed before maps dropped their mask fields."""
    dom = sum(1 << x0 for x0, y in enumerate(a.images) if y)
    ran = sum(1 << (y - 1) for y in a.images if y)
    images = list(a.images)
    for x0, y in enumerate(b.images):
        if y and not (dom >> x0) & 1 and not (ran >> (y - 1)) & 1:
            images[x0] = y
    return PartialPermutation(a.degree, images)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
def test_corrected_sum_matches_mask_version_on_random_pairs(d):
    rng = SplitMix64(100 + d)
    for _ in range(300):
        a, b = random_pperm(d, rng), random_pperm(d, rng)
        for x, y in ((a, b), (b, a), (a, pperm.compose(a, b))):
            got, want = corrected_sum(x, y), reference_corrected_sum(x, y)
            assert got == want
            assert (got.nfix, got.dom_size, hash(got)) == \
                (want.nfix, want.dom_size, hash(want))


class TestApproxSum:
    def test_exact_phi_gap_zero(self, r2):
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        res = build_phi(table, Fraction(1, 10))
        check = approx_sum_check(res.candidate, Fraction(1, 10))
        assert check.counts and check.passed
        assert set(check.counts) == {0} and check.worst_gap == 0

    def test_disjointness_precondition(self, r2):
        # the pairs come from the universe: disjoint, with the union's index
        _, _, _, model, _ = r2
        uni = model.universe
        full = uni.elements[uni.x_index]
        assert uni.sum_pairs
        for i, j, k in uni.sum_pairs:
            a, b = uni.elements[i], uni.elements[j]
            assert i <= j and not (a & b) and uni.elements[k] == a | b
        assert [(uni.elements[i], uni.elements[j]) for i, j, _ in uni.sum_pairs] \
            == reference_disjoint_pairs(uni)
        assert (full, full) not in reference_disjoint_pairs(uni)
        sigma, _ = regular_model_candidate(model)
        cand = HACandidate(ModelMember(model, sigma),
                           [points_mask(range(1, sigma.degree + 1))] * len(uni))
        with pytest.raises(ValueError):
            approx_sum_check(cand, SqrtTol(Fraction(1, 9)))

    def test_constructed_members_obey_146_delta(self, r2):
        _, _, ctx, model, basis = r2
        delta = Fraction(1, 10)
        members = list(iter_SA_members(ctx.hypothesis_params(delta, 4)))
        for m in members:
            part = random_partition(4, FAIR, seed=17)
            table = Phi0Table(basis, ModelMember(model, m), part)
            res = build_phi(table, delta)
            assert approx_sum_check(res.candidate, delta).passed


class TestBuildPhi0:
    def test_exact_properties_zero(self, r2):
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        rep = build_phi0(Phi0Table(basis, ModelMember(model, sigma), part), Fraction(1, 10))
        assert rep.passed
        assert rep.trace_gap_sq == rep.equivariance_gap_sq == 0
        assert rep.mult_gap_sq == rep.unit_gap_sq == 0

    def test_members_pass_at_delta0(self, r2):
        _, _, ctx, model, basis = r2
        delta = Fraction(1, 10)
        for d in (4, 6):
            cap = 10 ** 9 if d == 6 else 10 ** 8
            from soficdim.sofic import iter_SA_members as it
            for m in it(ctx.hypothesis_params(delta, d)):
                for seed in (0, 1):
                    part = random_partition(d, FAIR, seed)
                    table = Phi0Table(basis, ModelMember(model, m), part)
                    rep = build_phi0(table, delta)
                    assert rep.passed

    def test_q1_unit_property(self):
        g = transitive_groupoid(2)
        swap = PartialBisection(g, frozenset(a for a in range(4)
                                             if g.source[a] != g.range_[a]))
        ctx = LemmaContext(g, [swap], 1)
        model = CylinderModel(ctx, [Fraction(1)])
        basis = span_basis(model)
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        rep = build_phi0(table, Fraction(1, 10))
        # a single letter: the full-space value is built from the lone block
        assert rep.unit_gap_sq == 0

    def test_hypothesis_rejected(self, r2):
        _, _, ctx, _, _ = r2
        from soficdim.sofic import SoficCandidate
        n = len(ctx.hypothesis_source.ball_elements)
        bad = SoficCandidate(4, [PartialPermutation.empty(4)] * n)
        with pytest.raises(HypothesisError):
            ctx.check_hypothesis(bad, Fraction(1, 10))


class TestBuildPhi:
    def test_exact_instance_keeps_everything(self, r2):
        _, _, _, model, basis = r2
        sigma, part = regular_model_candidate(model)
        table = Phi0Table(basis, ModelMember(model, sigma), part)
        res = build_phi(table, Fraction(1, 10))
        assert res.v_fraction == 1 and res.v_ok
        assert res.report.is_member

    def test_members_meet_v_bound_and_tolerance(self, r2):
        _, _, ctx, model, basis = r2
        delta = Fraction(1, 10)
        for m in iter_SA_members(ctx.hypothesis_params(delta, 6)):
            part = random_partition(6, FAIR, seed=23)
            table = Phi0Table(basis, ModelMember(model, m), part)
            rep0 = build_phi0(table, delta)
            assert rep0.passed
            res = build_phi(table, delta)
            assert res.v_ok
            assert Fraction(len(res.V)) >= res.v_bound
            assert res.report.is_member
            assert isinstance(res.tolerance, SqrtTol)


class TestGapBelow:
    def test_rational_and_sqrt(self):
        assert gap_below(Fraction(1, 4), Fraction(1, 2))
        assert not gap_below(Fraction(1, 2), Fraction(1, 2))
        assert gap_below(Fraction(1, 2), SqrtTol(Fraction(1, 2)))
        assert not gap_below(Fraction(3, 4), SqrtTol(Fraction(1, 2)))


class TestHAStatistic:
    def test_one_point_space_matches_sa_count(self):
        g = cyclic_groupoid(1)
        ctx = LemmaContext(g, [full_identity(g)], 1)
        model = CylinderModel(ctx, [Fraction(1)])
        delta = Fraction(1, 3)
        count, stat, sa_count = ha_statistic(model, delta, 2, E=[0], Q=[0])
        sa = count_SA(ctx.hypothesis_params(delta, 2), ())[0]
        # phi on the single point space is forced to the identity
        assert sa_count == sa
        assert count == sa

    def test_bounded_by_q_power_d_times_sa(self):
        # the restriction-counting bound |Q|^d * |SA|_E needs delta small
        # enough that the conditions pin the phi values near projections
        g = cyclic_groupoid(1)
        ctx = LemmaContext(g, [full_identity(g)], 1)
        model = CylinderModel(ctx, FAIR)
        delta = Fraction(1, 3)
        Q = [0, 1]
        count, _, sa_count = ha_statistic(model, delta, 2, E=[0], Q=Q)
        assert count >= 1
        assert count <= len(Q) ** 2 * sa_count

    def test_empty_set_gives_sentinel(self):
        g = cyclic_groupoid(1)
        ctx = LemmaContext(g, [full_identity(g)], 1)
        # delta too small for any phi: tr phi(X) must be within 1/100 of 1
        # while |phi(X) - id| < 1/100 forces phi(X) = id, which passes; use a
        # sigma-less obstruction instead: d odd has no obstruction here, so
        # shrink delta below 1/d on a 3-point space with a fair alphabet
        model = CylinderModel(ctx, FAIR)
        count, stat, _ = ha_statistic(model, Fraction(1, 100), 3, E=[0], Q=[0])
        assert count == 0 and stat == float("-inf")


# -- the integer sweeps against the Fraction sweeps they replace -----------------
#
# The reference functions below are the rational loops of build_phi0,
# verify_HA and the c3 residual norm as they were before those sweeps ran
# on integers: every phi0 value is rebuilt from the basis expansion, every
# gap is a Fraction, and the product property visits all ordered pairs.
# Every image cylinder A_psi is recomputed per psi from one block scan
# per letter, as the checks did before they shared one Phi0Table.


def reference_value_vector(table, subset):
    psis = table.basis.model.psis
    a_sets = [reference_image_cylinder(psis[i], table.images, table.partition)
              for i in table.basis.basis_psi_indices]
    basis = table.basis
    vals = [Fraction(0)] * table.d
    for c, s in zip(basis.expand_vector(indicator(subset, basis.model.action.n_points)),
                    a_sets):
        c = Fraction(c, basis.den)
        if c:
            for x in s:
                vals[x - 1] += c
    return tuple(vals)


def reference_norm_sq(values, d):
    return sum((v * v for v in values), Fraction(0)) / d


def reference_mult_gaps(table):
    projections = table.basis.model.distinct_projections
    vec = [reference_value_vector(table, p) for p in projections]
    return {(i, j): reference_norm_sq(
                [a - b * c for a, b, c in zip(
                    reference_value_vector(table, p1 & p2), vec[i], vec[j])],
                table.d)
            for i, p1 in enumerate(projections)
            for j, p2 in enumerate(projections)}


def reference_build_phi0(sigma, partition, basis, delta):
    delta = Fraction(delta)
    model = basis.model
    table = Phi0Table(basis, ModelMember(model, sigma), partition)
    d = table.d
    trace_sq, trace_wit = Fraction(0), ""
    for i, p in enumerate(dict.fromkeys(reference_cylinders(model))):
        tr = sum(reference_value_vector(table, p), Fraction(0)) / d
        gap = abs(tr - mu_points(model, p))
        if gap * gap > trace_sq:
            trace_sq, trace_wit = gap * gap, f"projection {i}"
    equi_sq, equi_wit = Fraction(0), ""
    translates = reference_translates(model)
    for letter, bset in enumerate(model.letter_sets):
        g_vec = reference_value_vector(table, bset)
        for bidx in range(len(model.ball)):
            f_vec = reference_value_vector(table, translates[bidx, letter])
            s = table.images[bidx]
            pushed = [Fraction(0)] * d
            for x in range(1, d + 1):
                y = s.images[x - 1]
                if y:
                    pushed[y - 1] = g_vec[x - 1]
            gap_sq = reference_norm_sq([a - b for a, b in zip(f_vec, pushed)], d)
            if gap_sq > equi_sq:
                equi_sq, equi_wit = gap_sq, f"letter {letter}, ball {bidx}"
    mult_sq, mult_wit = Fraction(0), ""
    for (i, j), gap_sq in reference_mult_gaps(table).items():
        if gap_sq > mult_sq:
            mult_sq, mult_wit = gap_sq, f"pair ({i}, {j})"
    x_vals = reference_value_vector(table, frozenset(range(model.action.n_points)))
    unit_sq = reference_norm_sq([v - 1 for v in x_vals], d)
    return PropertyReport(delta0_squared(basis, delta), trace_sq, equi_sq,
                          mult_sq, unit_sq, (trace_wit, equi_wit, mult_wit))


def reference_c3_norms(table):
    model = table.basis.model
    norms = []
    for psi, cylinder in zip(model.psis, reference_cylinders(model)):
        a_psi = reference_image_cylinder(psi, table.images, table.partition)
        vals = reference_value_vector(table, cylinder)
        norms.append(reference_norm_sq(
            [(x in a_psi) - v for x, v in enumerate(vals, start=1)], table.d))
    return norms


def reference_c2(table, delta):
    model = table.basis.model
    bound = lemma_constants(model.f_pm_size, model.n).c2 * delta
    worst, witness = Fraction(0), "empty cylinder sweep"
    for psi, cylinder in zip(model.psis, reference_cylinders(model)):
        mu = mu_points(model, cylinder)
        a_psi = reference_image_cylinder(psi, table.images, table.partition)
        disc = abs(mu - Fraction(len(a_psi), table.d))
        if disc > worst:
            worst, witness = disc, f"psi={psi}"
    return BoundReport(bound, worst, witness, worst < bound)


def reference_c3_sweep(table, delta):
    model = table.basis.model
    norms = reference_c3_norms(table)
    worst = max(norms)
    bound_sq = lemma_constants(model.f_pm_size, model.n, table.basis).c3 ** 2 * delta
    return BoundReport(bound_sq, worst, f"psi={model.psis[norms.index(worst)]}",
                       worst < bound_sq, squared=True)


def reference_V(table):
    model = table.basis.model
    V = set(range(1, table.d + 1))
    a_sets = []
    cylinders = reference_cylinders(model)
    for psi, cylinder in zip(model.psis, cylinders):
        a_psi = reference_image_cylinder(psi, table.images, table.partition)
        vals = reference_value_vector(table, cylinder)
        V -= {x for x, v in enumerate(vals, start=1) if (x in a_psi) != v}
        a_sets.append(a_psi)
    for i in range(len(a_sets)):
        for j in range(i + 1, len(a_sets)):
            if not cylinders[i] & cylinders[j]:
                V -= a_sets[i] & a_sets[j]
    return frozenset(V)


def reference_verify_HA(cand, tol):
    return reference_pair_report(cand.member, projections(cand), tol)


def reference_pair_report(member, phi, tol):
    """The HAReport of sigma and any map phi, one partial permutation per
    universe element, from composed, inverted and compared maps."""
    model = member.model
    uni = model.universe
    d = member.sigma.degree
    images = model.context.align(member.sigma)
    sp = model.context.sigma_params(1, d)
    rep = verify_membership(SoficCandidate(d, images), sp)
    sigma_ok = (gap_below(rep.mult_gap, tol) and gap_below(rep.trace_gap, tol)
                and not any("unresolvable" in n for n in rep.notes))
    trace_gap, trace_wit = Fraction(0), ""
    for i in range(uni.p_count):
        gap = abs(pperm.trace(phi[i]) - mu_points(model, uni.elements[i]))
        if gap > trace_gap:
            trace_gap, trace_wit = gap, f"projection {i}"
    equi_gap, equi_wit = Fraction(0), ""
    translates = reference_translates(model)
    for letter, pos in enumerate(uni.letter_index):
        for bidx in range(len(model.ball)):
            translated = uni.index[translates[bidx, letter]]
            gap = pperm.uniform_distance(phi[translated],
                                         push_forward(images[bidx], phi[pos]))
            if gap > equi_gap:
                equi_gap, equi_wit = gap, f"letter {letter}, ball {bidx}"
    mult_gap, mult_wit = Fraction(0), ""
    for (i, j, k) in uni.triples:
        gap = pperm.uniform_distance(phi[k],
                                     pperm.compose(phi[i], phi[j]))
        if gap > mult_gap:
            mult_gap, mult_wit = gap, f"pair ({i}, {j})"
    unit_gap = pperm.uniform_distance(phi[uni.x_index],
                                      PartialPermutation.identity(d))
    member = (sigma_ok and gap_below(trace_gap, tol) and gap_below(equi_gap, tol)
              and gap_below(mult_gap, tol) and gap_below(unit_gap, tol))
    return HAReport(member, trace_gap, trace_wit, equi_gap, equi_wit,
                    mult_gap, mult_wit, unit_gap, sigma_ok, float(tol))


ALPHABETS = {"fair": FAIR, "thirds": (Fraction(1, 3), Fraction(2, 3)),
             "one": (Fraction(1),)}
DELTAS = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))


@lru_cache(maxsize=None)
def context(source):
    if source == "r2":
        g = transitive_groupoid(2)
        swap = PartialBisection(g, frozenset(a for a in range(4)
                                             if g.source[a] != g.range_[a]))
        F = [swap]
    elif source == "r2-corner":  # a unit projection makes the ball partial
        g = transitive_groupoid(2)
        swap = PartialBisection(g, frozenset(a for a in range(4)
                                             if g.source[a] != g.range_[a]))
        F = [swap, projection_bisection(g, {0})]
    elif source == "r3-pairs":  # three overlapping unit projections
        g = transitive_groupoid(3)
        F = [projection_bisection(g, s) for s in ({0, 1}, {1, 2}, {0, 2})]
    elif source == "r3-two":  # two of them; their meet is the last projection
        g = transitive_groupoid(3)
        F = [projection_bisection(g, s) for s in ({0, 1}, {1, 2})]
    elif source == "r4-pairs":  # the same three on four units, then unit 0,
        g = transitive_groupoid(4)  # whose expansion has halves
        F = [projection_bisection(g, s) for s in ({0, 1}, {1, 2}, {0, 2}, {0})]
    else:  # zmod(2), with the generating set `verify --source zmod(2)` uses
        g = cyclic_groupoid(2)
        F = full_group_generators(g)
    return LemmaContext(g, F, 1)


@lru_cache(maxsize=None)
def model_basis(source, alphabet):
    model = CylinderModel(context(source), ALPHABETS[alphabet])
    return model, span_basis(model)


@lru_cache(maxsize=None)
def sampled_members(source, delta, d):
    members = list(iter_SA_members(context(source).hypothesis_params(delta, d)))
    return tuple(members[::max(1, len(members) // 3)])


def random_sigma(ctx, d, rng):
    n = len(ctx.hypothesis_source.ball_elements)
    return SoficCandidate(d, [random_pperm(d, rng) for _ in range(n)])


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("alphabet", list(ALPHABETS))
@pytest.mark.parametrize("delta", DELTAS, ids=["1over10", "1over3", "1over2"])
def test_integer_sweeps_match_fraction_sweeps_on_members(source, alphabet, delta):
    model, basis = model_basis(source, alphabet)
    checked = 0
    for d in (3, 4):
        for m in sampled_members(source, delta, d):
            for seed in (0, 1):
                part = random_partition(d, model.alphabet, seed)
                table = Phi0Table(basis, ModelMember(model, m), part)
                rep = build_phi0(table, delta)
                assert rep == reference_build_phi0(m, part, basis, delta)
                c3 = verify_lemma_c3_sweep(table, delta)
                norms = reference_c3_norms(table)
                assert c3.worst == max(norms)
                assert c3.witness == f"psi={model.psis[norms.index(max(norms))]}"
                res = build_phi(table, delta)
                assert res.V == reference_V(table)
                assert res.report == reference_verify_HA(res.candidate, res.tolerance)
                checked += 1
    assert checked


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("alphabet", ["fair", "thirds"])
def test_c2_and_c3_read_the_table_like_per_psi_loops(source, alphabet):
    # members and random sigma at d = 2 and 4, several partitions each:
    # the shared table's A_psi give the reports of the per-psi loops
    model, basis = model_basis(source, alphabet)
    delta = Fraction(1, 3)
    worst2 = worst3 = Fraction(0)
    for d in (2, 4):
        rng = SplitMix64(200 + d)
        sigmas = [*sampled_members(source, delta, d),
                  *(random_sigma(model.context, d, rng) for _ in range(4))]
        for sigma in sigmas:
            for seed in range(3):
                table = Phi0Table(basis, ModelMember(model, sigma),
                                  random_partition(d, model.alphabet, seed))
                c2 = verify_lemma_c2(table, delta)
                c3 = verify_lemma_c3_sweep(table, delta)
                assert c2 == reference_c2(table, delta)
                assert c3 == reference_c3_sweep(table, delta)
                worst2, worst3 = max(worst2, c2.worst), max(worst3, c3.worst)
    assert worst2 > 0 and worst3 > 0


@pytest.mark.parametrize("source,alphabet,ties", [("r2-corner", "fair", True),
                                                  ("r2-corner", "thirds", True),
                                                  ("r3-pairs", "one", True),
                                                  ("r3-two", "one", False),
                                                  ("r4-pairs", "one", False)])
def test_build_phi0_matches_on_nonzero_tied_product_gaps(source, alphabet, ties):
    # random sigma over a ball of partial bisections: phi0 takes values
    # off 0/1 and products miss meets.  On the first three models the
    # largest gap is often shared; on r3-two it sits alone on the last
    # projection against itself.  On r4-pairs, phi0 has denominator 2.
    model, basis = model_basis(source, alphabet)
    nonzero = tied = 0
    for seed in range(16):
        rng = SplitMix64(seed)
        d = 3 + seed % 2
        sigma = random_sigma(model.context, d, rng)
        part = random_partition(d, model.alphabet, seed)
        want = reference_build_phi0(sigma, part, basis, DELTAS[0])
        for delta in DELTAS:
            rep = build_phi0(Phi0Table(basis, ModelMember(model, sigma), part), delta)
            assert rep == replace(want, delta0_sq=delta0_squared(basis, delta))
        gaps = reference_mult_gaps(Phi0Table(basis, ModelMember(model, sigma), part))
        worst = max(gaps.values())
        nonzero += worst > 0
        tied += worst > 0 and sum(g == worst for (i, j), g in gaps.items()
                                  if i <= j) > 1
    assert nonzero and (tied or not ties)


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("alphabet", list(ALPHABETS))
def test_verify_HA_matches_on_random_pairs(source, alphabet):
    # random projections over the universe: every scan has nonzero, often
    # tied gaps, and sigma passes or fails its own check.  A projection is
    # idempotent, so with one letter, whose universe holds only the triple
    # (0, 0, 0), the product gap is 0 for every projection-valued phi.
    model, _ = model_basis(source, alphabet)
    ctx = model.context
    gaps = set()
    for seed in range(6):
        rng = SplitMix64(100 + seed)
        d = 3 + seed % 2
        cand = HACandidate(ModelMember(model, random_sigma(ctx, d, rng)),
                           random_projection_phi(len(model.universe), d, rng)[0])
        for delta in (*DELTAS, SqrtTol(Fraction(1, 5))):
            rep = verify_HA(cand, delta)
            assert rep == reference_verify_HA(cand, delta)
            gaps.add((rep.equivariance_gap, rep.mult_gap))
    assert any(e > 0 for e, _ in gaps)
    assert any(m > 0 for _, m in gaps) or model.universe.triples == ((0, 0, 0),)


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("alphabet", list(ALPHABETS))
def test_point_sweep_oracle_matches_object_oracle_on_arbitrary_maps(source, alphabet):
    # random partial maps phi, neither projections nor orthogonal: the
    # point-by-point gaps that ha_statistic's brute force reads are the
    # four gaps of the object-level report
    model, _ = model_basis(source, alphabet)
    gaps = set()
    for seed in range(6):
        rng = SplitMix64(100 + seed)
        d = 3 + seed % 2
        member = ModelMember(model, random_sigma(model.context, d, rng))
        phi = [random_pperm(d, rng) for _ in model.universe.elements]
        rep = reference_pair_report(member, phi, Fraction(1, 10))
        got = pair_gaps(member, phi)
        assert got == (rep.trace_gap, rep.equivariance_gap, rep.mult_gap, rep.unit_gap)
        gaps.add(got)
    assert all(any(g[n] > 0 for g in gaps) for n in range(4))


def test_each_subset_evaluated_once_per_table(monkeypatch, r2):
    _, _, ctx, model, basis = r2
    delta = Fraction(1, 3)
    sigma = next(iter_SA_members(ctx.hypothesis_params(delta, 4)))
    part = random_partition(4, FAIR, 5)
    calls = Counter()
    row = SpanBasis.row

    def counted(self, subset):
        calls[frozenset(subset)] += 1
        return row(self, subset)

    monkeypatch.setattr(SpanBasis, "row", counted)
    table = Phi0Table(basis, ModelMember(model, sigma), part)
    verify_lemma_c2(table, delta)
    verify_lemma_c3_sweep(table, delta)
    build_phi0(table, delta)
    build_phi(table, delta)
    assert len(table.residuals) == len(model.psis)
    for subset in model.universe.elements:
        table.numerators(subset)
    assert calls and max(calls.values()) == 1


def test_residuals_are_computed_once_per_table(r2):
    # c3 computes the residuals and build_phi reads the same tuple; each
    # is 1_{A_psi} - phi0(cyl psi) over {1..d}
    _, _, ctx, model, basis = r2
    delta = Fraction(1, 3)
    nonzero = 0
    for sigma in list(iter_SA_members(ctx.hypothesis_params(delta, 4)))[::50]:
        table = Phi0Table(basis, ModelMember(model, sigma),
                          random_partition(4, FAIR, 5))
        verify_lemma_c3_sweep(table, delta)
        first = vars(table)["residuals"]
        build_phi(table, delta)
        assert table.residuals is first and len(first) == len(model.psis)
        for res, cylinder, a_psi in zip(first, reference_cylinders(model), table.a_psis):
            phi0 = reference_value_vector(table, cylinder)
            assert [Fraction(r, basis.den) for r in res] == [
                (x in a_psi) - v for x, v in enumerate(phi0, start=1)]
            nonzero += any(res)
    assert nonzero


# -- the mask sweeps against the object-level oracles ----------------------------
#
# On the benchmark's two models at d = 2 and 4: the build_phi candidates of
# sampled members, and random projections (overlapping, so corrected sums
# cut), each against a member and a random sigma.  At delta = 1/300 the
# 146 delta bound is below 1/2, so pairs fail.


def assert_sum_check_matches(cand, delta):
    check = approx_sum_check(cand, delta)
    uni = cand.member.model.universe
    assert len(check.counts) == len(uni.sum_pairs)
    refs = []
    for count, (i, j, _) in zip(check.counts, uni.sum_pairs):
        p1, p2 = uni.elements[i], uni.elements[j]
        ref = reference_approx_sum_check(cand, delta, p1, p2)
        gap = Fraction(count, check.degree)
        assert (gap, check.bound, gap < check.bound,
                f"|p1|={len(p1)}, |p2|={len(p2)}") == ref
        refs.append(ref)
    assert check.worst_gap == max(ref[0] for ref in refs)
    assert check.passed == all(ref[2] for ref in refs)
    return check


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("d", [2, 4])
def test_tuple_sweeps_match_object_oracles(source, d):
    model, basis = model_basis(source, "fair")
    ctx = model.context
    uni = model.universe
    assert [(uni.elements[i], uni.elements[j]) for i, j, _ in uni.sum_pairs] \
        == reference_disjoint_pairs(uni)
    delta = Fraction(1, 10)
    members = sampled_members(source, delta, d)
    rng = SplitMix64(300 + d)
    cands = []
    for m in members:
        member = ModelMember(model, m)
        for seed in range(3):
            res = build_phi(Phi0Table(basis, member, random_partition(d, FAIR, seed)),
                            delta)
            assert res.report == reference_verify_HA(res.candidate, res.tolerance)
            cands.append((res.candidate, res.tolerance))
    for sigma in (members[0], random_sigma(ctx, d, rng)):
        for _ in range(4):
            cands.append((HACandidate(ModelMember(model, sigma),
                                      random_projection_phi(len(uni), d, rng)[0]),
                          delta))
    gaps = set()
    verdicts = set()
    for cand, tol in cands:
        for t in (tol, delta):
            assert verify_HA(cand, t) == reference_verify_HA(cand, t)
        for lin_delta in (delta, Fraction(1, 300)):
            check = assert_sum_check_matches(cand, lin_delta)
            gaps |= set(check.counts)
            verdicts.add(check.passed)
    assert max(gaps) > 0 and verdicts == {True, False}


# -- every table report against its Fraction reference -----------------------------
#
# The sweeps decide on integers over one denominator per sweep: point
# weights over M (3 and 6 with the uneven alphabets, 6 and 18 on the
# uneven groupoid), phi0 values over D, residual norms over L^2 d (D and
# L are 2 on r4-pairs).  The reports must be the Fraction references'
# field for field, first witness included.  build_phi0 and the ha pair
# are checked where the references' all-pairs loops stay small.

ORACLE_GROUPOIDS = {"r2": lambda: transitive_groupoid(2),
                    "r3": lambda: transitive_groupoid(3),
                    "zmod2": lambda: cyclic_groupoid(2),
                    "zmod3": lambda: cyclic_groupoid(3),
                    "uneven": uneven_groupoid}
SIXTHS = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))


@lru_cache(maxsize=None)
def oracle_model(source, alphabet):
    """The model over the full group generators of a groupoid of
    ``ORACLE_GROUPOIDS``, or else ``model_basis``'s."""
    if source not in ORACLE_GROUPOIDS:
        return model_basis(source, alphabet)
    g = ORACLE_GROUPOIDS[source]()
    model = CylinderModel(LemmaContext(g, full_group_generators(g), 1),
                          SIXTHS if alphabet == "sixths" else ALPHABETS[alphabet])
    return model, span_basis(model)


@pytest.mark.parametrize("source,alphabet", [
    ("r2", "one"), ("r2", "thirds"), ("r2", "sixths"), ("zmod2", "thirds"),
    ("zmod2", "sixths"), ("zmod3", "one"), ("zmod3", "thirds"), ("r3", "one"),
    ("uneven", "one"), ("uneven", "thirds"), ("r4-pairs", "one")])
def test_table_reports_equal_their_fraction_references(source, alphabet):
    model, basis = oracle_model(source, alphabet)
    projections = len(model.distinct_projections)
    delta = Fraction(1, 10)
    rng = SplitMix64(60 + len(alphabet))
    nonzero = set()
    for d in range(2, 7):
        for seed in range(2):
            sigma = random_sigma(model.context, d, rng)
            part = random_partition(d, model.alphabet, 10 * d + seed)
            table = Phi0Table(basis, ModelMember(model, sigma), part)
            c2 = verify_lemma_c2(table, delta)
            assert c2 == reference_c2(table, delta)
            assert verify_lemma_c3_sweep(table, delta) == reference_c3_sweep(table, delta)
            nonzero.add(c2.worst > 0)
            if projections <= 16 or seed == 0:
                rep = build_phi0(table, delta)
                assert rep == reference_build_phi0(sigma, part, basis, delta)
                nonzero.add(rep.mult_gap_sq > 0)
            if projections <= 9:  # a universe of at most 15 elements
                cand = HACandidate(table.member,
                                   random_projection_phi(len(model.universe), d, rng)[0])
                for tol in (delta, SqrtTol(Fraction(1, 5))):
                    assert verify_HA(cand, tol) == reference_verify_HA(cand, tol)
    assert True in nonzero


def test_first_of_tied_gaps_names_the_witness(r2):
    # constructed ties on r2 with the fair alphabet at d = 2.  With sigma
    # the identity and the blocks {1} and {2}, A_psi of a psi with two
    # letters is {1}, {2} or empty, so each of the four such psi has the
    # c2 gap |1/4 - 1/2| or |1/4 - 0|.  phi the identity on every
    # projection gives the trace gap 1 - mu(p), 3/4 on the four
    # projections of measure 1/4.  Each report names the first.
    _, _, ctx, model, basis = r2
    delta = Fraction(1, 10)
    sigma = SoficCandidate(2, [PartialPermutation.identity(2)]
                           * len(ctx.hypothesis_source.ball_elements))
    table = Phi0Table(basis, ModelMember(model, sigma),
                      exact_partition([{1}, {2}]))
    gaps = [abs(mu_cylinder(model, psi) - Fraction(len(a), 2))
            for psi, a in zip(model.psis, table.a_psis)]
    assert gaps.count(max(gaps)) > 1
    c2 = verify_lemma_c2(table, delta)
    assert c2 == reference_c2(table, delta)
    assert (c2.worst, c2.witness) == (max(gaps), f"psi={model.psis[gaps.index(max(gaps))]}")

    uni = model.universe
    cand = HACandidate(table.member, [points_mask({1, 2})] * len(uni))
    gaps = [1 - mu_points(model, p) for p in uni.elements[:uni.p_count]]
    assert gaps.count(max(gaps)) > 1
    rep = verify_HA(cand, delta)
    assert rep == reference_verify_HA(cand, delta)
    assert (rep.trace_gap, rep.trace_witness) == (
        max(gaps), f"projection {gaps.index(max(gaps))}")


# -- the mask sweeps on chosen supports ----------------------------------------
#
# Supports that meet the edge cases of the bit rules: empty, full, equal to,
# inside or around an earlier one.

SUPPORT_KINDS = ("empty", "full", "equal", "nested", "random")


def random_projection_phi(n, d, rng):
    """n support bitmasks of projections of degree d and the kind of
    each support: empty, full, equal to an earlier one, inside or around
    an earlier one, or random."""
    supports, kinds = [], []
    every = frozenset(range(1, d + 1))
    for _ in range(n):
        kind = SUPPORT_KINDS[rng.below(len(SUPPORT_KINDS))] if supports else "random"
        earlier = supports[rng.below(len(supports))] if supports else every
        drawn = frozenset(x for x in every if rng.below(2))
        support = {"empty": frozenset(), "full": every, "equal": earlier,
                   "nested": earlier & drawn if rng.below(2) else earlier | drawn,
                   "random": drawn}[kind]
        supports.append(support)
        kinds.append(kind)
    return [points_mask(s) for s in supports], kinds


@pytest.mark.parametrize("source", ["r2", "zmod2"])
@pytest.mark.parametrize("d", range(1, 7))
def test_mask_sweeps_match_object_oracles_on_projections(source, d):
    model, _ = model_basis(source, "fair")
    uni = model.universe
    rng = SplitMix64(500 + d)
    kinds, mult, lin = set(), set(), set()
    for _ in range(8):
        phi, drawn = random_projection_phi(len(uni), d, rng)
        kinds |= set(drawn)
        cand = HACandidate(ModelMember(model, random_sigma(model.context, d, rng)), phi)
        for tol in (Fraction(1, 10), SqrtTol(Fraction(1, 5))):
            rep = verify_HA(cand, tol)
            assert rep == reference_verify_HA(cand, tol)
            mult.add(rep.mult_gap)
        for delta in (Fraction(1, 10), Fraction(1, 300)):
            lin |= set(assert_sum_check_matches(cand, delta).counts)
    assert kinds == set(SUPPORT_KINDS)
    assert max(mult) > 0 and max(lin) > 0


def test_mask_sweep_names_the_first_of_tied_product_gaps(r2):
    # phi full on every element but the first, which is empty: every
    # triple that reads the empty value exactly once misses all d points
    _, _, ctx, model, _ = r2
    uni = model.universe
    d = 3
    sigma = SoficCandidate(d, [PartialPermutation.identity(d)]
                           * len(ctx.hypothesis_source.ball_elements))
    phi = [PartialPermutation.empty(d)] + [PartialPermutation.identity(d)] * (len(uni) - 1)
    cand = HACandidate(ModelMember(model, sigma),
                       [points_mask(range(1, d + 1)) if p.nfix else 0 for p in phi])
    gaps = [pperm.uniform_distance(phi[k], pperm.compose(phi[i], phi[j]))
            for i, j, k in uni.triples]
    assert max(gaps) == 1 and gaps.count(1) > 1 and gaps[0] < 1
    rep = verify_HA(cand, Fraction(1, 10))
    assert rep == reference_verify_HA(cand, Fraction(1, 10))
    assert (rep.mult_gap, rep.mult_witness) == (1, f"pair {uni.triples[gaps.index(1)][:2]}")


def test_build_phi_builds_one_projection_per_distinct_numerator_tuple(monkeypatch, r2):
    # build_phi keeps supports: it constructs no PartialPermutation, and
    # subsets with equal phi0 numerators get equal supports
    _, _, ctx, model, basis = r2
    delta = Fraction(1, 3)
    sigma = next(iter_SA_members(ctx.hypothesis_params(delta, 4)))
    table = Phi0Table(basis, ModelMember(model, sigma), random_partition(4, FAIR, 5))
    built = []
    init = PartialPermutation.__init__
    monkeypatch.setattr(PartialPermutation, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    supports = build_phi(table, delta).candidate.supports
    assert built == []
    tuples = [table.numerators(s)[1] for s in model.universe.elements]
    assert len(set(tuples)) < len(tuples)
    assert all(m == supports[tuples.index(t)] for t, m in zip(tuples, supports))
