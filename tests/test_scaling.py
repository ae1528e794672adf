from fractions import Fraction
from itertools import product

import pytest

from soficdim import pperm
from soficdim.cli import binding_degree
from soficdim.groupoid import (
    PartialBisection,
    b_compose,
    b_inverse,
    cyclic_groupoid,
    full_identity,
    transitive_groupoid,
)
from soficdim.pperm import PartialPermutation
from soficdim.rng import SplitMix64
from soficdim.scaling import (
    EXPAND_N,
    CornerDataError,
    expand_sigma,
    expansion_delta,
    make_corner_data,
    restrict_sigma,
    scaling_value,
    scaling_value_inverse,
    standard_corner,
)
from soficdim.sofic import GroupoidSource, SAParams, SoficCandidate, verify_membership

from references import block_candidate, conjugate


def r2_corner():
    g = transitive_groupoid(2)
    return standard_corner(g, [0])


def corner_projection_candidate(cd, d, missing=()):
    """Trivial-corner candidate: every nonempty ball element maps to the
    projection keeping all points except ``missing``."""
    src = GroupoidSource(cd.corner, cd.F_corner, 25)
    keep = sorted(set(range(1, d + 1)) - set(missing))
    images = [PartialPermutation.projection(d, keep) if b.arrows
              else PartialPermutation.empty(d) for b in src.ball_elements]
    return SoficCandidate(d, images), src


CORNERS = {
    "r2-p0": lambda: standard_corner(transitive_groupoid(2), [0]),
    "r3-p0": lambda: standard_corner(transitive_groupoid(3), [0]),
    "r4-p01": lambda: standard_corner(transitive_groupoid(4), [0, 1]),
    "r2-k0": lambda: make_corner_data(transitive_groupoid(2), [0, 1], []),
}


class TestCornerData:
    def test_r2_standard(self):
        cd = r2_corner()
        assert (cd.N, cd.k, cd.h_p) == (2, 1, Fraction(1, 2))
        assert cd.corner.n_units == 1

    def test_r4_half_corner(self):
        g = transitive_groupoid(4)
        cd = standard_corner(g, [0, 1])
        assert (cd.N, cd.k, cd.h_p) == (4, 2, Fraction(1, 2))

    def test_full_projection_degenerate(self):
        g = transitive_groupoid(2)
        cd = make_corner_data(g, [0, 1], [])
        assert cd.k == 0 and cd.h_p == 1

    @pytest.mark.parametrize("make", CORNERS.values(), ids=CORNERS)
    def test_generating_sets_hold_what_the_steps_read(self, make):
        # expand reads the corner identity and each mover domain in the
        # corner ball, restrict reads p in the ambient ball
        cd = make()
        assert cd.F_corner[0] == full_identity(cd.corner)
        assert all(p in cd.F_corner for p in cd.dom_projections)
        assert len(cd.dom_projections) == cd.k
        assert len(set(cd.F_corner)) == len(cd.F_corner)
        embedded = tuple(cd.embedding.embed_bisection(f) for f in cd.F_corner)
        assert cd.F_ambient == embedded + cd.S
        assert cd.p_ambient() in cd.F_ambient
        assert cd.p_ambient() in cd.ambient_source.position
        assert cd.F_corner is cd.F_corner and cd.F_ambient is cd.F_ambient

    def test_sources_are_built_once_over_the_datum_sets(self, monkeypatch):
        cd = r2_corner()
        builds = []
        init = GroupoidSource.__init__

        def counted(self, g, F, n):
            builds.append((g, tuple(F), n))
            init(self, g, F, n)

        monkeypatch.setattr(GroupoidSource, "__init__", counted)
        first, again = ((cd.corner_source, cd.ambient_source, cd.expansion_source)
                        for _ in range(2))
        assert all(a is b for a, b in zip(first, again))
        assert builds == [(cd.corner, cd.F_corner, 1), (cd.ambient, cd.F_ambient, EXPAND_N),
                          (cd.corner, cd.F_corner, 4 * EXPAND_N + 5)]
        assert cd.expansion_plan is cd.expansion_plan and len(builds) == 3

    def test_bad_movers_rejected(self):
        g = transitive_groupoid(2)
        swap = PartialBisection(g, frozenset(a for a in range(4)
                                             if g.source[a] != g.range_[a]))
        with pytest.raises(CornerDataError):
            make_corner_data(g, [0], [swap])  # range meets the projection


class TestExpand:
    def test_degenerate_corner_is_identity(self):
        g = transitive_groupoid(2)
        cd = make_corner_data(g, [0, 1], [])
        src = GroupoidSource(cd.corner, cd.F_corner, 25)
        d = 6
        images = [PartialPermutation.projection(d, range(1, d + 1)) if b.arrows
                  else PartialPermutation.empty(d) for b in src.ball_elements]
        sigma = SoficCandidate(d, images)
        res = expand_sigma(sigma, cd, delta=Fraction(1, 10), seed=0)
        assert res.params.d == d
        assert res.report.is_member
        # with p = 1 the dilation changes nothing
        amb_ident = full_identity(cd.ambient)
        pos = {b: i for i, b in enumerate(res.params.source.ball_elements)}
        assert res.candidate.images[pos[amb_ident]] == PartialPermutation.identity(d)

    def test_r2_expansion_verifies(self):
        cd = r2_corner()
        d = 12
        sigma, _ = corner_projection_candidate(cd, d, missing=(5,))
        res = expand_sigma(sigma, cd, delta=Fraction(1, 10), seed=0)
        assert res.params.d == 2 * d
        assert res.report.is_member
        assert res.report.mult_gap < res.params.delta
        # blocks tile 1..d'
        flat = [x for b in res.blocks for x in b]
        assert sorted(flat) == list(range(1, res.params.d + 1))

    def test_divisibility_enforced(self):
        g = transitive_groupoid(3)
        cd = standard_corner(g, [0])
        src = GroupoidSource(cd.corner, cd.F_corner, 25)
        images = [PartialPermutation.identity(5) for _ in src.ball_elements]
        sigma = SoficCandidate(5, images)
        # N - k = 1 divides everything; shrink the corner to force failure
        cd2 = standard_corner(transitive_groupoid(4), [0, 1])
        src2 = GroupoidSource(cd2.corner, cd2.F_corner, 25)
        imgs = [PartialPermutation.identity(5) if b.arrows
                else PartialPermutation.empty(5) for b in src2.ball_elements]
        with pytest.raises(ValueError):
            expand_sigma(SoficCandidate(5, imgs), cd2, Fraction(1, 10), 0)

    def test_distinct_gammas_give_distinct_candidates(self):
        cd = r2_corner()
        d = 8
        sigma, _ = corner_projection_candidate(cd, d)
        one, other = (expand_sigma(sigma, cd, delta=Fraction(1, 10), seed=seed)
                      for seed in (0, 12))
        assert one.gammas != other.gammas
        assert one.candidate.images != other.candidate.images

    @pytest.mark.parametrize("corner", ["r2-p0", "r3-p0"])
    def test_seeds_change_the_candidate_but_not_the_outcome(self, corner):
        # the seed only orders the targets of the new blocks, so the two
        # expansions are conjugate by a permutation fixing A_0 = {1..d},
        # which no report and no restriction can see
        cd = CORNERS[corner]()
        d, delta = 8, Fraction(1, 4)
        sigma, _ = corner_projection_candidate(cd, d, missing=(5,))
        one, other = (expand_sigma(sigma, cd, delta=delta, seed=seed)
                      for seed in (0, 12))
        assert one.candidate.images != other.candidate.images
        # pi is the identity on A_0 and sends gamma_i(x) under seed 0 to
        # gamma_i(x) under seed 12 on each new block A_i
        d_prime = one.params.d
        pi = list(range(1, d_prime + 1))
        for a, b in zip(one.gammas[1:], other.gammas[1:]):
            for x, y in enumerate(a.images, start=1):
                if y:
                    pi[y - 1] = b.images[x - 1]
        pi = PartialPermutation(d_prime, pi)
        assert sorted(pi.images) == list(range(1, d_prime + 1))
        assert pi.images[:d] == tuple(range(1, d + 1))
        assert [conjugate(s, pi) for s in one.candidate.images] == list(
            other.candidate.images)
        assert one.report == other.report
        back, back_other = (restrict_sigma(res.candidate, cd, delta=delta)
                            for res in (one, other))
        assert back.candidate == back_other.candidate
        assert back.report == back_other.report

    def test_well_defined_on_all_factorizations(self):
        # two corner elements gluing to the same ambient element must get
        # the same dilated image (after sandwiching by the mover domains);
        # the half corner of the 4-point relation has genuine collisions
        g4 = transitive_groupoid(4)
        cd = standard_corner(g4, [0, 1])
        src = cd.expansion_source
        d = 6
        sigma = block_candidate(src, d)
        res = expand_sigma(sigma, cd, delta=Fraction(1, 4), seed=0)
        assert res.report.is_member
        movers = [cd.p_ambient()] + list(cd.S)
        doms = [full_identity(cd.corner), *cd.dom_projections]
        pos = {b: i for i, b in enumerate(src.ball_elements)}
        d_prime = res.params.d
        collisions = 0
        for i, si in enumerate(movers):
            for j, sj in enumerate(movers):
                glued = {}
                for f in src.ball_elements:
                    sandwiched = b_compose(b_compose(doms[i], f), doms[j])
                    f_amb = cd.embedding.embed_bisection(f)
                    glue = b_compose(b_compose(si, f_amb), b_inverse(sj))
                    inner = sigma.images[pos[sandwiched]].images + (0,) * (d_prime - d)
                    img = pperm.compose(
                        res.gammas[i],
                        pperm.compose(
                            PartialPermutation(d_prime, inner),
                            pperm.inverse(res.gammas[j])))
                    if glue in glued:
                        collisions += 1
                        assert glued[glue] == img, (i, j, f)
                    glued[glue] = img
        assert collisions > 0

    @pytest.mark.parametrize("corner", ["r2-p0", "r3-p0", "r4-p01"])
    def test_glued_images_are_orthogonal_sums_of_their_pieces(self, corner):
        # each ambient image is the orthogonal sum, over the plan's pieces
        # (i, j, f), of gamma_i sigma(f) gamma_j^-1 built as partial
        # permutations; sigma drops point 2 from every image at seed 5
        cd = CORNERS[corner]()
        src = cd.expansion_source
        for d, seed in product((6, 10), (0, 5)):
            sigma = block_candidate(src, d)
            if seed:
                cut = PartialPermutation.projection(d, set(range(1, d + 1)) - {2})
                sigma = SoficCandidate(d, [pperm.compose(cut, pperm.compose(s, cut))
                                           for s in sigma.images])
            res = expand_sigma(sigma, cd, delta=Fraction(1, 2), seed=seed)
            d_prime = res.params.d
            inverses = [pperm.inverse(gamma) for gamma in res.gammas]
            plan = cd.expansion_plan
            assert len(plan) == len(res.candidate.images)
            for pieces, image in zip(plan, res.candidate.images):
                parts = [pperm.compose(res.gammas[i], pperm.compose(PartialPermutation(
                    d_prime, sigma.images[pos].images + (0,) * (d_prime - d)), inverses[j]))
                    for i, j, _, pos in pieces]
                assert image == pperm.orthogonal_sum(parts, d_prime), (d, seed)

    def test_expansion_delta_formula(self):
        cd = r2_corner()
        size = len(cd.F_ambient)
        n = EXPAND_N
        expected = (5 * 4 + 150 * 4 * (2 * size + 1) ** (2 * (2 * n + 5))) \
            * Fraction(1, 10)
        assert expansion_delta(cd, Fraction(1, 10)) == expected


class TestRestrict:
    def test_exact_block_candidate_restricts_exactly(self):
        cd = r2_corner()
        src = GroupoidSource(cd.ambient, cd.F_ambient, 5)
        d = 10
        sigma = block_candidate(src, d)
        rr = restrict_sigma(sigma, cd, delta=Fraction(1, 4))
        assert rr.report.is_member
        assert rr.report.mult_gap == 0 and rr.report.trace_gap == 0
        assert rr.params.d == 5

    def test_largeness_condition(self):
        cd = r2_corner()
        src = GroupoidSource(cd.ambient, cd.F_ambient, 5)
        sigma = block_candidate(src, 4)
        with pytest.raises(ValueError):
            restrict_sigma(sigma, cd, delta=Fraction(1, 10))

    def test_round_trip_recovers_near_exact_input(self):
        cd = r2_corner()
        d = 20
        delta = Fraction(1, 10)
        sigma, src = corner_projection_candidate(cd, d, missing=(3,))
        res = expand_sigma(sigma, cd, delta=delta, seed=0)
        assert res.report.is_member
        rr = restrict_sigma(res.candidate, cd, delta=delta)
        assert rr.report.is_member
        assert rr.params.delta == 20 * delta / cd.h_p
        pos0 = {b: i for i, b in enumerate(src.ball_elements)}
        small = GroupoidSource(cd.corner, cd.F_corner, 1)
        worst = max(pperm.uniform_distance(sigma.images[pos0[b]],
                                           rr.candidate.images[i])
                    for i, b in enumerate(small.ball_elements))
        assert worst <= 3 * rr.params.delta
        # |sigma'(p) - p_B|, with B the fixed points of the image of p
        # brought to d' = h(p) d points as restrict_sigma's docstring states
        sig_p = res.candidate.images[cd.ambient_source.position[cd.p_ambient()]]
        fixed = [x for x, y in enumerate(sig_p.images, start=1) if x == y]
        absent = [x for x in range(1, sig_p.degree + 1) if x not in fixed]
        B = (fixed + absent)[:rr.params.d] if len(fixed) < rr.params.d \
            else fixed[len(fixed) - rr.params.d:]
        p_b = PartialPermutation.projection(sig_p.degree, B)
        assert pperm.uniform_distance(sig_p, p_b) < 3 * delta

    def test_round_trips_share_their_sources(self, monkeypatch):
        cd = r2_corner()
        delta = Fraction(1, 10)
        sigma, src = corner_projection_candidate(cd, 20, missing=(3,))
        builds = []
        init = GroupoidSource.__init__

        def counted(self, g, F, n, *args, **kwargs):
            builds.append((g is cd.ambient, n))
            init(self, g, F, n, *args, **kwargs)

        monkeypatch.setattr(GroupoidSource, "__init__", counted)
        results = []
        for seed in range(3):
            res = expand_sigma(sigma, cd, delta=delta, seed=seed)
            rr = restrict_sigma(res.candidate, cd, delta=delta)
            results.append((res.report, rr.report, rr.candidate))
        # corner at 4n+5 = 25, ambient at 5 (both steps), corner at 1
        assert sorted(builds) == [(False, 1), (False, 25), (True, 5)]
        assert cd.expansion_source.ball_elements == src.ball_elements
        for seed, want in enumerate(results):  # each on a datum of its own
            fresh = r2_corner()
            sigma, _ = corner_projection_candidate(fresh, 20, missing=(3,))
            res = expand_sigma(sigma, fresh, delta=delta, seed=seed)
            rr = restrict_sigma(res.candidate, fresh, delta=delta)
            assert (res.report, rr.report, rr.candidate) == want


class TestScalingValue:
    def test_examples(self):
        assert scaling_value(Fraction(0), Fraction(1, 2)) == Fraction(1, 2)
        assert scaling_value(Fraction(1, 2), 1) == Fraction(1, 2)
        # transitive relation on 4 points against its half corner
        s_r4 = Fraction(3, 4)
        assert scaling_value_inverse(s_r4, Fraction(1, 2)) == Fraction(1, 2)

    def test_round_trip_identity(self):
        rng = SplitMix64(5)
        for _ in range(50):
            s = Fraction(rng.below(100), 100)
            h = Fraction(rng.below(9) + 1, 10)
            assert scaling_value(scaling_value_inverse(s, h), h) == s

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            scaling_value(Fraction(1, 2), 0)

    def test_float_passthrough(self):
        assert scaling_value(0.0, Fraction(1, 2)) == 0.5


# the corners that verify --suite scaling reaches on the tabled sources
SUITE_GROUPOIDS = {"r2": lambda: transitive_groupoid(2), "r3": lambda: transitive_groupoid(3),
                   "r4": lambda: transitive_groupoid(4), "zmod2": lambda: cyclic_groupoid(2),
                   "zmod3": lambda: cyclic_groupoid(3)}


@pytest.mark.parametrize("d,delta", [(4, Fraction(1, 10)), (24, Fraction(1, 8)),
                                     (30, Fraction(1, 4))], ids=["d4", "d24", "d30"])
@pytest.mark.parametrize("source", list(SUITE_GROUPOIDS))
def test_round_trip_returns_the_suite_projection_candidates_exactly(source, d, delta):
    # run_scaling_suite's first instance at seeds 0-2, drawn as it draws
    # it: a seeded subset of {1..base} kept, every nonempty corner element
    # mapped to the projection onto it.  Restriction gives sigma back on the
    # radius-1 corner ball at the base degree, so the suite's round-trip
    # distance is 0; only a candidate other than a projection can make it bind.
    cd = standard_corner(SUITE_GROUPOIDS[source](), [0])
    src = cd.expansion_source
    base = binding_degree(cd, delta, d)
    for seed in range(3):
        rng = SplitMix64(seed).spawn(0)
        drop = rng.below(max(1, min(int(delta * base), base + 1)))
        keep = set(range(1, base + 1)) - {x + 1 for x in rng.choose_sorted(base, drop)}
        sigma = SoficCandidate(base, [PartialPermutation.projection(base, keep) if b.arrows
                                      else PartialPermutation.empty(base)
                                      for b in src.ball_elements])
        res = expand_sigma(sigma, cd, delta=delta, seed=seed)
        rr = restrict_sigma(res.candidate, cd, delta=delta)
        assert rr.params.d == base and rr.report.is_member, seed
        assert rr.candidate.images == tuple(
            sigma.images[src.position[b]] for b in rr.params.source.ball_elements), seed
