import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficdim import pperm
from soficdim.pperm import (
    OverlapError,
    PartialPermutation,
    compose,
    distances,
    inverse,
    iter_all,
    monoid_size,
    orthogonal_sum,
    parse_pperm,
    random_pperm,
    trace,
    two_norm_sq,
    uniform_distance,
)
from soficdim.rng import SplitMix64, mix64

from references import (conjugate, first_output_rejects, outputs_between, rejected_state,
                        state_with_output)


def P(text):
    return parse_pperm(text)


def dom_points(s):
    return [x for x in range(1, s.degree + 1) if s.images[x - 1]]


@st.composite
def pperms(draw, max_degree=12, degree=None):
    d = degree if degree is not None else draw(st.integers(2, max_degree))
    k = draw(st.integers(0, d))
    dom = sorted(draw(st.permutations(range(1, d + 1)))[:k])
    ran = draw(st.permutations(range(1, d + 1)))[:k]
    images = [0] * d
    for x, y in zip(dom, ran):
        images[x - 1] = y
    return PartialPermutation(d, images)


@st.composite
def pperm_pairs(draw, max_degree=12):
    d = draw(st.integers(2, max_degree))
    return draw(pperms(degree=d)), draw(pperms(degree=d))


def is_partial_injection(degree, images):
    """Reference predicate: a degree >= 1 and one image in 0..degree per
    point, no nonzero image twice."""
    if degree < 1 or len(images) != degree:
        return False
    seen = []
    for y in images:
        if not 0 <= y <= degree or (y and y in seen):
            return False
        if y:
            seen.append(y)
    return True


@st.composite
def raw_images(draw):
    d = draw(st.integers(0, 7))
    size = draw(st.sampled_from([d, d, d, max(d - 1, 0), d + 1]))
    return d, draw(st.lists(st.integers(-1, d + 1), min_size=size, max_size=size))


@st.composite
def near_pperm_images(draw):
    """A valid image tuple with at most one entry overwritten."""
    images = list(draw(pperms(max_degree=7)).images)
    d = len(images)
    if draw(st.booleans()):
        images[draw(st.integers(0, d - 1))] = draw(st.integers(-1, d + 1))
    return d, images


class TestBasics:
    def test_compose_example(self):
        s = P("2:[1->2]")
        t = P("2:[2->1]")
        assert compose(s, t) == P("2:[2->2]")

    def test_compose_identity(self):
        s = P("4:[1->3, 2->1]")
        assert compose(PartialPermutation.identity(4), s) == s
        assert compose(s, PartialPermutation.identity(4)) == s

    def test_compose_disjoint_supports_is_empty(self):
        s = P("2:[1->1]")
        t = P("2:[2->2]")
        assert compose(s, t) == PartialPermutation.empty(2)

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(P("2:[1->2]"), P("3:[1->2]"))

    def test_inverse(self):
        assert inverse(P("2:[1->2]")) == P("2:[2->1]")
        assert inverse(PartialPermutation.identity(3)) == PartialPermutation.identity(3)
        assert inverse(PartialPermutation.empty(3)) == PartialPermutation.empty(3)

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            PartialPermutation(3, (2, 2, 0))

    @pytest.mark.parametrize("degree,images,message", [
        (3, (1, 3, 1), "not injective"),
        (3, (0, 3, 3), "not injective"),
        (3, (1, 4, 0), "image 4 out of range"),
        (3, (1, -1, 0), "image -1 out of range"),
        (3, (1, 2), "length"),
        (0, (), "degree"),
    ])
    def test_public_constructor_still_validates(self, degree, images, message):
        with pytest.raises(ValueError, match=message):
            PartialPermutation(degree, images)

    def test_derived_maps_match_a_from_pairs_rebuild(self):
        rng = SplitMix64(3)
        for d in (1, 4, 9):
            maps = (list(iter_all(min(d, 3))) + [random_pperm(d, rng) for _ in range(20)]
                    + [pperm.random_permutation(d, rng) for _ in range(5)])
            for s in maps:
                n = s.degree
                low = compose(s, PartialPermutation.projection(n, range(1, n // 2 + 1)))
                high = PartialPermutation.from_pairs(
                    n, [(x, s(x)) for x in dom_points(s) if x > n // 2])
                for got in (s, inverse(s), compose(s, inverse(s)),
                            orthogonal_sum([low, high], n)):
                    want = PartialPermutation.from_pairs(
                        n, [(x, got(x)) for x in dom_points(got)])
                    assert got == want
                    assert (got.nfix, got.dom_size, hash(got)) == \
                        (want.nfix, want.dom_size, hash(want))
                assert orthogonal_sum([low, high], n) == s

    @settings(max_examples=400)
    @given(st.one_of(raw_images(), near_pperm_images()))
    def test_constructor_accepts_exactly_partial_injections(self, case):
        degree, images = case
        try:
            s = PartialPermutation(degree, images)
        except ValueError:
            assert not is_partial_injection(degree, images)
        else:
            assert is_partial_injection(degree, images)
            assert s.images == tuple(images)
            assert s.dom_size == sum(1 for y in images if y)
            assert s.nfix == sum(1 for x, y in enumerate(images, 1) if y == x)

    def test_trace(self):
        assert trace(PartialPermutation.identity(5)) == 1
        assert trace(P("2:[1->2, 2->1]")) == 0
        assert trace(PartialPermutation.projection(4, [1])) == Fraction(1, 4)

    def test_text_round_trip(self):
        for s in iter_all(3):
            assert parse_pperm(s.to_text()) == s


@pytest.mark.parametrize("d", range(1, 5))
def test_inverse_images_match_inverse(d):
    for s in iter_all(d):
        inv = pperm._inverse_images(s.images)
        assert inv == inverse(s).images
        # s^-1 undoes s on its domain and is undefined off its range
        assert all(inv[s(x) - 1] == x for x in dom_points(s))
        assert inv.count(0) == d - s.dom_size


class TestDistances:
    def test_equal_maps(self):
        s = P("4:[1->2, 3->3]")
        assert distances(s, s) == (0, 0)

    def test_swap_vs_identity(self):
        u, n2 = distances(P("2:[1->2, 2->1]"), PartialPermutation.identity(2))
        assert u == 1 and n2 == 2

    def test_projection_vs_identity(self):
        d, k = 5, 2
        p = PartialPermutation.projection(d, range(1, k + 1))
        u, n2 = distances(p, PartialPermutation.identity(d))
        assert u == Fraction(d - k, d)
        assert n2 == Fraction(d - k, d)

    @settings(max_examples=300)
    @given(pperm_pairs())
    def test_displayed_trace_identity(self, pair):
        s, t = pair
        lhs = uniform_distance(s, t)
        rhs = (trace(compose(inverse(s), s))
               + trace(compose(inverse(t), t))
               - trace(compose(compose(inverse(s), s), compose(inverse(t), t)))
               - trace(compose(s, inverse(t))))
        assert lhs == rhs

    @settings(max_examples=300)
    @given(pperm_pairs())
    def test_two_norm_dominates_uniform(self, pair):
        s, t = pair
        u, n2 = distances(s, t)
        assert n2 >= u
        # equality exactly when the maps agree wherever both are defined
        agree_on_common = all(a == b for a, b in zip(s.images, t.images) if a and b)
        assert (n2 == u) == agree_on_common

    @settings(max_examples=200)
    @given(st.integers(2, 8), st.integers(0, 2**31))
    def test_triangle_inequality(self, d, seed):
        rng = SplitMix64(seed)
        s, t, u = (random_pperm(d, rng) for _ in range(3))
        assert uniform_distance(s, u) <= uniform_distance(s, t) + uniform_distance(t, u)

    @settings(max_examples=200)
    @given(pperms())
    def test_trace_of_range_projection(self, s):
        assert trace(compose(s, inverse(s))) == Fraction(s.dom_size, s.degree)


class TestOrthogonalSum:
    def test_disjoint_pairs(self):
        s = P("4:[1->2]")
        t = P("4:[3->4]")
        assert orthogonal_sum([s, t], 4) == P("4:[1->2, 3->4]")

    def test_sum_with_empty(self):
        s = P("4:[1->2]")
        assert orthogonal_sum([s, PartialPermutation.empty(4)], 4) == s

    def test_domain_overlap_raises(self):
        with pytest.raises(OverlapError):
            orthogonal_sum([P("4:[1->2]"), P("4:[1->3]")], 4)

    def test_range_overlap_raises(self):
        with pytest.raises(OverlapError):
            orthogonal_sum([P("4:[1->2]"), P("4:[3->2]")], 4)

    @pytest.mark.parametrize("texts", [
        ("5:[1->2, 2->3]", "5:[3->1]", "5:[2->4]"),
        ("5:[1->2, 2->3]", "5:[3->1]", "5:[4->3]"),
    ], ids=["domain-only", "range-only"])
    def test_overlap_with_an_earlier_summand_raises(self, texts):
        with pytest.raises(OverlapError):
            orthogonal_sum([P(t) for t in texts], 5)

    @settings(max_examples=300)
    @given(st.integers(1, 8).flatmap(
        lambda d: st.lists(pperms(degree=d), min_size=1, max_size=3)))
    def test_raises_exactly_when_domains_or_ranges_meet(self, parts):
        doms = [set(dom_points(p)) for p in parts]
        rans = [set(p.images) - {0} for p in parts]
        overlap = any(doms[i] & doms[j] or rans[i] & rans[j]
                      for i in range(len(parts)) for j in range(i))
        try:
            total = orthogonal_sum(parts, parts[0].degree)
        except OverlapError:
            assert overlap
        else:
            assert not overlap
            assert set(total.images) - {0} == set().union(*rans)
            for p in parts:
                assert all(total(x) == p(x) for x in dom_points(p))


class TestEnumeration:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_monoid_size_matches_generation(self, d):
        # independent oracle: sum over domain size of C(d,k)^2 k!
        oracle = sum(math.comb(d, k) ** 2 * math.factorial(k) for k in range(d + 1))
        elems = list(iter_all(d))
        assert len(elems) == len(set(elems)) == oracle == monoid_size(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_canonical_order(self, d):
        # the order every search, count and member list follows: domain
        # size, domain, range, then images, each map in a list of its own
        points = range(1, d + 1)
        want = []
        for k in range(d + 1):
            for dom in itertools.combinations(points, k):
                for ran in itertools.combinations(points, k):
                    for img in itertools.permutations(ran):
                        images = [0] * d
                        for x, y in zip(dom, img):
                            images[x - 1] = y
                        want.append(tuple(images))
        assert list(pperm.iter_images(d)) == want
        assert [s.images for s in iter_all(d)] == want
        perms = list(itertools.permutations(points))
        assert list(pperm.iter_images(d, total=True)) == perms == want[-len(perms):]
        assert [s.images for s in pperm.iter_permutations(d)] == perms

    def test_uniform_sampler_is_seeded(self):
        a = [random_pperm(6, SplitMix64(9)) for _ in range(20)]
        b = [random_pperm(6, SplitMix64(9)) for _ in range(20)]
        assert a == b


def full_permutation(d, rng):
    """The permutation draw before windows: shuffle 1..d."""
    img = list(range(1, d + 1))
    rng.shuffle(img)
    return PartialPermutation(d, img)


def full_pperm(d, rng):
    """The partial draw before windows: a domain size by exact weights,
    a sorted domain, a sorted range, and a shuffle of the range."""
    cumulative = list(itertools.accumulate(math.comb(d, k) ** 2 * math.factorial(k)
                                           for k in range(d + 1)))
    lhs = rng.next64() * cumulative[-1]
    k = next(i for i, c in enumerate(cumulative) if lhs < c << 64)
    dom = [x + 1 for x in rng.choose_sorted(d, k)]
    ran = [x + 1 for x in rng.choose_sorted(d, k)]
    rng.shuffle(ran)
    images = [0] * d
    for x, y in zip(dom, ran):
        images[x - 1] = y
    return PartialPermutation(d, images)


FULL_DRAWS = [(True, full_permutation), (False, full_pperm)]


class TestSampling:
    @pytest.mark.parametrize("total,full", FULL_DRAWS, ids=["perms", "all"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_windowed_draw_is_the_full_draw_or_none(self, d, total, full):
        # every window lo..hi, empty ones (lo > hi) included
        windows = [(lo, hi) for lo in range(d + 1) for hi in range(d + 1)]
        for seed in range(200):
            rng = SplitMix64(seed)
            s = full(d, rng)
            start = SplitMix64(seed)._state
            for lo, hi in windows:
                images, state = pperm.random_images(d, total, lo, hi, start,
                                                    mix64(start))
                if lo <= s.nfix <= hi:
                    assert images == (0,) + s.images
                    assert state == rng._state
                else:
                    assert images is None

    @pytest.mark.parametrize("total,full", FULL_DRAWS, ids=["perms", "all"])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_windowed_draw_skips_a_rejected_output_like_the_full_draw(
            self, d, total, full):
        # the j-th output is 2^64 - 1, which every bound that is not a
        # power of two rejects; a draw that skips it takes one more output
        # than its bounded draws: d - 1 for a permutation, and for a
        # partial map of domain size k, 1 at k = 0 and 3k otherwise
        windows = [(lo, hi) for lo in range(d + 1) for hi in range(lo, d + 1)]
        skipped = 0
        for j in range(3 * d):
            state = rejected_state(j)
            rng = SplitMix64(state)
            s = full(d, rng)
            clean = d - 1 if total else max(1, 3 * s.dom_size)
            skipped += outputs_between(state, rng._state) - clean
            for lo, hi in windows:
                images, after = pperm.random_images(d, total, lo, hi, state,
                                                    mix64(state))
                if lo <= s.nfix <= hi:
                    assert images == (0,) + s.images
                    assert after == rng._state
                else:
                    assert images is None
        assert skipped > 0

    @pytest.mark.parametrize("total", [True, False], ids=["perms", "all"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_screen_drops_a_state_where_its_first_output_decides_the_draw(
            self, d, total):
        # first outputs at the boundaries of the rule: T - 1 and T for each
        # domain-size threshold T, the bound-d rejection limit L and L - 1,
        # L - 2 (= d - 1 and d - 2 mod d), d - 1, d - 2 and 2^64 - 1
        limit = 2 ** 64 - 2 ** 64 % d
        below = itertools.accumulate(math.comb(d, k) ** 2 * math.factorial(k)
                                     for k in range(d))
        thresholds = [-(-(c << 64) // monoid_size(d)) for c in below]
        outputs = sorted({u for u in [t + e for t in thresholds for e in (-1, 0)]
                          + [limit, limit - 1, limit - 2, d - 1, d - 2, 2 ** 64 - 1]
                          if 0 <= u < 2 ** 64})
        states = [state_with_output(u, 0) for u in outputs]
        windows = [(lo, hi) for lo in range(d + 1) for hi in range(lo, d + 1)] + [(1, 0)]
        dropped = 0
        for lo, hi in windows:
            kept = pperm.screen_states(d, total, lo, hi, states)
            # the screen is the rule, keeps each state with its first
            # output u = mix64(state), and drops only draws that are None
            assert kept == [(s, u) for s, u in zip(states, outputs)
                            if not first_output_rejects(u, d, total, lo, hi)]
            for s in set(states) - {s for s, _ in kept}:
                assert pperm.random_images(d, total, lo, hi, s, mix64(s))[0] is None
            if lo <= hi:
                dropped += len(states) - len(kept)
        # a permutation of degree 1 draws no output
        assert dropped > 0 or total and d == 1

    @pytest.mark.parametrize("total,full", FULL_DRAWS, ids=["perms", "all"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_draw_given_the_screens_first_output_is_the_full_draw_or_none(
            self, d, total, full):
        # the screen's first outputs, computed in lanes, are mix64 of the
        # states, and a draw given one is the full draw or None in every
        # window, empty ones included; the states include those whose j-th
        # output is 2^64 - 1, the first (j = 0) among them
        states = ([rejected_state(j) for j in range(3 * d)]
                  + SplitMix64(d).spawn_states(0, 200))
        draws = {}
        for state in states:
            rng = SplitMix64(state)
            draws[state] = full(d, rng), rng._state
        compared = 0
        for lo in range(d + 1):
            for hi in range(d + 1):
                for s, u in pperm.screen_states(d, total, lo, hi, states):
                    assert u == mix64(s)
                    want, after = draws[s]
                    images, state = pperm.random_images(d, total, lo, hi, s, u)
                    if lo <= want.nfix <= hi:
                        assert (images, state) == ((0,) + want.images, after)
                        compared += 1
                    else:
                        assert images is None
        assert compared > 0

    @pytest.mark.parametrize("total,full", FULL_DRAWS, ids=["perms", "all"])
    def test_wrappers_reproduce_the_full_draws(self, total, full):
        draw = pperm.random_permutation if total else random_pperm
        for d in (1, 2, 3, 5, 7, 16, 33):
            rng, ref = SplitMix64(d), SplitMix64(d)
            for _ in range(100):
                assert draw(d, rng) == full(d, ref)
            assert rng.next64() == ref.next64()


class TestConjugation:
    def test_conjugation_preserves_trace_and_shape(self):
        rng = SplitMix64(4)
        for _ in range(50):
            s = random_pperm(6, rng)
            g = pperm.random_permutation(6, rng)
            c = conjugate(s, g)
            assert trace(c) == trace(s)
            assert c.dom_size == s.dom_size

    def test_distance_is_conjugation_invariant(self):
        rng = SplitMix64(5)
        for _ in range(50):
            s, t = random_pperm(5, rng), random_pperm(5, rng)
            g = pperm.random_permutation(5, rng)
            assert uniform_distance(conjugate(s, g), conjugate(t, g)) == uniform_distance(s, t)
            assert two_norm_sq(conjugate(s, g), conjugate(t, g)) == two_norm_sq(s, t)
