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
    conjugate,
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
from soficdim.rng import SplitMix64


def P(text):
    return parse_pperm(text)


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

    def test_trusted_results_match_validated_construction(self):
        rng = SplitMix64(3)
        for d in (1, 4, 9):
            maps = list(iter_all(min(d, 3))) + [pperm.random_pperm(d, rng)
                                                for _ in range(20)]
            for s in maps:
                for got in (s, inverse(s), compose(s, inverse(s))):
                    want = PartialPermutation(got.degree, got.images)
                    assert (got.dom_mask, got.ran_mask, got.nfix, hash(got)) == \
                        (want.dom_mask, want.ran_mask, want.nfix, hash(want))

    def test_trace(self):
        assert trace(PartialPermutation.identity(5)) == 1
        assert trace(P("2:[1->2, 2->1]")) == 0
        assert trace(PartialPermutation.projection(4, [1])) == Fraction(1, 4)

    def test_text_round_trip(self):
        for s in iter_all(3):
            assert parse_pperm(s.to_text()) == s


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
        assert orthogonal_sum([s, t]) == P("4:[1->2, 3->4]")

    def test_sum_with_empty(self):
        s = P("4:[1->2]")
        assert orthogonal_sum([s, PartialPermutation.empty(4)]) == s

    def test_domain_overlap_raises(self):
        with pytest.raises(OverlapError):
            orthogonal_sum([P("4:[1->2]"), P("4:[1->3]")])

    def test_range_overlap_raises(self):
        with pytest.raises(OverlapError):
            orthogonal_sum([P("4:[1->2]"), P("4:[3->2]")])


class TestEnumeration:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_monoid_size_matches_generation(self, d):
        # independent oracle: sum over domain size of C(d,k)^2 k!
        oracle = sum(math.comb(d, k) ** 2 * math.factorial(k) for k in range(d + 1))
        elems = list(iter_all(d))
        assert len(elems) == len(set(elems)) == oracle == monoid_size(d)

    def test_uniform_sampler_is_seeded(self):
        a = [random_pperm(6, SplitMix64(9)) for _ in range(20)]
        b = [random_pperm(6, SplitMix64(9)) for _ in range(20)]
        assert a == b


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
