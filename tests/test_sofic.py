import math
from fractions import Fraction

import pytest

from soficdim import pperm
from soficdim.cli import full_group_generators
from soficdim.groupoid import PartialBisection, transitive_groupoid
from soficdim.pperm import PartialPermutation, parse_pperm
from soficdim.rng import SplitMix64
from soficdim.sofic import (
    GroupoidSource,
    InfeasibleError,
    SoficCandidate,
    ball_params,
    closed_form_count,
    closed_form_statistic,
    count_SA,
    iter_SA_members,
    monte_carlo_count,
    restricted_statistic,
    search_space_size,
    statistic_from_count,
    verify_membership,
)
from soficdim.sofic import _first_largest
from soficdim.wordball import CyclicGroup, ball

from references import block_candidate, conjugate, groupoid_params


def trivial_params(delta, d, mode="all"):
    return ball_params(ball(CyclicGroup(1), 1), delta, d, mode=mode)


def zmod2_params(delta, d, mode="all", n=1):
    return ball_params(ball(CyclicGroup(2), n), delta, d, mode=mode)


def fpf_involution(d):
    assert d % 2 == 0
    return PartialPermutation(d, [x if x % 2 else x + 2 for x in range(d)])


class TestFirstLargest:
    def test_no_pairs_names_nothing(self):
        key, gap = _first_largest(iter(()))
        assert (key, gap, type(gap)) == (None, 0, int)

    def test_all_zero_gaps_name_nothing(self):
        key, gap = _first_largest([("a", Fraction(0)), ("b", Fraction(0))])
        assert (key, gap) == (None, 0)
        key, gap = _first_largest([((0, 1), 0), ((1, 0), 0)])
        assert (key, gap, type(gap)) == (None, 0, int)

    def test_first_key_wins_a_tie(self):
        gaps = [("a", Fraction(1, 3)), ("b", Fraction(2, 3)), ("c", Fraction(2, 3)),
                ("d", Fraction(1, 2))]
        assert _first_largest(gaps) == ("b", Fraction(2, 3))

    def test_a_later_strictly_larger_gap_wins(self):
        assert _first_largest([("a", 2), ("b", 2), ("c", 5), ("d", 5)]) == ("c", 5)
        # a key that is falsy still names the witness
        assert _first_largest([((), 1), ("b", 1)]) == ((), 1)


class TestVerifyMembership:
    def test_exact_involution_member(self):
        p = zmod2_params(Fraction(1, 10), 6)
        idx = {p.source.ball.elements[i]: i for i in range(2)}
        images = [None, None]
        images[idx[()]] = PartialPermutation.identity(6)
        images[idx[(("a", 1),)]] = fpf_involution(6)
        rep = verify_membership(SoficCandidate(6, images), p)
        assert rep.is_member and rep.mult_gap == 0 and rep.trace_gap == 0

    def test_identity_image_fails_trace(self):
        p = zmod2_params(Fraction(1, 2), 4)
        images = [PartialPermutation.identity(4), PartialPermutation.identity(4)]
        rep = verify_membership(SoficCandidate(4, images), p)
        assert rep.trace_gap == 1
        assert not rep.is_member

    def test_trivial_group_identity_member(self):
        p = trivial_params(Fraction(1, 100), 3)
        rep = verify_membership(SoficCandidate(3, [PartialPermutation.identity(3)]), p)
        assert rep.is_member and rep.mult_gap == 0 and rep.trace_gap == 0

    def test_missing_assignment_rejected(self):
        p = zmod2_params(Fraction(1, 10), 4)
        with pytest.raises(KeyError):
            verify_membership(SoficCandidate(4, [PartialPermutation.identity(4)]), p)

    def test_conjugation_invariance(self):
        p = zmod2_params(Fraction(1, 3), 6)
        rng = SplitMix64(11)
        for _ in range(25):
            images = [pperm.random_pperm(6, rng) for _ in range(2)]
            g = pperm.random_permutation(6, rng)
            rep1 = verify_membership(SoficCandidate(6, images), p)
            rep2 = verify_membership(
                SoficCandidate(6, [conjugate(s, g) for s in images]), p)
            assert rep1.is_member == rep2.is_member
            assert rep1.mult_gap == rep2.mult_gap
            assert rep1.trace_gap == rep2.trace_gap


class TestCountSA:
    def test_trivial_group_d2(self):
        count = count_SA(trivial_params(Fraction(3, 5), 2), ())[0]
        assert count == 3
        members = list(iter_SA_members(trivial_params(Fraction(3, 5), 2)))
        got = {m.images[0] for m in members}
        assert got == {parse_pperm("2:[1->1, 2->2]"), parse_pperm("2:[1->1]"),
                       parse_pperm("2:[2->2]")}

    def test_vacuous_delta_counts_everything(self):
        p = trivial_params(Fraction(2), 2)
        assert count_SA(p, ())[0] == 7 == search_space_size(p)

    def test_zmod2_odd_degree_has_no_members(self):
        assert count_SA(zmod2_params(Fraction(1, 100), 3), ())[0] == 0

    def test_zmod2_even_degree_counts_fpf_involutions(self):
        # sigma(e)=id forced, sigma(a) ranges over fixed-point-free involutions
        assert count_SA(zmod2_params(Fraction(1, 10), 4), ())[0] == 3
        assert count_SA(zmod2_params(Fraction(1, 10), 6), (), cap=10**9)[0] == 15

    def test_monotone_in_delta_and_radius(self):
        for d in (2, 3, 4):
            c_small = count_SA(zmod2_params(Fraction(1, 10), d), ())[0]
            c_big = count_SA(zmod2_params(Fraction(1, 2), d), ())[0]
            assert c_small <= c_big
        # membership at radius n implies membership at smaller radius
        p3 = zmod2_params(Fraction(1, 5), 4, n=3)
        p1 = zmod2_params(Fraction(1, 5), 4, n=1)
        members3 = list(iter_SA_members(p3))
        idx3 = {p3.source.ball.elements[i]: i for i in range(p3.source.n_ball)}
        keep = [idx3[w] for w in p1.source.ball.elements]
        restr = {tuple(m.images[i] for i in keep) for m in members3}
        members1 = {m.images for m in iter_SA_members(p1)}
        assert restr <= members1

    def test_infeasible_cap(self):
        with pytest.raises(InfeasibleError):
            count_SA(trivial_params(Fraction(1, 10), 6), (), cap=10)[0]


class TestRestrictedStatistic:
    def test_trivial_group_restriction(self):
        p = trivial_params(Fraction(3, 5), 2)
        count_e, stat = restricted_statistic(p, [0])
        assert count_e == 3
        assert stat == pytest.approx(math.log(3) / (2 * math.log(2)))

    def test_empty_restriction(self):
        p = trivial_params(Fraction(3, 5), 2)
        assert restricted_statistic(p, []) == (1, 0.0)

    def test_empty_member_set_gives_sentinel(self):
        p = zmod2_params(Fraction(1, 100), 3)
        count_e, stat = restricted_statistic(p, [0])
        assert count_e == 0 and stat == float("-inf")

    def test_trend_trivial_group_non_increasing(self):
        stats = []
        for d in (4, 5, 6):
            _, stat = restricted_statistic(trivial_params(Fraction(1, 20), d), [0])
            stats.append(stat)
        assert all(a >= b for a, b in zip(stats, stats[1:]))


class TestMonteCarlo:
    def test_deterministic(self):
        p = trivial_params(Fraction(3, 5), 2)
        assert monte_carlo_count(p, 500, seed=42) == monte_carlo_count(p, 500, seed=42)

    def test_vacuous_delta_exact(self):
        p = trivial_params(Fraction(2), 2)
        est, err = monte_carlo_count(p, 200, seed=7)
        assert est == 7.0 and err == 0.0

    def test_close_to_exact_count(self):
        p = trivial_params(Fraction(3, 5), 2)
        est, err = monte_carlo_count(p, 20000, seed=3)
        assert abs(est - 3) <= 3 * err


def unpruned_closed_form(m, d, delta):
    """Every cycle-type vector (f_c)_{c | m} with sum c*f_c = d, filtered after."""
    max_fixed = math.floor(Fraction(delta) * d)
    divs = [c for c in range(1, m + 1) if m % c == 0]
    total = 0

    def assign(idx, remaining, counts, denominator):
        nonlocal total
        if idx == len(divs):
            if remaining == 0 and all(
                    sum(c * f for c, f in zip(divs, counts) if j % c == 0) <= max_fixed
                    for j in range(1, m)):
                total += math.factorial(d) // denominator
            return
        c = divs[idx]
        for f in range(remaining // c + 1):
            assign(idx + 1, remaining - c * f, counts + [f],
                   denominator * c ** f * math.factorial(f))

    assign(0, d, [], 1)
    return total


CF_6_400 = int(
    "3869178147436809481761065829047250210482613704117970484461938898"
    "2233890707487365226790491861880679509895572719036339443711079110"
    "2844952463582288364610632878662574740540813816566541102599067403"
    "2420502392708565193393450012104127826653633958771004204590460978"
    "3331134671469114846875658596992510354917726899840819614107375833"
    "0969907877377445153638373202457502525940176566437140089317569251"
    "4189976573139633493189639800624187321297382226044023165147295673"
    "1160247847183765135163463842316276465019531164914697259575584586"
    "6951275197420831503922596912658127222524616463911906184787014979"
    "3305316209539698940766052551752197907899627612730447508541118873"
    "6000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000"
)


class TestClosedForm:
    def test_examples(self):
        assert closed_form_count(2, 4, 0) == 3
        assert closed_form_count(2, 2, 0) == 1
        assert closed_form_count(1, 5, 0) == 1

    @pytest.mark.parametrize("m,d", [(2, 4), (2, 5), (2, 6), (3, 6), (4, 4), (6, 6), (2, 7)])
    def test_matches_enumeration(self, m, d):
        for delta in (Fraction(0), Fraction(1, 10), Fraction(1, 2)):
            expected = 0
            for q in pperm.iter_permutations(d):
                powers = [q]
                while len(powers) < m:
                    powers.append(pperm.compose(powers[-1], q))
                if powers[-1] != PartialPermutation.identity(d):
                    continue
                if all(Fraction(p.nfix, d) <= delta for p in powers[:-1]):
                    expected += 1
            assert closed_form_count(m, d, delta) == expected

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_enumerate_then_filter(self, m):
        deltas = [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 4),
                  Fraction(1, 2), Fraction(1), Fraction(-1, 3)]
        for d in range(1, 41):
            for delta in deltas:
                assert closed_form_count(m, d, delta) == unpruned_closed_form(m, d, delta)

    @pytest.mark.parametrize("m,d", [(2, 400), (3, 300), (4, 200), (6, 120), (12, 60)])
    def test_delta_one_counts_solutions_of_pi_m_identity(self, m, d):
        # a(n) = sum over c | m, c <= n of (n-1)!/(n-c)! a(n-c): the cycle
        # through point n has length c and (n-1)!/(n-c)! ways to be filled
        a = [1]
        for n in range(1, d + 1):
            a.append(sum(math.factorial(n - 1) // math.factorial(n - c) * a[n - c]
                         for c in range(1, min(m, n) + 1) if m % c == 0))
        assert closed_form_count(m, d, 1) == a[d]

    def test_recorded_value_m6_d400(self):
        # recorded once from the enumerate-then-filter form (about 34 s)
        assert closed_form_count(6, 400, Fraction(1, 100)) == CF_6_400

    def test_rejects_bad_sizes(self):
        for m, d in ((0, 5), (2, 0), (-1, 3)):
            with pytest.raises(ValueError):
                closed_form_count(m, d, Fraction(1, 10))

    def test_statistic_trend_to_half(self):
        stats = [closed_form_statistic(2, d, 0)[1] for d in (50, 100, 200, 400)]
        assert all(a < b for a, b in zip(stats, stats[1:]))
        assert 0.40 <= stats[-1] <= 0.50


class TestGroupoidSource:
    def test_r2_swap_ball_and_members(self):
        g = transitive_groupoid(2)
        swap = [a for a in range(4) if g.source[a] != g.range_[a]]
        from soficdim.groupoid import PartialBisection
        F = [PartialBisection(g, frozenset(swap))]
        p = groupoid_params(g, F, 1, Fraction(1, 10), 4)
        # ball: identity, swap; sums add nothing new beyond existing elements
        assert p.source.n_ball == 2
        members = list(iter_SA_members(p))
        assert len(members) == 3  # sigma(swap) is a fixed-point-free involution

    def test_block_candidate_is_exact(self):
        g = transitive_groupoid(2)
        swap = [a for a in range(4) if g.source[a] != g.range_[a]]
        from soficdim.groupoid import PartialBisection
        F = [PartialBisection(g, frozenset(swap))]
        p = groupoid_params(g, F, 2, Fraction(1, 100), 6)
        cand = block_candidate(p.source, 6)
        rep = verify_membership(cand, p)
        assert rep.is_member and rep.mult_gap == 0 and rep.trace_gap == 0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("order", [2, 3], ids=["r2", "transitive3"])
    def test_position_maps_exactly_the_ball(self, order, n):
        g = transitive_groupoid(order)
        src = GroupoidSource(g, full_group_generators(g), n)
        assert list(src.position) == list(src.ball_elements)
        assert all(src.position[b] == i for i, b in enumerate(src.ball_elements))

    @pytest.mark.parametrize("n", [1, 2])
    def test_position_leaves_out_the_sums(self, n):
        # one arrow 0 -> 1 of transitive(3): its ball is not closed under sums
        g = transitive_groupoid(3)
        arrow = next(a for a in range(g.n_arrows)
                     if (g.source[a], g.range_[a]) == (0, 1))
        src = GroupoidSource(g, [PartialBisection(g, frozenset([arrow]))], n)
        assert src.n_universe > src.n_ball == len(src.position)
        assert not any(u in src.position for u in src.universe[src.n_ball:])


class TestStatistic:
    def test_sentinels(self):
        assert statistic_from_count(0, 5) == float("-inf")
        assert statistic_from_count(1, 5) == 0.0
        assert statistic_from_count(7, 1) == 0.0
