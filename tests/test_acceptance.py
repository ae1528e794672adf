"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and expected value is pinned here; run with ``-s`` (or
read the captured output) for the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import pytest

from soficdim import pperm
from soficdim.cli import main as cli_main
from soficdim.crossed import (
    HAParams,
    approx_sum_check,
    build_phi,
    build_phi0,
)
from soficdim.groupoid import PartialBisection, transitive_groupoid
from soficdim.partitions import (
    CylinderModel,
    LemmaContext,
    ModelMember,
    Phi0Table,
    lemma_constants,
    random_partition,
    span_basis,
    verify_lemma_c1,
    verify_lemma_c2,
    verify_lemma_c3_sweep,
)
from soficdim.pperm import PartialPermutation
from soficdim.rng import SplitMix64
from soficdim.scaling import (
    expand_sigma,
    restrict_sigma,
    standard_corner,
)
from soficdim.sofic import (
    GroupoidSource,
    SoficCandidate,
    ball_params,
    closed_form_statistic,
    count_SA,
    iter_SA_members,
    restricted_statistic,
    search_space_size,
)
from soficdim.wordball import CyclicGroup, ball

FAIR = (Fraction(1, 2), Fraction(1, 2))


def report(number, label):
    print(f"criterion {number}: PASS ({label})")


class Timer:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.limit}s budget")


def test_criterion_1_distance_identity():
    with Timer(10):
        rng = SplitMix64(20260809)
        for d in (4, 8, 16, 32):
            for _ in range(10 ** 4):
                s = pperm.random_pperm(d, rng)
                t = pperm.random_pperm(d, rng)
                uniform, norm_sq = pperm.distances(s, t)
                rhs = (pperm.trace(pperm.compose(pperm.inverse(s), s))
                       + pperm.trace(pperm.compose(pperm.inverse(t), t))
                       - pperm.trace(pperm.compose(
                           pperm.compose(pperm.inverse(s), s),
                           pperm.compose(pperm.inverse(t), t)))
                       - pperm.trace(pperm.compose(s, pperm.inverse(t))))
                assert uniform == rhs
                assert norm_sq >= uniform
    report(1, "distance identity on 4x10^4 seeded pairs, d in {4,8,16,32}")


def test_criterion_2_monoid_sizes():
    with Timer(30):
        for d in range(1, 7):
            oracle = sum(math.comb(d, k) ** 2 * math.factorial(k)
                         for k in range(d + 1))
            elems = list(pperm.iter_all(d))
            assert len(elems) == len(set(elems)) == oracle
        assert sum(math.comb(3, k) ** 2 * math.factorial(k) for k in range(4)) == 34
        assert sum(math.comb(4, k) ** 2 * math.factorial(k) for k in range(5)) == 209
    report(2, "exhaustive generation matches sum_k C(d,k)^2 k! for d <= 6")


def test_criterion_3_exact_counts():
    with Timer(1):
        p = ball_params(ball(CyclicGroup(1), 1), Fraction(3, 5), 2, mode="all")
        assert count_SA(p, ())[0] == 3
        p2 = ball_params(ball(CyclicGroup(1), 1), Fraction(2), 2, mode="all")
        assert count_SA(p2, ())[0] == 7 == search_space_size(p2)
    report(3, "trivial group counts: 3 at delta=3/5 and 7 at delta>=2")


def test_criterion_4_trivial_group_trend():
    with Timer(300):
        stats = []
        for d in (4, 5, 6):
            p = ball_params(ball(CyclicGroup(1), 1), Fraction(1, 20), d,
                            mode="all")
            _, stat = restricted_statistic(p, [p.source.ball.identity_index()])
            stats.append(stat)
        assert all(a >= b for a, b in zip(stats, stats[1:]))
    report(4, f"trivial-group statistic non-increasing over d in (4,5,6): {stats}")


def test_criterion_5_involution_statistic():
    with Timer(1):
        stats = [closed_form_statistic(2, d, 0)[1] for d in (50, 100, 200, 400)]
        assert all(a < b for a, b in zip(stats, stats[1:]))
        assert 0.40 <= stats[-1] <= 0.50
    report(5, f"order-2 closed-form statistic increasing, {stats[-1]:.4f} at d=400")


@pytest.fixture(scope="module")
def r2_members():
    g = transitive_groupoid(2)
    swap = PartialBisection(g, frozenset(a for a in range(4)
                                         if g.source[a] != g.range_[a]))
    ctx = LemmaContext(g, [swap], 1)
    model = CylinderModel(ctx, FAIR)
    basis = span_basis(model)
    delta = Fraction(1, 10)
    members = {}
    for d in (2, 3, 4, 5, 6):
        members[d] = list(iter_SA_members(ctx.hypothesis_params(delta, d)))
    return g, swap, ctx, model, basis, delta, members


def test_criterion_6_lemma_certification_sweep(r2_members):
    g, swap, ctx, model, basis, delta, members = r2_members
    with Timer(600):
        total = sum(len(v) for v in members.values())
        assert total == 19  # 1 at d=2, 3 at d=4, 15 at d=6
        violations = 0
        for d, ms in members.items():
            for m in ms:
                rep = verify_lemma_c1(m, ctx, delta)
                violations += not rep.passed
                member = ModelMember(model, m)
                for seed in range(100):
                    table = Phi0Table(basis, member, random_partition(d, FAIR, seed))
                    rep2 = verify_lemma_c2(table, delta)
                    rep3 = verify_lemma_c3_sweep(table, delta)
                    violations += (not rep2.passed) + (not rep3.passed)
        assert violations == 0
    report(6, f"c1/c2/c3 bounds certified on {total} members x 100 partitions")


def test_criterion_7_ha_construction(r2_members):
    g, swap, ctx, model, basis, delta, members = r2_members
    consts = lemma_constants(model.f_pm_size, 1, basis)
    with Timer(600):
        checked = 0
        for d, ms in members.items():
            lin_params = HAParams(model, delta, d)
            for m in ms:
                member = ModelMember(model, m)
                for seed in range(100):
                    table = Phi0Table(basis, member, random_partition(d, FAIR, seed))
                    assert build_phi0(table, delta).passed
                    res = build_phi(table, delta)
                    assert res.report.is_member
                    p_size = res.params.universe.p_count
                    bound = Fraction(d) * (
                        1 - 2 * p_size ** 2 * consts.c3 ** 2
                        * basis.kappa ** 4 * delta / basis.gamma ** 2)
                    assert Fraction(len(res.V)) >= bound
                    checked += 1
                    check = approx_sum_check(res.candidate, lin_params)
                    assert check.counts and check.passed
    report(7, f"phi0 properties, HA tolerance, V bound and 146-delta "
              f"linearity on {checked} instances")


def test_criterion_8_scaling_round_trip():
    with Timer(120):
        g = transitive_groupoid(2)
        cd = standard_corner(g, [0])
        src = GroupoidSource(cd.corner, cd.F_corner, 25)
        delta = Fraction(1, 10)
        d = 24
        base_rng = SplitMix64(812)
        for i in range(50):
            rng = base_rng.spawn(i)
            drop = rng.below(2)
            removed = {x + 1 for x in rng.choose_sorted(d, drop)}
            keep = sorted(set(range(1, d + 1)) - removed)
            images = [PartialPermutation.projection(d, keep) if b.arrows
                      else PartialPermutation.empty(d)
                      for b in src.ball_elements]
            sigma = SoficCandidate(d, images)
            res = expand_sigma(sigma, cd, n=5, delta=delta, seed=i)
            assert res.report.is_member  # at delta' by construction of params
            rr = restrict_sigma(res.candidate, cd, delta=delta)
            assert rr.report.is_member
            assert rr.delta_prime == 20 * delta / cd.h_p
            pos0 = {b: j for j, b in enumerate(src.ball_elements)}
            small = GroupoidSource(cd.corner, cd.F_corner, 1)
            worst = max(pperm.uniform_distance(sigma.images[pos0[b]],
                                               rr.candidate.images[j])
                        for j, b in enumerate(small.ball_elements))
            assert worst <= 3 * rr.delta_prime
    report(8, "expand/restrict certified and round trip within 3*(20 delta/h) "
              "on 50 seeded instances")


def test_criterion_9_calculator_cross_checks():
    from soficdim.calculator import evaluate_s, parse_expr

    def ev(text):
        return evaluate_s(parse_expr(text)).value

    with Timer(1):
        for m in (1, 2, 3, 5, 7):
            assert ev(f"cyclic({m})") == 1 - Fraction(1, m)
        assert ev("amalgam(cyclic(2), cyclic(3), trivial)") == Fraction(7, 6)
        assert ev("corner(transitive(4), 1/2)") == ev("transitive(2)") == Fraction(1, 2)
        base = ev("cyclic(2)")
        for q in range(2, 8):
            assert ev(f"bernoulli(cyclic(2), {q})") == base
        from test_calculator import random_expression
        rng = SplitMix64(99)
        for _ in range(100):
            text = random_expression(rng)
            a = Fraction(rng.below(4) + 1, 4)
            b = Fraction(rng.below(4) + 1, 4)
            assert ev(f"corner(corner({text}, {a}), {b})") == ev(
                f"corner({text}, {a * b})")
    report(9, "calculator closed forms, bernoulli neutrality and corner "
              "composition on 100 random trees")


def test_criterion_10_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        assert code in (0, 1)
        return capsys.readouterr().out

    out_a = run("count", "--family", "zmod(2)", "--d", "2..4", "--delta",
                "1/10", "--mode", "all", "--seed", "5")
    out_b = run("count", "--family", "zmod(2)", "--d", "2..4", "--delta",
                "1/10", "--mode", "all", "--seed", "5")
    assert out_a == out_b
    w1 = run("count", "--family", "zmod(2)", "--d", "4", "--delta", "1/10",
             "--mode", "all", "--seed", "5", "--workers", "1")
    w2 = run("count", "--family", "zmod(2)", "--d", "4", "--delta", "1/10",
             "--mode", "all", "--seed", "5", "--workers", "3")
    assert w1 == w2
    gpd = tmp_path / "r2.gpd"
    transitive_groupoid(2).save(gpd)
    v1 = run("verify", "--suite", "c1,c2,scaling", "--source", str(gpd),
             "--d", "4", "--delta", "0.1", "--seed", "7", "--partitions", "3",
             "--instances", "3")
    v2 = run("verify", "--suite", "c1,c2,scaling", "--source", str(gpd),
             "--d", "4", "--delta", "0.1", "--seed", "7", "--partitions", "3",
             "--instances", "3")
    assert v1 == v2
    report(10, "seeded CSV/JSON outputs byte-identical, worker-count independent")
