"""The pruned integer search against plain enumeration of every candidate.

On instances small enough to enumerate in full, the members of
``_search`` (and of its two callers) must be exactly the candidates of
``itertools.product(pool, repeat=n_ball)`` that ``verify_membership``
accepts, in the same order; and ``ha_statistic_with_sa`` must count
exactly the (sigma|_E, phi|_Q) pairs of the maps phi in
``itertools.product(pool, repeat=len(universe))`` that ``verify_HA``
accepts.
"""

import itertools
import multiprocessing
from fractions import Fraction

import pytest

from soficdim.cli import full_group_generators
from soficdim.crossed import (
    HACandidate,
    HAParams,
    ProjectionUniverse,
    SqrtTol,
    ha_statistic_with_sa,
    verify_HA,
)
from soficdim.groupoid import (
    PartialBisection,
    cyclic_groupoid,
    full_identity,
    transitive_groupoid,
)
from soficdim.partitions import CylinderModel, LemmaContext
from soficdim.sofic import (
    GroupoidSource,
    SoficCandidate,
    _count_chunk,
    _search,
    ball_params,
    candidate_pool,
    count_SA,
    groupoid_params,
    iter_SA_members,
    verify_membership,
)
from soficdim.wordball import ball, parse_descriptor

FAIR = (Fraction(1, 2), Fraction(1, 2))


def family(descriptor, delta, d):
    return ball_params(ball(parse_descriptor(descriptor), None, 1), Fraction(delta), d)


def r2(F_kind, delta, d):
    g = transitive_groupoid(2)
    if F_kind == "full":
        F = full_group_generators(g)  # the swap, as `count --source` uses
    else:
        # "unit": the projection onto unit 0, trace 1/2
        # "arrow": the single arrow 0 -> 1, whose sum with its inverse
        #          is the swap, a sum-closure element
        want = (0, 0) if F_kind == "unit" else (0, 1)
        F = [PartialBisection(g, frozenset(
            a for a in range(g.n_arrows) if (g.source[a], g.range_[a]) == want))]
    return groupoid_params(g, F, 1, Fraction(delta), d, mode="all")


INSTANCES = (
    [(f"zmod2-d{d}-{delta}", lambda d=d, delta=delta: family("zmod(2)", delta, d))
     for d in range(1, 6) for delta in ("1/10", "1/3")]
    # delta*d = 1: exactly one disagreement must already reject
    + [("z-d4-1/4", lambda: family("z", "1/4", 4))]
    + [(f"freeprod-d{d}-{delta}",
        lambda d=d, delta=delta: family("freeprod(zmod(2),zmod(2))", delta, d))
       for d in range(1, 4) for delta in ("1/10", "1/2")]
    # odd d: a trace of 1/2 is not a multiple of 1/d
    + [(f"r2-{kind}-d{d}-{delta}",
        lambda kind=kind, d=d, delta=delta: r2(kind, delta, d))
       for kind in ("full", "unit") for d in range(1, 4)
       for delta in ("1/10", "1/5", "1/2")]
    + [(f"r2-arrow-d{d}-{delta}", lambda d=d, delta=delta: r2("arrow", delta, d))
       for d in range(1, 3) for delta in ("1/10", "1")]
)


def brute_force(params, pool):
    return [images for images in itertools.product(pool, repeat=params.source.n_ball)
            if verify_membership(SoficCandidate(params.d, images), params).is_member]


@pytest.mark.parametrize("make", [m for _, m in INSTANCES],
                         ids=[name.replace("/", "over") for name, _ in INSTANCES])
def test_search_matches_brute_force(make):
    params = make()
    pool = candidate_pool(params.d, params.mode)
    want = brute_force(params, pool)
    assert [tuple(images) for images in _search(params, pool)] == want
    assert [m.images for m in iter_SA_members(params)] == want
    nball = params.source.n_ball
    for E in ((), (nball - 1,), tuple(range(nball))):
        restrictions = {tuple(images[i] for i in E) for images in want}
        assert _count_chunk(params, pool, None, E) == (len(want), restrictions)
        assert count_SA(params, E=E) == (len(want), len(restrictions))
    assert count_SA(params) == len(want)


# the split hands out the candidates that pass the trace condition at
# position 0; with fewer than two per worker it runs in one process
@pytest.mark.parametrize("make,forked",
                         [(lambda: family("zmod(2)", "1/3", 4), 0),
                          (lambda: r2("arrow", "1/2", 2), 0),
                          # identity and the six transpositions
                          (lambda: family("zmod(2)", "3/4", 4), 2),
                          # identity and the three rank-2 partial identities
                          (lambda: r2("unit", "1/2", 3), 2)],
                         ids=["zmod2-d4", "r2-arrow-d2", "zmod2-d4-wide",
                              "r2-unit-d3-wide"])
def test_worker_split_matches_one_worker(make, forked, monkeypatch):
    params = make()
    E = (params.source.n_ball - 1,)
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda proc: started.append(proc) or start(proc))
    assert count_SA(params, workers=2, E=E) == count_SA(params, workers=1, E=E)
    assert len(started) == forked


# -- the joint (sigma, phi) enumeration -----------------------------------------

def bernoulli(g, F, alphabet):
    return CylinderModel(LemmaContext(g, F, 1), alphabet)


def point_model(alphabet):
    g = cyclic_groupoid(1)
    return bernoulli(g, [full_identity(g)], alphabet)


def swap_model(alphabet):
    # the 2-point relation with the swap: sigma(swap) conjugates phi
    g = transitive_groupoid(2)
    return bernoulli(g, full_group_generators(g), alphabet)


HA_TOLERANCES = [("1over3", Fraction(1, 3)), ("1over2", Fraction(1, 2)),
                 ("sqrt1over5", SqrtTol(Fraction(1, 5)))]
HA_INSTANCES = (
    [(f"point-one-d{d}-{name}", point_model, (Fraction(1),), d, delta)
     for d in range(1, 4) for name, delta in HA_TOLERANCES]
    + [(f"point-fair-d{d}-{name}", point_model, FAIR, d, delta)
       for d in range(1, 3) for name, delta in HA_TOLERANCES]
    + [(f"swap-one-d{d}-{name}", swap_model, (Fraction(1),), d, delta)
       for d in range(1, 4) for name, delta in HA_TOLERANCES]
)


@pytest.mark.parametrize("make,alphabet,d,delta", [case[1:] for case in HA_INSTANCES],
                         ids=[case[0] for case in HA_INSTANCES])
def test_ha_statistic_matches_brute_force(make, alphabet, d, delta):
    params = HAParams(make(alphabet), delta, d)
    uni = params.universe
    pool = candidate_pool(d, "all")
    assert len(pool) ** len(uni) <= 5000
    E, Q = [0], list(range(len(alphabet)))
    sigmas = list(iter_SA_members(params.sigma_params(
        delta if isinstance(delta, Fraction) else 1)))
    pairs = set()
    for sigma in sigmas:
        for phi in itertools.product(pool, repeat=len(uni)):
            cand = HACandidate(sigma, phi)
            if verify_HA(cand, params, check_sigma=False).is_member:
                pairs.add((sigma.restriction(E),
                           tuple(phi[uni.letter_index[q]] for q in Q)))
    count, _, sa_count = ha_statistic_with_sa(params, E, Q)
    assert (count, sa_count) == (len(pairs), len({s.restriction(E) for s in sigmas}))


# recorded from the enumeration the pruned search replaced, beyond brute force
@pytest.mark.parametrize("make,d,delta,want", [
    (point_model, 3, Fraction(1, 2), (576, 4)),
    (point_model, 3, SqrtTol(Fraction(1, 5)), (951, 16)),
    (point_model, 3, Fraction(1, 3), (36, 1)),
    (point_model, 3, Fraction(1, 100), (0, 1)),
    (swap_model, 2, Fraction(1, 2), (2, 1)),
    (swap_model, 2, SqrtTol(Fraction(1, 5)), (6, 3)),
    (swap_model, 2, Fraction(1, 100), (0, 1)),
], ids=["point-d3-1over2", "point-d3-sqrt1over5", "point-d3-1over3",
        "point-d3-1over100", "swap-d2-1over2", "swap-d2-sqrt1over5",
        "swap-d2-1over100"])
def test_ha_statistic_recorded(make, d, delta, want):
    count, _, sa_count = ha_statistic_with_sa(HAParams(make(FAIR), delta, d),
                                              E=[0], Q=[0, 1], cap=10 ** 15)
    assert (count, sa_count) == want


# -- the sum closure ------------------------------------------------------------

# the element order of both universes fixes the positions of every search
# and of the recorded outputs: sums come breadth first, fewest parts first
def test_projection_universe_order():
    uni = ProjectionUniverse(swap_model(FAIR))
    assert (len(uni), uni.p_count) == (15, 9)
    assert uni.decomposition[uni.p_count:] == (
        (1, 7), (1, 8), (2, 5), (2, 6), (5, 8), (6, 7))


def test_groupoid_source_order():
    g = transitive_groupoid(3)
    F = [PartialBisection(g, frozenset(a for a in range(g.n_arrows)
                                       if (g.source[a], g.range_[a]) == pair))
         for pair in ((0, 1), (1, 2))]
    pairs = [(1, 2), (1, 3), (1, 8), (1, 10), (2, 4), (2, 9), (2, 10), (3, 4),
             (3, 7), (3, 8), (4, 7), (4, 9), (6, 7), (6, 8), (6, 9), (6, 10),
             (7, 10), (8, 9)]
    triples = [(1, 2, 10), (1, 3, 8), (2, 4, 9), (3, 4, 7), (6, 8, 9)]
    for m, sums in ((None, pairs + triples), (2, pairs)):
        src = GroupoidSource(g, F, 2, m=m)
        assert src.n_ball == 11 and src.n_universe == 11 + len(sums)
        assert list(src.decomposition[11:]) == sums
        for parts, bis in zip(src.decomposition[11:], src.universe[11:]):
            assert bis.arrows == frozenset().union(
                *(src.universe[i].arrows for i in parts))
