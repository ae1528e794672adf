"""The pruned integer search against plain enumeration of every candidate.

On instances small enough to enumerate in full, the members of
``_search`` (and of its two callers) must be exactly the candidates of
``itertools.product(pool, repeat=n_ball)`` that ``verify_membership``
accepts, in the same order.
"""

import itertools
import multiprocessing
from fractions import Fraction

import pytest

from soficdim.cli import full_group_generators
from soficdim.groupoid import PartialBisection, transitive_groupoid
from soficdim.sofic import (
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
