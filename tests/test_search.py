"""The pruned integer search against plain enumeration of every candidate.

The oracle is ``reference_verify_membership``, which checks a candidate on
``PartialPermutation`` objects (orthogonal sums, composition and uniform
distance of maps), independently of the integer code; ``verify_membership``
must give its report field for field on every candidate checked here.
On instances small enough to enumerate in full, the members of
``SearchPlan.search`` (and of its callers) must be exactly the candidates of
``itertools.product(pool, repeat=n_ball)`` that the oracle
accepts, in the same order; the counts by conjugacy classes must equal
those of the plain search, and the classes must partition the maps; a
map derived at a forced position must be the one its triple allows, and
the D-infinity counts must equal their closed series; and every Monte
Carlo trial must decide membership as the oracle does on
the images drawn from its substream.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import eq

import pytest

from soficdim.cli import full_group_generators
from soficdim.crossed import ProjectionUniverse
from soficdim.groupoid import (
    PartialBisection,
    cyclic_groupoid,
    transitive_groupoid,
)
from soficdim import cli, partitions, pperm, sofic
from soficdim.partitions import CylinderModel, LemmaContext
from soficdim.rng import SplitMix64
from soficdim.sofic import (
    GroupoidSource,
    MembershipReport,
    OverlapError,
    SearchPlan,
    SoficCandidate,
    ball_params,
    candidate_pool,
    closed_form_count,
    conjugacy_classes,
    count_SA,
    fixed_windows,
    iter_SA_members,
    monte_carlo_count,
    reach,
    relation_classes,
    relation_pool,
    search_space_size,
    verify_membership,
)
from soficdim.wordball import ball, parse_descriptor

from references import first_output_rejects, groupoid_params, plain_count, uneven_groupoid

FAIR = (Fraction(1, 2), Fraction(1, 2))


def family(descriptor, delta, d, mode=""):
    return ball_params(ball(parse_descriptor(descriptor), 1), Fraction(delta),
                       d, mode)


def r2(F_kind, delta, d, mode="all"):
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
    return groupoid_params(g, F, 1, Fraction(delta), d, mode=mode)


INSTANCES = (
    [(f"zmod2-d{d}-{delta}", lambda d=d, delta=delta: family("zmod(2)", delta, d))
     for d in range(1, 6) for delta in ("1/10", "1/3")]
    # delta*d = 1: exactly one disagreement must already reject
    + [("z-d4-1/4", lambda: family("z", "1/4", 4))]
    + [(f"freeprod-d{d}-{delta}",
        lambda d=d, delta=delta: family("freeprod(zmod(2),zmod(2))", delta, d))
       for d in range(1, 4) for delta in ("1/10", "1/2")]
    # odd d: a trace of 1/2 is not a multiple of 1/d; delta 3/5: the
    # window of the unit projection (trace 1/2) holds d too
    + [(f"r2-{kind}-d{d}-{delta}",
        lambda kind=kind, d=d, delta=delta: r2(kind, delta, d))
       for kind in ("full", "unit") for d in range(1, 4)
       for delta in ("1/10", "1/5", "1/2", "3/5")]
    + [(f"r2-arrow-d{d}-{delta}", lambda d=d, delta=delta: r2("arrow", delta, d))
       for d in range(1, 3) for delta in ("1/10", "1")]
    # identity windows wider than {d}, {3, 4}: the plan keeps the triples
    # that compose with the identity position
    + [("zmod2-all-d4-3/10", lambda: family("zmod(2)", "3/10", 4, "all")),
       ("zmod3-d4-3/10", lambda: family("zmod(3)", "3/10", 4))]
)


def object_pool(d, mode):
    return list(pperm.iter_permutations(d) if mode == "perms" else pperm.iter_all(d))


# -- the object-level membership oracle ----------------------------------------

OVERLAP = object()


def reference_resolve(source, images, key: int):
    """Image of universe element ``key`` under the additive extension."""
    dec = source.decomposition[key]
    if len(dec) == 1:
        return images[dec[0]]
    try:
        return pperm.orthogonal_sum([images[i] for i in dec], images[0].degree)
    except OverlapError:
        return OVERLAP


def reference_verify_membership(sigma, params):
    """Exact worst-case gaps of sigma against the two conditions."""
    source = params.source
    if len(sigma.images) != source.n_ball:
        raise KeyError(f"assignment covers {len(sigma.images)} of "
                       f"{source.n_ball} ball elements")
    if sigma.degree != params.d:
        raise ValueError("candidate degree disagrees with params")
    images = sigma.images
    notes = []
    if not source.is_group:
        # no sum has more summands than the ball has elements
        notes.append(f"sum closure truncated at m={source.n_ball} summands;"
                     " images extended additively")
    trace_gap = Fraction(0)
    trace_witness = ""
    for i in range(source.n_ball):
        gap = abs(pperm.trace(images[i]) - source.taus[i])
        if gap > trace_gap:
            trace_gap, trace_witness = gap, source.key_label(i)
    mult_gap = Fraction(0)
    mult_witness = ("", "")
    flagged = False
    cache = {}

    def val(k):
        if k not in cache:
            cache[k] = reference_resolve(source, images, k)
        return cache[k]

    for (i, j, k) in source.triples:
        a, b, c = val(i), val(j), val(k)
        if a is OVERLAP or b is OVERLAP or c is OVERLAP:
            flagged = True
            continue
        gap = pperm.uniform_distance(c, pperm.compose(a, b))
        if gap > mult_gap:
            mult_gap, mult_witness = gap, (source.key_label(i), source.key_label(j))
    if flagged:
        notes.append("additive extension unresolvable on some sums"
                     " (overlapping images); candidate rejected")
    member = (not flagged) and mult_gap < params.delta and trace_gap < params.delta
    return MembershipReport(member, mult_gap, mult_witness, trace_gap,
                            trace_witness, params.delta, params.d, tuple(notes))


def same_report(sigma, params):
    """The oracle's report, after asserting that ``verify_membership``
    gives it field for field."""
    want = reference_verify_membership(sigma, params)
    got = verify_membership(sigma, params)
    assert got == want
    assert (type(got.mult_gap), type(got.trace_gap)) == (Fraction, Fraction)
    return want


def brute_force(params, pool):
    return [images for images in itertools.product(pool, repeat=params.source.n_ball)
            if same_report(SoficCandidate(params.d, images), params).is_member]


@pytest.mark.parametrize("make", [m for _, m in INSTANCES],
                         ids=[name.replace("/", "over") for name, _ in INSTANCES])
def test_search_matches_brute_force(make):
    params = make()
    d, nball = params.d, params.source.n_ball
    want = brute_force(params, object_pool(d, params.mode))
    plan = SearchPlan(params)
    pools = candidate_pool(d, params.mode, plan.windows)
    assert [tuple(pperm.PartialPermutation(d, pad[1:]) for pad in slots[:nball])
            for slots in plan.search(pools)] == want
    assert [m.images for m in iter_SA_members(params)] == want
    # the counts split over the classes at the first branching position
    # of E, or at p where E has none
    p = first_branching(pools)
    everywhere = tuple(range(nball))
    choices = [(), (nball - 1,), everywhere,
               tuple(t for t in everywhere if len(pools[t]) == 1)]
    if p is not None:
        choices += [(p,), tuple(t for t in everywhere if t != p)]
    for E in choices:
        restrictions = {tuple((0,) + images[i].images for i in E) for images in want}
        assert plain_count(plan, pools, E) == (len(want), restrictions)
        assert count_SA(params, E=E) == (len(want), len(restrictions))
    assert count_SA(params, ()) == (len(want), min(len(want), 1))


# -- the membership report --------------------------------------------------------

FLAGGED_NOTES = (
    "sum closure truncated at m=3 summands; images extended additively",
    "additive extension unresolvable on some sums (overlapping images);"
    " candidate rejected")


def test_flagged_report():
    # the images of the arrows 0 -> 1 and 1 -> 0 (positions 1 and 2) are
    # both defined at point 1, so their sum, the swap at position 3, is
    # flagged; the identity goes to a partial identity missing point 3,
    # which among the unflagged triples only (identity, 1 -> 0, 1 -> 0)
    # sees; a swap resolved to either arrow's image would put 2/3 on the
    # flagged triple (swap, swap, identity)
    params = r2("arrow", "1/2", 3)
    source = params.source
    images = [pperm.PartialPermutation(3, im)
              for im in ((1, 2, 0), (2, 0, 0), (3, 0, 0))]
    rep = same_report(SoficCandidate(3, images), params)
    label = source.key_label
    assert rep == MembershipReport(
        False, Fraction(1, 3), (label(0), label(2)), Fraction(1, 3), label(0),
        Fraction(1, 2), 3, FLAGGED_NOTES)
    # both gaps are below delta: the flag alone rejects
    assert source.decomposition[3] == (1, 2)
    assert {(i, j) for i, j, k in source.triples if 3 in (i, j, k)} == {
        (0, 3), (3, 0), (3, 3)}


# beyond the brute-force instances: larger d, and sums of three parts
@pytest.mark.parametrize("make", [
    lambda: r2("arrow", "1/2", 3), lambda: r2("arrow", "1", 4),
    lambda: three_units("1/2", 3, "all"), lambda: three_units("2/3", 3, "all", 2)],
    ids=["r2-arrow-d3", "r2-arrow-d4", "three-units-n1", "three-units-n2"])
def test_reports_on_random_groupoid_candidates(make):
    params = make()
    rng = SplitMix64(17)
    flagged = 0
    for _ in range(300):
        images = [pperm.random_pperm(params.d, rng)
                  for _ in range(params.source.n_ball)]
        flagged += len(same_report(SoficCandidate(params.d, images), params).notes) == 2
    assert flagged > 0


# the trace sweep decides on integers over one denominator T of the
# source's taus: T is 2 on r2, 3 on r3 and on the uneven groupoid (taus 1
# and 2/3), and 1 on the groups
MEMBERSHIP_SOURCES = {"r2": lambda: transitive_groupoid(2),
                      "r3": lambda: transitive_groupoid(3),
                      "zmod2": lambda: cyclic_groupoid(2),
                      "zmod3": lambda: cyclic_groupoid(3),
                      "uneven": uneven_groupoid}


@pytest.mark.parametrize("source", list(MEMBERSHIP_SOURCES))
def test_integer_trace_sweep_matches_the_reference(source):
    g = MEMBERSHIP_SOURCES[source]()
    rng = SplitMix64(len(source))
    worst = set()
    for d in range(2, 7):
        params = groupoid_params(g, full_group_generators(g), 1, Fraction(1, 3), d)
        for _ in range(12):
            images = [pperm.random_pperm(d, rng) for _ in range(params.source.n_ball)]
            rep = same_report(SoficCandidate(d, images), params)
            worst.add(rep.trace_gap)
        # every map the identity: the trace gaps are 1 - tau, tied wherever
        # two elements have one tau, and the first of the largest names it
        ident = [pperm.PartialPermutation.identity(d)] * params.source.n_ball
        rep = same_report(SoficCandidate(d, ident), params)
        gaps = [1 - tau for tau in params.source.taus]
        assert rep.trace_gap == max(gaps)
        first = gaps.index(max(gaps)) if max(gaps) else None
        assert rep.trace_witness == ("" if first is None
                                     else params.source.key_label(first))
        # r3's two 3-cycles and zmod3's two generators have tau 0
        assert (gaps.count(max(gaps)) > 1) == (source in ("r3", "zmod3"))
    assert len(worst) > 3


# every candidate the certification suites check: c1 and ha through
# partitions, the scaling round trips through sofic
@pytest.mark.parametrize("argv", [
    ("--source", "zmod(2)", "--d", "2", "--delta", "1/10", "--suite", "scaling"),
    ("--source", "zmod(2)", "--d", "3", "--delta", "1/2", "--suite", "scaling"),
    ("--source", "zmod(2)", "--d", "2", "--delta", "7", "--suite", "scaling"),
    ("--source", "r2.gpd", "--d", "4", "--delta", "1/20", "--suite", "all"),
    ("--source", "r2.gpd", "--d", "6", "--delta", "1/10", "--suite", "c1,ha"),
], ids=["zmod2-d2", "zmod2-d3-half", "zmod2-d2-delta7", "r2-all", "r2-c1-ha"])
def test_reports_on_suite_candidates(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    transitive_groupoid(2).save("r2.gpd")
    checked = []

    def checked_report(sigma, params):
        checked.append(sigma)
        return same_report(sigma, params)

    monkeypatch.setattr(sofic, "verify_membership", checked_report)
    monkeypatch.setattr(partitions, "verify_membership", checked_report)
    assert cli.main(["verify", *argv, "--instances", "3"]) in (0, 1)
    capsys.readouterr()
    assert checked


# -- trace windows ----------------------------------------------------------------

CENTRES = [0, Fraction(0), Fraction(1, 3), Fraction(1, 2), 1, Fraction(1),
           Fraction(1, 7), Fraction(5, 6)]


# 1/4 and 1/5 put a window end on k/d exactly
TOLERANCES = [Fraction(1, 100), Fraction(1, 12), Fraction(1, 5), Fraction(1, 4),
              Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]


def windows_per_count(d, centres, delta):
    """Each k in 0..d tested on its own."""
    return [frozenset(k for k in range(d + 1) if abs(Fraction(k, d) - centre) < delta)
            for centre in centres]


@pytest.mark.parametrize("tol", TOLERANCES, ids=str)
def test_windows_match_the_per_count_test(tol):
    for d in range(1, 41):
        windows = fixed_windows(d, CENTRES, tol)
        assert windows == windows_per_count(d, CENTRES, tol)
        assert all(type(w) is frozenset for w in windows)


def test_windows_at_their_edges():
    fifth = Fraction(1, 5)
    # d = 5, delta = 1/5: every end on k/d is left out, strictly
    assert fixed_windows(5, [0, Fraction(1, 3), Fraction(1, 2), 1], fifth) == [
        {0}, {1, 2}, {2, 3}, {5}]
    assert fixed_windows(5, [Fraction(1, 5)], fifth) == [{1}]
    # no count within 1/100 of 1/3 at d = 4, nor of 1/2 at odd d
    hundredth = Fraction(1, 100)
    assert fixed_windows(4, [Fraction(1, 3), 1], hundredth) == [frozenset(), {4}]
    assert fixed_windows(7, [Fraction(1, 2)], hundredth) == [frozenset()]
    # zmod(3) at d = 4, delta = 1/4: the identity keeps 4 and a, a^-1 keep 0
    plan = SearchPlan(family("zmod(3)", "1/4", 4))
    assert sorted(plan.windows, key=min) == [{0}, {0}, {4}]


def test_reach_is_the_integers_strictly_inside_a_tolerance():
    for delta in (Fraction(0), Fraction(1, 50), Fraction(1, 4), Fraction(2), Fraction(9)):
        for scale in range(1, 30):
            m = reach(delta, scale)
            assert m >= -1 and (m < 0 or m < delta * scale)
            assert m + 1 >= delta * scale
    # the search's limit: the fewest disagreements c with c/d >= delta
    for num in range(1, 25):
        for den in range(1, 25):
            delta = Fraction(num, den)
            for d in range(1, 41):
                assert reach(delta, d) + 1 == math.ceil(delta * d)


def first_branching(pools):
    """The first position whose pool holds two or more maps, or None."""
    return next((t for t, pool in enumerate(pools) if len(pool) > 1), None)


@pytest.mark.parametrize("mode", ["perms", "all"])
@pytest.mark.parametrize("d", range(1, 7))
def test_tuple_pools_filter_the_object_enumeration(d, mode):
    maps = object_pool(d, mode)
    windows = [frozenset({d}), frozenset({0}), frozenset(range(d + 1)),
               frozenset({0, d // 2}), frozenset(), frozenset({d})]
    pools = candidate_pool(d, mode, windows)
    assert pools == [[(0,) + s.images for s in maps if s.nfix in fixed]
                     for fixed in windows]
    assert pools[0] is pools[-1]  # equal windows share one list


# the triples left out compose with a position of trace 1, whatever its
# window: {d}, or wider
@pytest.mark.parametrize("make,dropped", [
    (lambda: family("zmod(2)", "1/10", 8), {(0, 0, 0), (0, 1, 1), (1, 0, 1)}),
    (lambda: family("z", "1/4", 4),
     {(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)}),
    # the swap, position 3, is the sum of the arrows at positions 1 and 2
    (lambda: r2("arrow", "1/10", 2),
     {(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 1), (2, 0, 2), (3, 0, 3)}),
    # identity windows {3, 4} and {4, 5}
    (lambda: family("zmod(2)", "3/10", 4, "all"), {(0, 0, 0), (0, 1, 1), (1, 0, 1)}),
    (lambda: family("z", "1/4", 5),
     {(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)}),
], ids=["zmod2-d8", "z-d4", "r2-arrow-d2", "zmod2-all-d4-wide", "z-d5-wide"])
def test_plan_drops_the_identity_triples(make, dropped):
    params = make()
    plan = SearchPlan(params)
    kept = [t for position in plan.triples for t in position]
    assert sorted(kept) == sorted(set(params.source.triples) - dropped)
    assert len(kept) + len(dropped) == len(params.source.triples)


# validated maps are built for members only: iter_SA_members builds every
# image of every member, and count_SA none, with or without E
@pytest.mark.parametrize("make", [lambda: family("zmod(2)", "1/10", 6),
                                  lambda: family("freeprod(zmod(2),zmod(2))", "1/2", 3),
                                  lambda: r2("full", "1/10", 4)],
                         ids=["zmod2-d6", "freeprod-d3", "r2-full-d4"])
def test_maps_are_built_for_members_only(make, monkeypatch):
    params = make()
    built = []
    init = pperm.PartialPermutation.__init__
    monkeypatch.setattr(pperm.PartialPermutation, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    count = count_SA(params, ())[0]
    assert count > 0 and built == []
    E = tuple(range(params.source.n_ball))
    assert count_SA(params, E=E)[0] == count
    assert built == []
    assert sum(1 for _ in iter_SA_members(params)) == count
    assert len(built) == count * len(E)


# -- counting up to conjugacy -----------------------------------------------------

def cycle_chain_type(images):
    """(cycle lengths, chain lengths), each sorted, of an image tuple."""
    d = len(images)
    ranged = set(images)
    seen = set()
    chains = []
    for x in range(1, d + 1):
        if x not in ranged:  # the first point of a chain
            length = 0
            while x:
                seen.add(x)
                length += 1
                x = images[x - 1]
            chains.append(length)
    cycles = []
    for x in range(1, d + 1):
        length = 0
        while x not in seen:
            seen.add(x)
            length += 1
            x = images[x - 1]
        if length:
            cycles.append(length)
    return sorted(cycles), sorted(chains)


def whole(d):
    return frozenset(range(d + 1))


@pytest.mark.parametrize("d", range(1, 10))
def test_class_sizes_sum_to_the_maps(d):
    perms = conjugacy_classes(d, "perms", whole(d))
    maps = conjugacy_classes(d, "all", whole(d))
    assert sum(size for _, size in perms) == math.factorial(d)
    assert sum(size for _, size in maps) == pperm.monoid_size(d)
    if d == 8:
        assert (len(perms), len(maps)) == (22, 185)


# each representative is a valid map of its mode, one per cycle(-and-chain)
# type, and its class size is the number of maps of that type
@pytest.mark.parametrize("mode", ["perms", "all"])
@pytest.mark.parametrize("d", range(1, 7))
def test_representatives_have_their_class_type(d, mode):
    sizes = Counter(tuple(map(tuple, cycle_chain_type(s.images)))
                    for s in object_pool(d, mode))
    classes = {}
    for pad, size in conjugacy_classes(d, mode, whole(d)):
        assert pad[0] == 0
        rep = pperm.PartialPermutation(d, pad[1:])
        assert mode == "all" or rep.dom_size == d
        classes[tuple(map(tuple, cycle_chain_type(rep.images)))] = size
    assert classes == sizes


@pytest.mark.parametrize("mode", ["perms", "all"])
@pytest.mark.parametrize("d", range(1, 8))
def test_class_sizes_per_window_match_the_pools(d, mode):
    windows = [frozenset({d}), frozenset({0}), whole(d), frozenset({0, d // 2}),
               frozenset(), frozenset(range(d // 2, d + 1))]
    for fixed, pool in zip(windows, candidate_pool(d, mode, windows)):
        classes = conjugacy_classes(d, mode, fixed)
        assert sum(size for _, size in classes) == len(pool)
        assert all(sum(map(int.__eq__, pad[1:], range(1, d + 1))) in fixed
                   for pad, _ in classes)


# delta*d < 1: exact multiplicativity and no fixed point off the identity,
# which is what the closed form counts; the last position of zmod(3), a^-1,
# is forced by (a, a, a^-1), so at d = 15 (44,844,800 members) it derives
# one map where a walk of its pool would try all 44,844,800
@pytest.mark.parametrize("m,d", [(2, d) for d in range(1, 11)]
                         + [(3, d) for d in range(1, 16)])
def test_class_count_matches_closed_form(m, d):
    delta = Fraction(1, d + 1)
    params = family(f"zmod({m})", delta, d)
    assert count_SA(params, (), cap=10 ** 40)[0] == closed_form_count(m, d, delta)


# -- relations at limit 1 ---------------------------------------------------------

# (cycle lengths, chain lengths) as SearchPlan.relations gives them in all
# mode, and the equation t^i = t^j each stands for
IDENTITY, ORDER2, ORDER3, IDEMPOTENT = ((), ()), ((2,), ()), ((3,), ()), ((), (1,))
RELATIONS = [(IDENTITY, (1, 0)), (ORDER2, (2, 0)), (ORDER3, (3, 0)),
             (((4, 2), ()), (4, 0)), (((6, 3, 2), ()), (6, 0)), (IDEMPOTENT, (2, 1))]


def in_mode(relation, mode):
    """The relation in ``mode``: perms mode has no chains."""
    cycles, chains = relation
    return cycles, chains if mode == "all" else ()


def powers(pad, m):
    """pad^0, ..., pad^m of a padded map (pad^0 the identity)."""
    out = [tuple(range(len(pad)))]
    for _ in range(m):
        out.append(tuple(map(pad.__getitem__, out[-1])))
    return out


def r2_hypothesis(delta, d, mode=""):
    """The hypothesis source of ``verify`` on r2.gpd: the identity, the
    flip and the empty bisection."""
    g = transitive_groupoid(2)
    params = LemmaContext(g, full_group_generators(g), 1).hypothesis_params(delta, d)
    return sofic.SAParams(params.source, params.delta, d, mode=mode)


@pytest.mark.parametrize("make,want", [
    (lambda: family("zmod(2)", "1/10", 6), [IDENTITY, ORDER2]),
    (lambda: family("zmod(3)", "1/10", 6), [IDENTITY, ORDER3, ORDER3]),
    # a^2 lies outside the radius-1 ball of zmod(4), so a keeps no relation;
    # at radius 2 the chain a, a^2, a^3 = a^-1 reaches the identity
    (lambda: family("zmod(4)", "1/10", 6), [IDENTITY, None, None]),
    (lambda: ball_params(ball(parse_descriptor("zmod(4)"), 2), Fraction(1, 10), 6),
     [IDENTITY, ((4, 2), ()), ((4, 2), ()), ORDER2]),
    (lambda: r2_hypothesis("1/10", 8), [IDENTITY, ORDER2, IDEMPOTENT]),
    (lambda: r2_hypothesis("1/10", 8, "perms"), [IDENTITY, ORDER2, in_mode(IDEMPOTENT, "perms")]),
    # the sigma source of r2.gpd, a groupoid ball without the empty bisection
    (lambda: swap_model(FAIR).context.sigma_params(Fraction(1, 2), 2), [IDENTITY, ORDER2]),
    # limit 2: a triple admits one disagreement, so no relation holds
    (lambda: family("zmod(2)", "1/4", 5), [None, None]),
    (lambda: family("z", "1/4", 5), [None, None, None]),
    (lambda: r2_hypothesis("1/3", 4), [None, None, None]),
], ids=["zmod2", "zmod3", "zmod4", "zmod4-n2", "r2-hypothesis", "r2-hypothesis-perms",
        "r2-sigma", "zmod2-limit2", "z-limit2", "r2-hypothesis-limit2"])
def test_relations_come_from_the_positions_own_triples(make, want):
    assert SearchPlan(make()).relations == want


# zmod(4) at n = 1 imposes no order on a: not the 6, 0 and 0 homomorphisms
@pytest.mark.parametrize("d,want", [(4, 9), (5, 44), (6, 265)])
def test_zmod4_without_its_relation(d, want):
    params = family("zmod(4)", Fraction(1, d + 1), d)
    assert count_SA(params, (), cap=10 ** 30) == (want, 1)


def interval_windows(d):
    return [frozenset()] + [frozenset(range(lo, hi + 1))
                            for lo in range(d + 1) for hi in range(lo, d + 1)]


# each generated pool is the full pass filtered by its relation's equation,
# in the same order, and its classes are the pool's conjugacy classes
@pytest.mark.parametrize("mode", ["perms", "all"])
@pytest.mark.parametrize("d", range(1, 8))
def test_relation_pools_filter_the_full_pass(d, mode):
    kept = [[] for _ in RELATIONS]
    for pad in candidate_pool(d, mode, [whole(d)])[0]:
        row = powers(pad, 6)
        for maps, (_, (i, j)) in zip(kept, RELATIONS):
            if row[i] == row[j]:
                maps.append(pad)
    for maps, (relation, _) in zip(kept, RELATIONS):
        relation = in_mode(relation, mode)
        for fixed in interval_windows(d):
            pool = relation_pool(d, fixed, relation)
            assert pool == [pad for pad in maps
                            if sum(map(eq, pad, range(d + 1))) - 1 in fixed]
            classes = relation_classes(d, fixed, relation)
            assert sum(size for _, size in classes) == len(pool)
            assert {pad for pad, _ in classes} <= set(pool)


def r3(delta, d, mode="all"):
    g = transitive_groupoid(3)
    return groupoid_params(g, full_group_generators(g), 1, Fraction(delta), d, mode=mode)


def r3_arrow_unit(delta, d):
    """The arrow 0 -> 1 and the projection P onto unit 2 of the 3-point
    relation, in all mode.  Every triple of P's own that holds P once,
    such as (s, s, P) for the sum s of the arrow and P, reads a sum
    resolved at P itself, so none forces P."""
    g = transitive_groupoid(3)
    F = [PartialBisection(g, frozenset(a for a in range(g.n_arrows)
                                       if (g.source[a], g.range_[a]) == pair))
         for pair in ((0, 1), (2, 2))]
    return groupoid_params(g, F, 1, Fraction(delta), d, mode="all")


# (name, make, top): sources at limit 1 (delta*d <= 1), made by
# make(delta, d) for d = 1..top.  The plain search bounds top: zmod(3) and
# zmod(4) at d = 7 take 5 s and 9 s, r3 at d = 6 in all mode and at d = 7
# in perms mode over a minute
LIMIT_1_SOURCES = [
    ("zmod2", partial(family, "zmod(2)"), 7), ("zmod3", partial(family, "zmod(3)"), 6),
    ("zmod4", partial(family, "zmod(4)"), 6),
    ("freeprod", partial(family, "freeprod(zmod(2),zmod(2))"), 7),
    ("r2", partial(r2, "full"), 7), ("r2-hypothesis", r2_hypothesis, 7), ("r3", r3, 5),
    ("r3-perms", lambda delta, d: r3(delta, d, "perms"), 6),
    ("r3-arrow-unit", r3_arrow_unit, 4)]


# every source at limit 1: iter_SA_members yields the members of the plain
# search over one full pass, in its order, and count_SA its counts;
# streams, not lists, keep memory flat
@pytest.mark.parametrize("make,top", [case[1:] for case in LIMIT_1_SOURCES],
                         ids=[case[0] for case in LIMIT_1_SOURCES])
def test_members_match_the_plain_search(make, top):
    for d in range(1, top + 1):
        for delta in sorted({Fraction(1, 10), Fraction(1, d)}):
            params = make(delta, d)
            plan = SearchPlan(params)
            assert plan.limit == 1
            nball = params.source.n_ball
            count = 0
            restrictions = set()
            plain = plan.search(candidate_pool(d, params.mode, plan.windows))
            for slots, member in itertools.zip_longest(plain, iter_SA_members(params)):
                assert member.images == tuple(
                    pperm.PartialPermutation(d, pad[1:]) for pad in slots[:nball])
                count += 1
                restrictions.add(tuple(slots[1:nball]))
            E = tuple(range(1, nball))
            assert count_SA(params, E, cap=10 ** 30) == (count, len(restrictions))
            assert count_SA(params, (), cap=10 ** 30) == (count, min(count, 1))


# each slot of a triple solved from the other two: every pair of
# permutations of degree 4, and in the product slot every pair of maps
# of degree 3
@pytest.mark.parametrize("d,mode", [(4, "perms"), (3, "all")])
def test_forced_map_solves_each_slot(d, mode):
    maps = candidate_pool(d, mode, [whole(d)])[0]
    for a, b in itertools.product(maps, repeat=2):
        slots = [a, b, tuple(map(a.__getitem__, b))]
        for t in range(3) if mode == "perms" else (2,):
            assert sofic._forced_map(t, (0, 1, 2), slots[:t] + [None] + slots[t + 1:]) == slots[t]


def dinfinity(n):
    """make(delta, d) for the radius-n ball of D-infinity, freeprod(zmod(2),zmod(2))."""
    system = parse_descriptor("freeprod(zmod(2),zmod(2))")
    return lambda delta, d: ball_params(ball(system, n), Fraction(delta), d)


# perms mode at limit 2, where a triple of permutations admits no
# disagreement either: positions forced in any slot (a^-1 from (a, a^-1, e)
# on z and zmod(4), ab from (a, b, ab) on D-infinity at n = 2) give the
# members of the plain search over one full pass, in its order, and
# count_SA its counts for every E
@pytest.mark.parametrize("make", [partial(family, "z"), partial(family, "zmod(4)"),
                                  dinfinity(2)], ids=["z", "zmod4", "freeprod-n2"])
def test_limit_2_members_match_the_plain_search(make):
    forced = 0
    for d in range(1, 7):
        for delta in (Fraction(1, 4), Fraction(2, 7)):
            params = make(delta, d)
            plan = SearchPlan(params)
            forced += plan.limit == 2 and any(plan.forced)
            nball = params.source.n_ball
            members = []
            plain = plan.search(candidate_pool(d, params.mode, plan.windows))
            for slots, member in itertools.zip_longest(plain, iter_SA_members(params)):
                assert member.images == tuple(
                    pperm.PartialPermutation(d, pad[1:]) for pad in slots[:nball])
                members.append(tuple(slots[:nball]))
            for size in range(nball + 1):
                for E in itertools.combinations(range(nball), size):
                    restricted = {tuple(images[i] for i in E) for images in members}
                    assert count_SA(params, E, cap=10 ** 30) == (len(members), len(restricted))
    assert forced


def dinfinity_series(n, d):
    """d! [x^d] exp(sum of x^j / j over even j > n), exactly, by g' = f' g
    on the coefficients: the actions of D-infinity on d points in which
    no word of length 1..n fixes a point (every orbit has more than n
    points)."""
    f = [Fraction(1, j) if j % 2 == 0 and j > n else 0 for j in range(d + 1)]
    g = [Fraction(1)]
    for m in range(1, d + 1):
        g.append(sum(k * f[k] * g[m - k] for k in range(1, m + 1)) / m)
    return g[d] * math.factorial(d)


# delta*d < 1: exact multiplicativity and no fixed point off the identity
@pytest.mark.parametrize("n", range(1, 5))
def test_dinfinity_counts_match_the_series(n):
    for d in range(1, 9):
        for delta in (Fraction(1, d + 1), Fraction(1, 10)):
            params = dinfinity(n)(delta, d)
            assert count_SA(params, (), cap=10 ** 60)[0] == dinfinity_series(n, d)


def satisfies(pad, relation):
    """Whether a padded map satisfies the equation t^i = t^j that
    ``RELATIONS`` gives for a relation."""
    i, j = dict(RELATIONS)[relation]
    row = powers(pad, i)
    return row[i] == row[j]


POOL_SOURCES = (
    [(name, lambda make=make, top=top: [make(delta, d) for d in range(1, top + 1)
                                        for delta in sorted({Fraction(1, 10), Fraction(1, d)})])
     for name, make, top in LIMIT_1_SOURCES]
    + [("z-limit2", lambda: [family("z", "1/4", 5)]),
       ("zmod2-all-limit2", lambda: [family("zmod(2)", "1/4", 5, "all")]),
       ("r2-hypothesis-limit2", lambda: [r2_hypothesis("1/3", 4)])])


def forced_positions(params, plan):
    """Per ball position, whether one of its own triples fixes its map:
    a triple that holds it once and ball positions elsewhere, with the
    position the product at limit 1, or in any slot at limit 1 or 2 in
    perms mode."""
    nball, limit = params.source.n_ball, plan.limit
    return [any(ijk.count(t) == 1 and max(ijk) < nball
                and ((limit == 1 and ijk[2] == t) or (params.mode == "perms" and limit <= 2))
                for ijk in own)
            for t, own in enumerate(plan.triples)]


# SearchPlan.pools against the plain pass, for no split and for each
# position as the split: a forced position other than the split gets no
# pool; every other pool is the pass's pool filtered by the position's
# relation, in order; the split pool holds one representative per class
# of that filtered pool, with its size; and the one pass covers just the
# positions not forced, with no relation and two or more maps
@pytest.mark.parametrize("make", [case[1] for case in POOL_SOURCES],
                         ids=[case[0] for case in POOL_SOURCES])
def test_pools_follow_one_rule(make, monkeypatch):
    calls = []
    pool = sofic.candidate_pool
    monkeypatch.setattr(sofic, "candidate_pool",
                        lambda d, mode, windows: calls.append(windows) or pool(d, mode, windows))
    for params in make():
        plan = SearchPlan(params)
        nball = params.source.n_ball
        forced = forced_positions(params, plan)
        assert forced == [triple is not None for triple in plan.forced]
        kept = [maps if relation is None else [pad for pad in maps if satisfies(pad, relation)]
                for maps, relation in zip(pool(params.d, params.mode, plan.windows),
                                          plan.relations)]
        for split in (None, *range(nball)):
            calls.clear()
            pools = plan.pools(split)
            assert calls == [[plan.windows[t] for t in range(nball) if t != split
                              and not forced[t] and plan.relations[t] is None
                              and len(kept[t]) > 1]]
            assert len(pools) == nball
            assert all(pools[t] is None if forced[t] else pools[t] == kept[t]
                       for t in range(nball) if t != split)
            if split is None:
                continue
            types = Counter(tuple(map(tuple, cycle_chain_type(pad[1:])))
                            for pad in kept[split])
            sizes = {tuple(map(tuple, cycle_chain_type(pad[1:]))): size
                     for pad, size in plan.classes(split)}
            assert pools[split] == [pad for pad, _ in plan.classes(split)]
            assert len(sizes) == len(pools[split]) and set(pools[split]) <= set(kept[split])
            assert sizes == types
            assert sum(sizes.values()) == len(kept[split])


# count_SA splits at q, the first position of E whose window admits two or
# more maps, or at p, the first such position of the ball, where E has none;
# a wide window at position 0 puts p outside every E that leaves 0 out.
# (name, make, p); brute force checks the instances of few candidates
SPLIT_INSTANCES = [
    ("zmod2-d4", lambda: family("zmod(2)", "1/3", 4), 1),
    ("r2-arrow-d2", lambda: r2("arrow", "1/2", 2), 1),
    # identity and the six transpositions
    ("zmod2-d4-wide", lambda: family("zmod(2)", "3/4", 4), 0),
    # identity and the three rank-2 partial identities
    ("r2-unit-d3-wide", lambda: r2("unit", "1/2", 3), 0),
    ("zmod2-all-d5-wide", lambda: family("zmod(2)", "1/2", 5, "all"), 0),
    ("zmod3-d5-wide", lambda: family("zmod(3)", "1/2", 5), 0),
    ("freeprod-d4", lambda: family("freeprod(zmod(2),zmod(2))", "1/2", 4), 1),
    ("r2-full-d4-wide", lambda: r2("full", "1/2", 4), 0),
    ("r2-arrow-d3-wide", lambda: r2("arrow", "1", 3), 0),
    ("three-units-d2-wide", lambda: three_units("2/3", 2, "all"), 0),
    ("three-units-d3", lambda: three_units("1/3", 3, "all"), 1),
]


@pytest.mark.parametrize("make,p", [case[1:] for case in SPLIT_INSTANCES],
                         ids=[case[0] for case in SPLIT_INSTANCES])
def test_split_matches_plain_search(make, p, monkeypatch):
    params = make()
    d, nball = params.d, params.source.n_ball
    plan = SearchPlan(params)
    pools = candidate_pool(d, params.mode, plan.windows)
    assert first_branching(pools) == p
    members = [tuple(slots[:nball]) for slots in plan.search(pools)]
    if len(object_pool(d, params.mode)) ** nball <= 2000:
        assert [tuple((0,) + s.images for s in images) for images in
                brute_force(params, object_pool(d, params.mode))] == members
    # each count_SA call runs one search, whose pool at a branching
    # position holds one map per conjugacy class there
    searched = []
    search = SearchPlan.search

    def recorded(plan, split):
        searched.append([len(pool) for pool in split])
        return search(plan, split)

    monkeypatch.setattr(SearchPlan, "search", recorded)
    classes = [len(conjugacy_classes(d, params.mode, fixed)) for fixed in plan.windows]
    everywhere = tuple(range(nball))
    choices = [everywhere, tuple(t for t in everywhere if len(pools[t]) == 1)]
    for size in range(3):
        choices += itertools.combinations(everywhere, size)
    for E in choices:
        restricted = len({tuple(images[i] for i in E) for images in members})
        calls = len(searched)
        assert count_SA(params, E=E) == (len(members), restricted), E
        assert len(searched) == calls + 1
        assert any(len(pool) > got == n for pool, got, n in zip(pools, searched[-1], classes))
    assert count_SA(params, ()) == (len(members), min(len(members), 1))
    # the first index past the ball (a sum of a groupoid's closure), or a
    # negative index, is no ball position
    calls = len(searched)
    for E in ((nball,), (0, -1)):
        with pytest.raises(ValueError, match="outside the ball"):
            count_SA(params, E=E)
        # E is checked before the cap
        with pytest.raises(ValueError, match="outside the ball"):
            count_SA(params, E=E, cap=0)
    assert len(searched) == calls


# -- Monte Carlo trials ----------------------------------------------------------

def three_units(delta, d, mode, radius=1):
    # the arrows 0 -> 1 and 1 -> 2 of the 3-point relation: their ball has
    # orthogonal sums, whose overlapping images reject
    g = transitive_groupoid(3)
    F = [PartialBisection(g, frozenset(a for a in range(g.n_arrows)
                                       if (g.source[a], g.range_[a]) == pair))
         for pair in ((0, 1), (1, 2))]
    return groupoid_params(g, F, radius, delta, d, mode=mode)


# (name, d, make, the outcomes its trials show): a trivial-group trial
# that passes its window is a member, and no three-units trial here is one
ALL_OUTCOMES = {"stopped", "rejected", "member"}
MC_SOURCES = (
    [("zmod(1)", 3, lambda delta, d, mode: family("zmod(1)", delta, d, mode),
      {"stopped", "member"})]
    + [(name, 3, lambda delta, d, mode, name=name: family(name, delta, d, mode),
        ALL_OUTCOMES)
       for name in ("zmod(2)", "zmod(3)", "zmod(4)", "z", "freeprod(zmod(2),zmod(3))")]
    + [("r2", 4, lambda delta, d, mode: r2("full", delta, d, mode), ALL_OUTCOMES),
       ("three-units", 3, three_units, {"stopped", "rejected"})]
)
MC_CASES = [(make, d, mode, outcomes) for _, d, make, outcomes in MC_SOURCES
            for mode in ("perms", "all")]
MC_IDS = [f"{name}-{mode}" for name, *_ in MC_SOURCES for mode in ("perms", "all")]


def mc_deltas(d):
    """Just below, at and just above delta*d = 1 and 2, and one delta > 1."""
    return [Fraction(c, 10 * d) for c in (9, 10, 11, 19, 20, 21)] + [Fraction(3, 2)]


def mc_draw(mode):
    return pperm.random_permutation if mode == "perms" else pperm.random_pperm


def first_failing_position(source, images, delta):
    """The first ball position at which a trial drawing ``images`` fails,
    or None: an image outside its trace window, or a sum that overlaps or
    a triple that disagrees on delta*d or more points, each at the ball
    position that completes it (its largest summand)."""
    need = [max(parts) for parts in source.decomposition]
    value = [reference_resolve(source, images, k) for k in range(source.n_universe)]
    fails = [t for t, s in enumerate(images)
             if abs(pperm.trace(s) - source.taus[t]) >= delta]
    fails += [need[k] for k, v in enumerate(value) if v is OVERLAP]
    fails += [max(need[i], need[j], need[k]) for (i, j, k) in source.triples
              if all(value[x] is not OVERLAP for x in (i, j, k))
              and pperm.uniform_distance(value[k],
                                         pperm.compose(value[i], value[j])) >= delta]
    return min(fails, default=None)


@pytest.mark.parametrize("make,d,mode,outcomes", MC_CASES, ids=MC_IDS)
def test_mc_trials_decide_like_verify_membership(make, d, mode, outcomes,
                                                 monkeypatch):
    # a one-trial run with seed s is the trial SplitMix64(s).spawn(0);
    # drawing every image from that substream gives the reference verdict;
    # a trial whose first output decides position 0 makes no windowed
    # draw; any other calls it once per ball position it reaches and
    # stops at the first position whose window or completed check fails
    draw = mc_draw(mode)
    windowed = pperm.random_images
    drawn = []
    monkeypatch.setattr(pperm, "random_images",
                        lambda d, *rest: drawn.append(d) or windowed(d, *rest))
    seen = set()
    decided_trials = 0
    for delta in mc_deltas(d):
        params = make(delta, d, mode)
        source = params.source
        space = float(search_space_size(params))
        window = [k for k in range(d + 1) if abs(Fraction(k, d) - source.taus[0]) < delta]
        lo, hi = min(window, default=1), max(window, default=0)
        for seed in range(100):
            rng = SplitMix64(seed).spawn(0)
            images = [draw(d, rng) for _ in range(source.n_ball)]
            member = same_report(SoficCandidate(d, images), params).is_member
            outside = [t for t, s in enumerate(images)
                       if abs(pperm.trace(s) - source.taus[t]) >= delta]
            first = first_failing_position(source, images, delta)
            assert member == (first is None)
            drawn.clear()
            estimate, _ = monte_carlo_count(params, 1, seed)
            assert estimate == (space if member else 0.0)
            decided = first_output_rejects(
                SplitMix64(seed).spawn(0).next64(), d, mode == "perms", lo, hi)
            if decided:
                assert first == 0
                decided_trials += 1
            assert len(drawn) == (0 if decided else source.n_ball if first is None
                                  else first + 1)
            seen.add("stopped" if outside else "member" if member else "rejected")
    assert seen == outcomes
    assert decided_trials > 0


def full_draw_estimate(params, trials, seed):
    """The estimator before trials stopped early: every trial draws every
    image and asks the object-level oracle."""
    base = SplitMix64(seed)
    draw = mc_draw(params.mode)
    hits = 0
    for t in range(trials):
        rng = base.spawn(t)
        cand = SoficCandidate(params.d, [draw(params.d, rng)
                                         for _ in range(params.source.n_ball)])
        if reference_verify_membership(cand, params).is_member:
            hits += 1
    space = search_space_size(params)
    rate = Fraction(hits, trials)
    return float(rate * space), float(space) * math.sqrt(rate * (1 - rate) / trials)


# 1025 trials cross a block of sofic.MC_BLOCK = 1024 substream states
MC_TRIAL_CASES = ([(*case[:3], 150) for case in MC_CASES]
                  + [(partial(family, "zmod(2)"), 3, "perms", 1025)])
MC_TRIAL_IDS = MC_IDS + ["zmod(2)-perms-1025"]


@pytest.mark.parametrize("make,d,mode,trials", MC_TRIAL_CASES, ids=MC_TRIAL_IDS)
def test_mc_estimate_matches_the_full_draw_loop(make, d, mode, trials):
    for delta in mc_deltas(d):
        params = make(delta, d, mode)
        assert (monte_carlo_count(params, trials, 11)
                == full_draw_estimate(params, trials, 11))


@pytest.mark.parametrize("make,d,mode,outcomes", MC_CASES, ids=MC_IDS)
def test_mc_estimate_does_not_depend_on_the_block_size(make, d, mode, outcomes,
                                                       monkeypatch):
    # 150 trials in blocks of 1 and of 7 substream states: every block
    # past the first is screened and drawn as the first is
    for delta in mc_deltas(d):
        params = make(delta, d, mode)
        want = monte_carlo_count(params, 150, 5)
        for block in (1, 7):
            monkeypatch.setattr(sofic, "MC_BLOCK", block)
            assert monte_carlo_count(params, 150, 5) == want
        monkeypatch.undo()


@pytest.mark.parametrize("make,d,mode,outcomes", MC_CASES, ids=MC_IDS)
def test_mc_mixes_no_kept_trials_first_output_again(make, d, mode, outcomes,
                                                    monkeypatch):
    # the screen computes each block's first outputs in lanes and hands
    # them to the position-0 draws, so no scalar mix64 reads a start state
    # (positions after 0 mix the state their previous draw left)
    mixed = []
    for module in (pperm, sofic):
        mix = module.mix64
        monkeypatch.setattr(module, "mix64",
                            lambda x, mix=mix: mixed.append(x) or mix(x))
    starts = set(SplitMix64(5).spawn_states(0, 150))
    for delta in mc_deltas(d):
        params = make(delta, d, mode)
        monte_carlo_count(params, 150, 5)
    assert starts.isdisjoint(mixed)
    assert mixed or params.source.n_ball == 1


def test_mc_derives_no_relation_class_or_pool(monkeypatch):
    # the plan a Monte Carlo run builds derives what the search draws from
    # only on first use, and a run uses none of it
    def unreachable(*args):
        raise AssertionError("a Monte Carlo run derived a relation, class or pool")

    want = monte_carlo_count(r2_hypothesis("1/10", 4), 200, 3)
    monkeypatch.setattr(SearchPlan, "relations", property(unreachable))
    for name in ("classes", "pools"):
        monkeypatch.setattr(SearchPlan, name, unreachable)
    for name in ("candidate_pool", "conjugacy_classes", "relation_classes", "relation_pool"):
        monkeypatch.setattr(sofic, name, unreachable)
    assert monte_carlo_count(r2_hypothesis("1/10", 4), 200, 3) == want


# -- the sum closure ------------------------------------------------------------

def swap_model(alphabet):
    # the Bernoulli model of the 2-point relation with the swap, at radius 1
    g = transitive_groupoid(2)
    return CylinderModel(LemmaContext(g, full_group_generators(g), 1), alphabet)


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
    src = GroupoidSource(g, F, 2)
    assert src.n_ball == 11 and src.n_universe == 11 + len(pairs + triples)
    assert list(src.decomposition[11:]) == pairs + triples
    for parts, bis in zip(src.decomposition[11:], src.universe[11:]):
        assert bis.arrows == frozenset().union(
            *(src.universe[i].arrows for i in parts))
