"""Membership, counting and statistics for sofic approximation sets.

A candidate is an assignment of a partial permutation of degree d to
every element of a radius-n ball over a generating set; it belongs to
the approximation set when it is delta-multiplicative over the
orthogonal-sum closure of the ball (products compared by uniform
distance) and delta-trace-preserving on the ball itself.

Two source kinds feed the machinery: symbolic group balls
(:mod:`soficdim.wordball`) where the sum closure adds nothing because
group elements are everywhere defined, and balls of partial bisections
of a finite groupoid, where sums with pairwise orthogonal domains and
ranges genuinely enlarge the universe.  The sum closure takes every
such sum, so it has at most as many summands as the ball has elements;
the membership report of a groupoid source notes that bound.

Counting is exact: candidates are enumerated depth first with pruning
by every multiplicativity constraint whose participants are already
assigned, so the count equals the brute-force one.  The search,
``SearchPlan.search``, compares integers only: distances are multiples
of 1/d, so each position keeps the candidates whose fixed-point count
meets its trace condition, and a product fails at ceil(delta*d)
disagreements.  Both come from one exact routine, ``reach``, which
gives the integers strictly inside delta times a scale
(``fixed_windows``).  A ``SearchPlan`` holds those windows, the limit
and the checks of each position, built once per ``SAParams``; it
leaves out the triples that compose with a position whose window
admits the identity alone, which cannot fail.  The pools the search
draws from are bare image tuples padded with a leading 0, built by
``SearchPlan.pools``, which states their rule.  ``PartialPermutation``
objects are built only for the images ``iter_SA_members`` yields;
``count_SA(..., E=E)`` counts the distinct restrictions to the
positions E, in the same enumeration, as padded tuples.
``verify_membership`` checks one candidate on padded tuples too, with
the search's orthogonal sum and disagreement count.

Both membership conditions are unchanged when every image is conjugated
by one permutation of the points, so ``count_SA`` counts up to
conjugacy, in one search.  At one position q the search draws from one
representative r of each conjugacy class in q's window
(``SearchPlan.classes``: cycle types, and in ``all`` mode
cycle-and-chain types) and weighs each member by the size of its
representative's class: the count is the sum over r of |class(r)|
times the count with position q fixed to r, and with q in E each
restriction, which holds r, weighs |class(r)| too.  q is the first
position of E whose window admits two or more maps.  Where E has no
such position, q is p, the first such position of the ball (the last
position if there is none), and every member restricts to E alike.

At limit ceil(delta*d) = 1 a triple admits no disagreement, so the
triples among ball positions read as equations, and some bind one
position t alone (``SearchPlan.relations``).  A position whose window
is {d} holds the identity.  A chain t t = t2, t t2 = t3, ... that
reaches such a position at step m makes t a permutation whose cycle
lengths divide m (the triple (t, t, e) for m = 2), and (t, t, t) makes
t a partial identity.  Conjugation keeps either relation, so a
position's classes and its pool are generated from the maps that
satisfy it (``relation_classes``, ``relation_pool``) instead of
filtered out of all the maps.

One triple can fix a position t outright (``SearchPlan.forced``): at
limit 1, (i, j, t) holds only for t = i after j, and in ``perms`` mode,
where two different permutations never disagree on exactly one point,
a triple holds exactly at limit 2 as well, so it fixes t in any of its
slots.  The search derives such a position's one map from the
positions before it instead of walking a pool.  A relation of t needs
no check there: it comes from triples that the search checks anyway.

A seeded Monte Carlo estimator and a cycle-type closed form for cyclic
groups extend the statistic beyond enumeration range.  The estimator
decides each trial with the same integer test: a trial stops part-way
through its first draw whose fixed-point count cannot lie in its trace
window, and otherwise runs the search's checks (``_admissible``) as
each image lands, stopping at the first that fails.  Position 0 is
decided for a whole block of trials at once wherever a trial's first
output alone decides it: that output, computed in lanes for every
trial of the block, drops each trial whose first draw it rejects
(``pperm.screen_states``), and every other trial runs from its start
state, its draw at position 0 reading that output as its first.  Each
trial draws from its own substream of the seed, so stopping early, or
before the first draw, changes no other trial's draws and the hits are
those of drawing every image and asking ``verify_membership``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import eq, ne

from . import pperm
from .groupoid import (
    FiniteGroupoid,
    InfeasibleError,
    PartialBisection,
    b_compose,
    b_inverse,
    full_identity,
    tau as b_tau,
)
from .pperm import PartialPermutation, OverlapError, _orthogonal_sum
from .rng import SplitMix64, mix64
from .wordball import Ball, breadth_first, product_triples, word_str


# caps on the bisection ball and on its (or a projection set's) sum closure
BALL_CAP = 4096
SUM_CAP = 20000


# -- sources ------------------------------------------------------------------


class BallSource:
    """Symbolic group ball; the sum closure is the ball itself."""

    is_group = True

    def __init__(self, ball: Ball):
        self.ball = ball
        self.n_ball = len(ball)
        # universe == ball; every element decomposes as itself
        self.decomposition = tuple((i,) for i in range(self.n_ball))
        self.n_universe = self.n_ball
        self.taus = tuple(ball.tau(i) for i in range(self.n_ball))
        self.tau_den, self.tau_nums = common_denominator(self.taus)

    @property
    def triples(self) -> tuple:
        return self.ball.triples

    def key_label(self, i):
        return word_str(self.ball.elements[i])


def common_denominator(values) -> tuple[int, tuple]:
    """(D, nums): the rationals ``values`` as integers over one positive
    denominator D, their least common one, so values[i] = nums[i] / D.
    A sweep that compares gaps over one D compares their numerators,
    with the same order and the same ties.  ``values`` is a sequence."""
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def bisection_ball(g: FiniteGroupoid, F, n: int):
    """Products of at most n elements of F, their inverses and the identity.

    Returns the list of distinct bisections in discovery order (the
    identity first).  The empty bisection appears whenever some product
    vanishes.
    """
    return breadth_first(full_identity(g), plus_minus_set(g, F), b_compose, n,
                         BALL_CAP, "bisection ball")


def plus_minus_set(g: FiniteGroupoid, F):
    """F together with inverses and the identity, deduplicated."""
    out = [full_identity(g)]
    for s in F:
        if s not in out:
            out.append(s)
        si = b_inverse(s)
        if si not in out:
            out.append(si)
    return out


def sum_closure(parts, footprints, join):
    """The parts, then every new ``join`` of two or more parts whose
    footprints (sets) are pairwise disjoint: (elements, index,
    decomposition).

    Families come breadth first, by size and then in the order of their
    prefixes, so each sum keeps a decomposition with the fewest parts.
    A closure of more than ``SUM_CAP`` elements, the parts included,
    raises InfeasibleError.
    """
    elements = list(parts)
    index = {e: i for i, e in enumerate(elements)}
    decomposition = [(i,) for i in range(len(elements))]
    queue = deque(((i,), fp) for i, fp in enumerate(footprints))
    while queue and len(elements) <= SUM_CAP:
        picked, union = queue.popleft()
        if len(picked) >= 2:
            total = join([parts[i] for i in picked])
            if total not in index:
                index[total] = len(elements)
                elements.append(total)
                decomposition.append(picked)
        for j in range(picked[-1] + 1, len(footprints)):
            if not (union & footprints[j]):
                queue.append((picked + (j,), union | footprints[j]))
    if len(elements) > SUM_CAP:
        raise InfeasibleError("sum closure", len(elements), "elements", SUM_CAP)
    return elements, index, decomposition


class GroupoidSource:
    """Ball of bisections of a finite groupoid plus its sum closure.

    ``position`` maps each ball element to its index in ``ball_elements``.
    It holds the ball only, never a sum of the closure, so a lookup of a
    bisection outside the ball finds nothing.  The product table
    ``triples`` takes |universe|^2 products and is built on first read,
    as the word ball's is.
    """

    is_group = False

    def __init__(self, g: FiniteGroupoid, F, n: int):
        self.groupoid = g
        self.F = tuple(F)
        elements = bisection_ball(g, F, n)
        self.ball_elements = tuple(elements)
        self.n_ball = len(elements)
        self.position = {b: i for i, b in enumerate(elements)}
        # a footprint holds the domain units e and the range units as n_units + e
        universe, self._index, decomposition = sum_closure(
            elements, [b.dom_units() | {g.n_units + e for e in b.ran_units()}
                       for b in elements],
            lambda bs: PartialBisection(g, frozenset().union(*(b.arrows for b in bs))))
        self.universe = tuple(universe)
        self.n_universe = len(universe)
        self.decomposition = tuple(decomposition)
        self.taus = tuple(b_tau(b) for b in self.ball_elements)
        self.tau_den, self.tau_nums = common_denominator(self.taus)

    @cached_property
    def triples(self) -> tuple:
        return product_triples(self.universe, self._index, b_compose)

    def key_label(self, i):
        return repr(self.universe[i])


# -- candidates and membership ------------------------------------------------


class SoficCandidate:
    """Images of the ball elements, indexed by ball position."""

    __slots__ = ("degree", "images")

    def __init__(self, degree: int, images):
        self.images = tuple(images)
        self.degree = degree
        for s in self.images:
            if s.degree != degree:
                raise ValueError("image degrees must be uniform")

    def restriction(self, positions) -> tuple:
        return tuple(self.images[i] for i in positions)

    def __eq__(self, other):
        return (isinstance(other, SoficCandidate)
                and self.degree == other.degree and self.images == other.images)

    def __hash__(self):
        return hash((self.degree, self.images))


@dataclass(frozen=True)
class MembershipReport:
    """Worst gaps of a candidate against the two defining conditions.

    ``is_member`` is equivalent to both worst gaps being below delta as
    long as the additive extension to the sum closure resolves, which
    is automatic for group sources; an unresolvable extension (images
    of orthogonal summands overlapping) is recorded in ``notes`` and
    forces ``is_member`` to False.
    """

    is_member: bool
    mult_gap: Fraction
    mult_witness: tuple
    trace_gap: Fraction
    trace_witness: str
    delta: Fraction
    degree: int
    notes: tuple

    def to_json_dict(self):
        return {
            "is_member": self.is_member,
            "mult_gap": float(self.mult_gap),
            "mult_witness": list(self.mult_witness),
            "trace_gap": float(self.trace_gap),
            "trace_witness": self.trace_witness,
            "delta": float(self.delta),
            "degree": self.degree,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SAParams:
    """One finite counting problem: source, tolerance, degree.

    ``mode`` selects the candidate pool: "perms" enumerates total
    permutations only (the sensible default for group sources, where a
    small tolerance forces near-total domains), "all" the full partial
    permutation monoid, which is the reference semantics.
    """

    source: object
    delta: Fraction
    d: int
    mode: str = ""

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.mode:
            object.__setattr__(self, "mode",
                               "perms" if self.source.is_group else "all")
        if self.mode not in ("perms", "all"):
            raise ValueError("mode must be 'perms' or 'all'")


def ball_params(ball: Ball, delta, d: int, mode: str = "") -> SAParams:
    return SAParams(BallSource(ball), Fraction(delta), d, mode=mode)


def _first_largest(gaps):
    """The first (key, gap) pair of ``gaps`` whose gap is the largest
    above 0, or ``(None, 0)`` when no gap is above it.

    This is the witness rule of every report that sweeps for a worst
    gap (membership, ``crossed.verify_HA``, ``crossed.build_phi0`` and
    the c1 and c2 bounds): the first of the largest gaps names the
    witness, and a sweep whose every gap is 0 names none.  Every report
    sweeps integer numerators over one positive denominator per sweep
    (a disagreement count over d, or ``common_denominator``), which keep
    the order and the ties of the gaps, and builds a Fraction only for
    the gap it reports.
    """
    key, worst = None, 0
    for k, gap in gaps:
        if gap > worst:
            key, worst = k, gap
    return key, worst


def verify_membership(sigma: SoficCandidate, params: SAParams) -> MembershipReport:
    """Exact worst-case gaps of sigma against the two conditions; each
    witness is the first position, or triple, of the largest gap.

    It counts on padded image tuples as the search does: each sum of
    the closure is the ``_orthogonal_sum`` of its summands' images, an
    OverlapError flagging it, and a triple's gap is its disagreement
    count over d.  A triple that reads a flagged sum is skipped and a
    flag rejects the candidate.  Every sum is resolved up front; the
    ball holds the identity, so the triple (identity, k, k) reads every
    sum k and a flag is raised exactly when some triple meets one.
    """
    source = params.source
    if len(sigma.images) != source.n_ball:
        raise KeyError(f"assignment covers {len(sigma.images)} of "
                       f"{source.n_ball} ball elements")
    if sigma.degree != params.d:
        raise ValueError("candidate degree disagrees with params")
    d = params.d
    notes = []
    if not source.is_group:
        # no sum has more summands than the ball has elements
        notes.append(f"sum closure truncated at m={source.n_ball} summands;"
                     " images extended additively")
    # |nfix/d - tau| over the source's one denominator T of its taus
    T = source.tau_den
    i, trace_num = _first_largest(enumerate(
        abs(s.nfix * T - t * d) for s, t in zip(sigma.images, source.tau_nums)))
    trace_gap = Fraction(trace_num, T * d)
    trace_witness = "" if i is None else source.key_label(i)
    slots = [(0,) + s.images for s in sigma.images]
    for parts in source.decomposition[source.n_ball:]:
        try:
            slots.append(_orthogonal_sum([slots[i] for i in parts]))
        except OverlapError:
            slots.append(None)
    flagged = None in slots
    # a triple that reads a flagged sum counts 0, so it names no witness
    counts = [0 if None in (slots[i], slots[j], slots[k])
              else sum(map(ne, map(slots[i].__getitem__, slots[j]), slots[k]))
              for i, j, k in source.triples]
    ijk, worst = _first_largest(zip(source.triples, counts))
    mult_witness = ("", "") if ijk is None else tuple(map(source.key_label, ijk[:2]))
    mult_gap = Fraction(worst, d)
    if flagged:
        notes.append("additive extension unresolvable on some sums"
                     " (overlapping images); candidate rejected")
    member = (not flagged) and mult_gap < params.delta and trace_gap < params.delta
    return MembershipReport(member, mult_gap, mult_witness, trace_gap,
                            trace_witness, params.delta, params.d, tuple(notes))


# -- enumeration ---------------------------------------------------------------


def candidate_pool(d: int, mode: str, windows) -> list[list[tuple]]:
    """Per position, the maps of ``mode`` whose fixed-point count is in
    that position's window (see ``fixed_windows``), in the order of
    ``pperm.iter_images``.

    Each map is its image tuple padded with a leading 0, so that
    ``a[b[x]]`` composes two padded maps.  One pass over the images
    sends each tuple to the lists whose window holds its fixed-point
    count; equal windows share one list, and a tuple that no window
    admits is dropped unpadded.  No window, no pass.
    """
    if not windows:
        return []
    shared = {fixed: [] for fixed in windows}
    into = [[] for _ in range(d + 1)]  # into[k]: the lists admitting k
    for fixed, kept in shared.items():
        for k in fixed:
            into[k].append(kept)
    points = range(1, d + 1)
    for images in pperm.iter_images(d, total=(mode == "perms")):
        targets = into[sum(map(eq, images, points))]
        if targets:
            pad = (0,) + images
            for kept in targets:
                kept.append(pad)
    return [shared[fixed] for fixed in windows]


def _partitions(n: int, parts: tuple):
    """Partitions of n into the given parts, a decreasing sequence, as
    non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for i, part in enumerate(parts):
        if part <= n:
            for rest in _partitions(n - part, parts[i:]):
                yield (part,) + rest


def conjugacy_classes(d: int, mode: str, window) -> list[tuple[tuple, int]]:
    """(representative, class size) for every class of maps of ``mode``
    under conjugation by the permutations of {1..d} whose fixed-point
    count lies in ``window``; a representative is padded as in
    ``candidate_pool``.

    A map splits its points into cycles and, for a partial map, chains
    x1 -> ... -> xl with x1 outside the range and xl outside the
    domain (a point outside both is a chain of one point).  Two maps
    are conjugate exactly when they have the same number f_c of
    c-cycles and g_l of chains of l points, and conjugating by g fixes
    a map when g rotates its cycles and permutes its equal cycles and
    equal chains, so a class holds
    d! / (prod_c c^{f_c} f_c! * prod_l g_l!) maps.  The fixed-point
    count is f_1.  In ``perms`` mode the classes are the cycle types.
    These are the classes of ``relation_classes`` with every length
    allowed: cycles of 2..d points, and chains of 1..d points in
    ``all`` mode.
    """
    chains = range(d, 0, -1) if mode == "all" else ()
    return relation_classes(d, window, (range(d, 1, -1), chains))


def relation_classes(d: int, window, relation) -> list[tuple[tuple, int]]:
    """The classes of ``conjugacy_classes`` whose maps satisfy
    ``relation``, one of ``SearchPlan.relations``: (cycle lengths, chain
    lengths), each decreasing, that a map other than its fixed points
    may have.  Each class is one cycle-and-chain type, and its
    size is that of ``conjugacy_classes``.
    """
    cycle_lengths, chain_lengths = relation
    classes = []
    for nfix in sorted(window):
        rest = d - nfix
        for cycled in range(rest, -1, -1) if chain_lengths else (rest,):
            for cycles in _partitions(cycled, cycle_lengths):
                for chains in _partitions(rest - cycled, chain_lengths):
                    images = list(range(1, nfix + 1))
                    for length in cycles:
                        start = len(images) + 1
                        images += range(start + 1, start + length)
                        images.append(start)
                    for length in chains:
                        start = len(images) + 1
                        images += range(start + 1, start + length)
                        images.append(0)
                    fixers = factorial(nfix)
                    for length in set(cycles):
                        f = cycles.count(length)
                        fixers *= length ** f * factorial(f)
                    for length in set(chains):
                        fixers *= factorial(chains.count(length))
                    classes.append(((0, *images), factorial(d) // fixers))
    return classes


def _image_order(pad) -> tuple:
    """The place of a padded map in the order of ``pperm.iter_images``:
    domain size, domain, range, then the images."""
    dom = [x for x in range(1, len(pad)) if pad[x]]
    return len(dom), dom, sorted(pad[x] for x in dom), pad


def relation_pool(d: int, window, relation) -> list[tuple]:
    """Every map of ``relation_classes(d, window, relation)``, padded, in
    the order of ``pperm.iter_images``; the relation's chains, if any,
    have one point each.

    The maps are built point by point: the smallest point not yet
    placed is fixed, a chain of one point, or the first point of a
    cycle of an allowed length through points not yet placed.  A branch
    stops once its fixed points pass the window or can no longer reach
    it.
    """
    cycle_lengths, chain_lengths = relation
    if not window:
        return []
    lo, hi = min(window), max(window)
    pad = [0] * (d + 1)
    maps = []

    def place(free, nfix):
        if nfix + len(free) < lo:
            return
        if not free:
            if nfix in window:
                maps.append(tuple(pad))
            return
        x, rest = free[0], free[1:]
        if nfix < hi:
            pad[x] = x
            place(rest, nfix + 1)
        if chain_lengths:
            pad[x] = 0
            place(rest, nfix)
        for length in cycle_lengths:
            for others in permutations(rest, length - 1):
                cycle = (x, *others)
                for a, b in zip(cycle, (*others, x)):
                    pad[a] = b
                place(tuple(y for y in rest if y not in others), nfix)

    place(tuple(range(1, d + 1)), 0)
    return sorted(maps, key=_image_order)


def search_space_size(params: SAParams) -> int:
    pool = factorial(params.d) if params.mode == "perms" else pperm.monoid_size(params.d)
    return pool ** params.source.n_ball


def reach(delta, scale: int) -> int:
    """The largest integer m with m < delta * scale.

    For a rational delta >= 0 (a Fraction or an int), the integers
    strictly within delta * scale of 0 are those of absolute value at
    most ``reach(delta, scale)``, -1 when there are none.  With
    delta = a/b, m < a scale / b exactly when m <= (a scale - 1) // b.
    """
    return (delta.numerator * scale - 1) // delta.denominator


def fixed_windows(d: int, centres, delta) -> list[frozenset]:
    """Per position, the fixed-point counts k in 0..d with
    |k/d - centre| < delta.

    With d*centre = p/q in lowest terms, |k/d - centre| < delta exactly
    when |q k - p| < delta d q, that is when |q k - p| <= r for
    r = ``reach(delta, d*q)``: the window is the interval of k from
    ceil((p - r)/q) to floor((p + r)/q), clipped to 0..d, and empty
    when no k lies there.
    """
    windows = []
    for centre in centres:
        p, q = (Fraction(centre) * d).as_integer_ratio()
        r = reach(delta, d * q)
        lo, hi = max(-((r - p) // q), 0), min((p + r) // q, d)
        windows.append(frozenset(range(lo, hi + 1)))
    return windows


def _forced_map(t, triple, slots) -> tuple:
    """The padded map at position t that makes ``triple`` (i, j, k) hold
    exactly, given its other two maps in ``slots``: slots[i] after
    slots[j] where t is k; otherwise the permutation solving
    slots[k] = t after slots[j] (t = k after j^-1) or
    slots[k] = slots[i] after t (t = i^-1 after k)."""
    i, j, k = triple
    if k == t:
        return tuple(map(slots[i].__getitem__, slots[j]))
    pad = [0] * len(slots[k])
    if i == t:
        for x, y in zip(slots[j], slots[k]):
            pad[x] = y
        return tuple(pad)
    for x, y in enumerate(slots[i]):
        pad[y] = x
    return tuple(map(pad.__getitem__, slots[k]))


def _admissible(t, slots, sums, triples, limit) -> bool:
    """Whether the assignment in ``slots`` passes the checks that
    position t completes.

    Each (k, parts) in ``sums[t]`` sets ``slots[k]`` to the orthogonal
    sum of the padded images at ``parts``, an OverlapError rejecting,
    and each (i, j, k) in ``triples[t]`` rejects when ``slots[k]``
    disagrees with ``slots[i]`` after ``slots[j]`` on ``limit`` or more
    points.
    """
    for k, parts in sums[t]:
        try:
            slots[k] = _orthogonal_sum([slots[i] for i in parts])
        except OverlapError:
            return False
    for (i, j, k) in triples[t]:
        a = slots[i]
        if sum(map(ne, map(a.__getitem__, slots[j]), slots[k])) >= limit:
            return False
    return True


class SearchPlan:
    """The membership search of one SAParams, planned once.

    ``windows`` holds each ball position's fixed-point window (its
    trace condition, ``fixed_windows`` at delta), ``limit`` the
    disagreements that reject a triple, the fewest c with c/d >= delta,
    ``reach(delta, d) + 1`` = ceil(delta*d), and ``sums`` and
    ``triples`` what each ball position completes.  A sum resolves at
    the ball position that completes it, and an overlap of its
    summands' images rejects there: the sum takes part in the triple
    (identity, sum, sum), so this drops exactly the candidates that
    triple would.

    ``relations``, ``forced``, ``classes`` and ``pools`` build what
    the search draws from (see ``pools``).  Each is derived on first
    use, so a Monte Carlo run, which builds no pool, derives none of
    them.

    The plan leaves out every triple (e, j, j) and (j, e, j) of a ball
    position e of trace 1, which cannot reject.  The window of e holds
    only fixed-point counts k with d - k < delta*d.  A map s with k
    fixed points moves d - k points, so s after t and t after s differ
    from t on at most d - k points for any map t (t is injective, and
    t after s agrees with t at every fixed point of s).  As
    d - k < delta*d <= ceil(delta*d), the limit, such a triple never
    reaches it.
    """

    def __init__(self, params: SAParams):
        source = params.source
        self.params = params
        self.d = params.d
        self.n_universe = source.n_universe
        self.windows = fixed_windows(params.d, source.taus, params.delta)
        self.limit = reach(params.delta, params.d) + 1
        need = [max(parts) for parts in source.decomposition]
        self.sums = [[] for _ in range(source.n_ball)]
        self.triples = [[] for _ in range(source.n_ball)]
        for k in range(source.n_ball, source.n_universe):
            self.sums[need[k]].append((k, source.decomposition[k]))
        identity = {e for e, tau in enumerate(source.taus) if tau == 1}
        for (i, j, k) in source.triples:
            if (k == j and i in identity) or (k == i and j in identity):
                continue
            self.triples[max(need[i], need[j], need[k])].append((i, j, k))
        self._classes = {}

    @cached_property
    def relations(self) -> list:
        """Per ball position, the relation that its own triples impose,
        as the (cycle lengths, chain lengths) that ``relation_classes``
        reads, or None.

        Relations hold only at limit 1, where a triple admits no
        disagreement, and come only from triples of ball positions.  An
        identity position, whose window is {d}, takes the identity: no
        cycle, no chain.  A chain of triples (t, t, t2), (t, t2, t3), ...
        that reaches an identity position at step m makes t a
        permutation whose m-th power is the identity: its cycle lengths
        divide m.  Otherwise a triple (t, t, t) makes t idempotent, a
        partial identity: its chains have one point (in ``perms`` mode
        it is the identity).  Both relations are invariant under
        conjugation.
        """
        n, d = self.params.source.n_ball, self.d
        if self.limit != 1:
            return [None] * n
        identity = {t for t, fixed in enumerate(self.windows) if fixed == {d}}
        product = {(i, j): k for i, j, k in self.params.source.triples
                   if max(i, j, k) < n}
        one_point = (1,) if self.params.mode == "all" else ()
        relations = []
        for t in range(n):
            m, power, seen = 1, t, set()
            while power is not None and power not in identity and power not in seen:
                seen.add(power)
                m += 1
                power = product.get((t, power))
            if power in identity:
                relations.append((tuple(c for c in range(m, 1, -1) if m % c == 0), ()))
            elif product.get((t, t)) == t:
                relations.append(((), one_point))
            else:
                relations.append(None)
        return relations

    @cached_property
    def forced(self) -> list:
        """Per ball position t, the first of its own triples that fixes
        its map, or None: a triple of ``triples[t]`` that holds t once
        and ball positions in its other two slots, with t the product
        at limit 1, or in any slot at limit 1 or 2 in ``perms`` mode.

        At limit 1 a triple admits no disagreement, so (i, j, t) holds
        only for t = i after j.  Two different permutations never
        disagree on exactly one point, so in ``perms`` mode a triple
        admits none at limit 2 either, and (i, t, k) holds only for
        t = i^-1 after k, (t, j, k) only for t = k after j^-1.  The
        other two positions come before t, so the map is known when the
        search reaches t (``_forced_map``), and every other map of t's
        pool fails that triple.
        """
        n, limit = self.params.source.n_ball, self.limit
        exact = self.params.mode == "perms" and limit <= 2
        return [next((ijk for ijk in own if ijk.count(t) == 1 and max(ijk) < n
                      and (exact or (limit == 1 and ijk[2] == t))), None)
                for t, own in enumerate(self.triples)]

    def classes(self, t) -> list[tuple[tuple, int]]:
        """The (representative, class size) pairs of the conjugacy
        classes that ball position t's window admits, restricted to the
        maps of t's relation where it has one (``relation_classes``,
        else ``conjugacy_classes``).  Positions with equal windows and
        relations share one list, computed once per plan."""
        key = self.windows[t], self.relations[t]
        if key not in self._classes:
            fixed, relation = key
            self._classes[key] = (conjugacy_classes(self.d, self.params.mode, fixed)
                                  if relation is None
                                  else relation_classes(self.d, fixed, relation))
        return self._classes[key]

    def pools(self, split) -> list[list[tuple]]:
        """Per ball position, the padded maps that the search draws from
        there, by the first rule that applies:

        1. at ``split``, a ball position or None, one representative of
           each of its ``classes``;
        2. None at a ``forced`` position: the search derives its map;
        3. the maps of the position's relation, generated in the order
           of ``pperm.iter_images`` (``relation_pool``);
        4. where the position's classes hold at most one map, that map
           (or none): a window that admits a single map admits a map
           that every conjugation fixes (the identity, or the empty
           map);
        5. the position's list from one ``candidate_pool`` pass over the
           windows of the positions that reach this rule, which passes
           over no map when none does.

        Every pool of rules 3 to 5 holds exactly the maps of the full
        pass that satisfy the position's relation, in the same order,
        and at a forced position the derived map is the one map of the
        full pass that can pass the triple that forces it, so with split
        None the search yields the members, in their order, of a search
        over the full pass.  A relation needs no check at a forced
        position: it comes from triples that the search checks anyway,
        or that cannot fail.
        """
        pools, passed = [], []
        for t, (fixed, relation) in enumerate(zip(self.windows, self.relations)):
            if t != split and self.forced[t] is not None:
                pools.append(None)
            elif t != split and relation is not None:
                pools.append(relation_pool(self.d, fixed, relation))
            elif t == split or sum(size for _, size in self.classes(t)) <= 1:
                pools.append([pad for pad, _ in self.classes(t)])
            else:
                passed.append(t)
                pools.append(None)
        shared = candidate_pool(self.d, self.params.mode, [self.windows[t] for t in passed])
        for t, pool in zip(passed, shared):
            pools[t] = pool
        return pools

    def search(self, pools):
        """Yield the slot list at every member whose image at each ball
        position comes from that position's pool (as ``pools`` or
        ``candidate_pool`` makes them), depth first in pool order: its
        first ``len(pools)`` entries are the members' padded images, and
        the list is reused, so copy from it.

        Position t takes a padded image tuple of ``pools[t]`` into the
        slot list and keeps it when ``_admissible`` passes t.  Where
        ``pools[t]`` is None, t is ``forced`` and its one candidate is
        the map its forcing triple derives, kept when its fixed-point
        count lies in t's window; any other map of t's window fails
        that triple, so the members and their order are those of a walk
        over the full window.  Pools given as lists at every position
        are walked as they are.
        """
        n = len(pools)
        sums, triples, limit = self.sums, self.triples, self.limit
        forced, windows, points = self.forced, self.windows, range(self.d + 1)
        slots = [None] * self.n_universe

        def walk(t):
            if t == n:
                yield slots
                return
            pool = pools[t]
            if pool is None:
                pad = _forced_map(t, forced[t], slots)
                pool = (pad,) if sum(map(eq, pad, points)) - 1 in windows[t] else ()
            for pad in pool:
                slots[t] = pad
                if _admissible(t, slots, sums, triples, limit):
                    yield from walk(t + 1)

        yield from walk(0)
        del walk  # walk refers to itself; dropping it frees the pools at once


def iter_SA_members(params: SAParams):
    """Depth-first enumeration of all members, deterministic order.

    Constraints are applied as soon as every participant is assigned,
    so the pruned search yields exactly the brute-force member set.
    Only the members' images are built as ``PartialPermutation``
    objects.  The pools are ``SearchPlan.pools(None)``, so the members
    come in the order of a search over the full pass.
    """
    d = params.d
    plan = SearchPlan(params)
    n = params.source.n_ball
    for slots in plan.search(plan.pools(None)):
        yield SoficCandidate(d, tuple(PartialPermutation(d, pad[1:]) for pad in slots[:n]))


# most candidates an exact count may search; ``count --cap`` overrides it
DEFAULT_COUNT_CAP = 10 ** 8


def count_SA(params: SAParams, E, cap=None):
    """``(count, restricted_count)``: the exact number of members and of
    their distinct restrictions to E, by one pruned search weighed by
    conjugacy class sizes.

    The search keeps, per ball position, only the candidates whose
    fixed-point count meets the trace condition, and rejects a triple
    at ceil(delta*d) disagreements, so it compares integers only.
    E is a collection of ball positions, possibly empty (at most one
    restriction then); a position outside the ball, such as a sum of
    the closure, raises ValueError.

    p is the first position whose ``SearchPlan.classes`` hold two or
    more maps (the last position if none does), and q the first such
    position of E, or p where there is none; a position up to p with no
    class makes the count 0 at once.  The search draws from
    ``SearchPlan.pools(q)``, so the positions before p take their one
    map each, which every conjugation fixes, and q one representative
    per class.  Each member adds the class size of its map at q to the
    count.  With q in E each restriction holds that representative and
    weighs its class size; otherwise every member restricts to E alike.
    The class sizes find p and q, so no map is enumerated for either.

    A search space above ``cap`` raises InfeasibleError.  With no
    ``cap`` the cap is ``DEFAULT_COUNT_CAP`` as it reads when the call
    runs; ``count --cap`` passes its value here.
    """
    positions = tuple(E)
    if not all(0 <= t < params.source.n_ball for t in positions):
        raise ValueError(f"E {positions} holds positions outside the ball")
    space = search_space_size(params)
    cap = DEFAULT_COUNT_CAP if cap is None else cap
    if space > cap:
        raise InfeasibleError("search space", space, "candidates", cap)
    plan = SearchPlan(params)
    for p in range(params.source.n_ball):
        classes = plan.classes(p)
        if not classes:
            return 0, 0
        if sum(size for _, size in classes) > 1:
            break
    q = next((t for t in sorted(positions)
              if sum(size for _, size in plan.classes(t)) > 1), p)
    weight = dict(plan.classes(q))
    count = 0
    restrictions = set()
    for slots in plan.search(plan.pools(q)):
        count += weight[slots[q]]
        restrictions.add(tuple(slots[i] for i in positions))
    if q not in positions:  # every member restricts to E alike
        return count, min(count, 1)
    return count, sum(weight[r[positions.index(q)]] for r in restrictions)


NEG_INF = float("-inf")


def statistic_from_count(count: int, d: int) -> float:
    """log(count) / (d log d); 0 for a single member, -inf for none."""
    if count == 0:
        return NEG_INF
    if count == 1 or d == 1:
        return 0.0
    return math.log(count) / (d * math.log(d))


def restricted_statistic(params: SAParams, E) -> tuple[int, float]:
    """Distinct restrictions to E among members, and the log statistic.

    E is a collection of ball positions (indices into the source ball).
    The empty E yields one restriction whenever any member exists.  A
    search space above ``DEFAULT_COUNT_CAP`` raises InfeasibleError, as
    in ``count_SA`` with no cap.
    """
    _, count_e = count_SA(params, E=E)
    return count_e, statistic_from_count(count_e, params.d)


# -- Monte Carlo ---------------------------------------------------------------


# trials per block of substream states: a constant, so memory does not grow
# with the trial count
MC_BLOCK = 1024


def monte_carlo_count(params: SAParams, trials: int, seed: int) -> tuple[float, float]:
    """Uniform-sampling estimate of the member count with binomial stderr.

    Trial t draws one image per ball position, in position order and
    uniformly from the candidate pool, from the substream
    ``SplitMix64(seed).spawn(t)``.  The trials run on bare integer
    states, in blocks of ``MC_BLOCK`` whose start states
    ``spawn_states`` computes at once.  ``pperm.screen_states`` then
    drops each trial of the block whose first output, ``mix64`` of its
    state computed in lanes for the whole block, already rejects its
    draw at position 0, and the others run from their start states,
    their draws at position 0 taking that output as their first; a draw
    at a later position is given ``mix64`` of the state the draw before
    it left.  A trial decides membership with the integer test of
    ``count_SA``: ``pperm.random_images`` stops a draw, part-way, as
    soon as its fixed-point count cannot lie in its position's trace
    window, and as each image lands the trial runs the checks of the
    search plan that its position completes, the sums (an overlap
    rejecting) and the triples.  The first failure ends the trial.  As
    each trial owns its substream, the draws a stopped or dropped trial
    skips change no other trial, and a draw that lands in its window
    equals the full draw, so the hits equal those of drawing every
    image in full and asking ``verify_membership``, which checks one
    candidate with the same orthogonal sum and disagreement count.

    Raises ValueError when the search space is too large for the float
    estimate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space = search_space_size(params)
    try:
        scale = float(space)
    except OverflowError:
        raise ValueError(f"search space of about 10^{math.log10(space):.1f} "
                         "candidates is beyond the float range of the estimate") from None
    d = params.d
    total = params.mode == "perms"
    plan = SearchPlan(params)
    sums, triples, limit = plan.sums, plan.triples, plan.limit
    # |k/d - tau| < delta holds on an interval of counts k, maybe empty;
    # only a position that completes a sum or a triple has checks to run
    windows = [(t, min(fixed, default=1), max(fixed, default=0),
                bool(sums[t] or triples[t]))
               for t, fixed in enumerate(plan.windows)]
    slots: list = [None] * plan.n_universe
    draw = pperm.random_images
    _, lo0, hi0, _ = windows[0]
    base = SplitMix64(seed)
    hits = 0
    for start in range(0, trials, MC_BLOCK):
        states = base.spawn_states(start, min(MC_BLOCK, trials - start))
        for state, first in pperm.screen_states(d, total, lo0, hi0, states):
            for t, lo, hi, checked in windows:
                if t:
                    first = mix64(state)
                slots[t], state = draw(d, total, lo, hi, state, first)
                if slots[t] is None or (checked and not _admissible(
                        t, slots, sums, triples, limit)):
                    break
            else:
                hits += 1
    rate = Fraction(hits, trials)
    estimate = float(rate * space)
    stderr = scale * math.sqrt(rate * (1 - rate) / trials)
    return estimate, stderr


# -- closed form for cyclic groups ----------------------------------------------


def closed_form_count(m: int, d: int, delta) -> int:
    """Exact count of the strict candidates for the cyclic group of order m.

    A strict candidate is a total permutation pi with pi^m = identity
    whose every nontrivial power has at most delta*d fixed points (the
    trace conditions of the group made exact).  Such pi have cycle
    lengths dividing m, and Fix(pi^j) = sum over c | j of c*f_c, so the
    count is a sum of d! / prod_c (c^{f_c} f_c!) over admissible
    cycle-type vectors (f_c)_{c | m}.  Agrees with exhaustive
    enumeration of the same set and extends the statistic far beyond
    enumeration range.

    The trace window here keeps fixed-point counts *at most*
    floor(delta*d), where ``count_SA`` keeps k with |k/d - tau| < delta
    *strictly*.  The two differ when delta*d is an integer: for
    ``zmod(2)`` at d = 5, delta = 1/5 this counts 15 involutions with
    one fixed point, and ``count`` prints 0.  ``curve --delta 0`` needs
    the "at most" form.

    The enumeration prunes as it goes.  Each Fix(pi^j), j < m, never
    decreases as cycles are added, so once raising f_c puts one of them
    above floor(delta*d), every larger f_c fails too and that loop stops.
    The last level is closed: m divides no j < m, so f_m = remaining/m
    is forced (or no type exists) and adds to no fixed count.  The
    quotient d! / prod is carried down the path, one small exact
    division per cycle added.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    max_fixed = math.floor(Fraction(delta) * d)
    if m > 1 and max_fixed < 0:
        return 0
    divs = [c for c in range(1, m) if m % c == 0]  # c = m: the closed last level
    fixed = [0] * m  # fixed[j] = Fix(pi^j) of the partial type, 0 < j < m
    total = 0

    def assign(idx, remaining, ways):
        nonlocal total
        if idx == len(divs):
            f, rest = divmod(remaining, m)
            if rest == 0:
                total += ways // (m ** f * factorial(f))
            return
        c = divs[idx]
        powers = range(c, m, c)
        f = 0
        while True:
            assign(idx + 1, remaining, ways)
            if remaining < c:
                break
            f += 1
            remaining -= c
            ways //= c * f
            for j in powers:
                fixed[j] += c
            if any(fixed[j] > max_fixed for j in powers):
                break
        for j in powers:
            fixed[j] -= c * f

    assign(0, d, factorial(d))
    return total


def closed_form_statistic(m: int, d: int, delta) -> tuple[int, float]:
    count = closed_form_count(m, d, delta)
    return count, statistic_from_count(count, d)
