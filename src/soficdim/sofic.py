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
ranges genuinely enlarge the universe.  The sum closure is truncated at
``m`` summands (default d) and the truncation is recorded in every
membership report.

Counting is exact: candidates are enumerated depth first with pruning
by every multiplicativity constraint whose participants are already
assigned, so the count equals the brute-force one.  The search, which
also enumerates the maps phi of ``crossed.ha_statistic_with_sa``,
compares integers only: distances are multiples of 1/d, so each
position keeps the candidates whose fixed-point count meets its trace
condition, and a product fails at ceil(delta*d) disagreements.
``count_SA(..., E=E)`` also counts the distinct restrictions to the
positions E in the same enumeration.  A seeded Monte Carlo estimator
and a cycle-type closed form for cyclic groups extend the statistic
beyond enumeration range.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from operator import ne

from . import pperm
from .groupoid import (
    FiniteGroupoid,
    PartialBisection,
    b_compose,
    b_inverse,
    full_identity,
    tau as b_tau,
)
from .pperm import PartialPermutation, OverlapError
from .rng import SplitMix64
from .wordball import Ball, word_str


class InfeasibleError(RuntimeError):
    """Search space exceeds the configured cap."""

    def __init__(self, space_size, cap):
        super().__init__(f"search space of {space_size} candidates exceeds cap {cap}")
        self.space_size = space_size
        self.cap = cap


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
        self.triples = tuple((i, j, k) for (i, j), k in sorted(ball.mult.items()))
        self.taus = tuple(ball.tau(i) for i in range(self.n_ball))

    def key_label(self, i):
        return word_str(self.ball.elements[i])

    def descriptor(self):
        return f"{self.ball.system.descriptor()} ball n={self.ball.radius}"


def bisection_ball(g: FiniteGroupoid, F, n: int, cap: int = 4096):
    """Products of at most n elements of F, their inverses and the identity.

    Returns the list of distinct bisections in discovery order (the
    identity first).  The empty bisection appears whenever some product
    vanishes.
    """
    steps = plus_minus_set(g, F)
    elements = [full_identity(g)]
    seen = {elements[0]}
    frontier = list(elements)
    for _ in range(n):
        nxt = []
        for u in frontier:
            for s in steps:
                w = b_compose(u, s)
                if w not in seen:
                    seen.add(w)
                    elements.append(w)
                    nxt.append(w)
                    if len(elements) > cap:
                        raise InfeasibleError(len(elements), cap)
        frontier = nxt
        if not frontier:
            break
    return elements


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


def sum_closure(parts, footprints, m: int, join, cap: int):
    """The parts, then every new ``join`` of 2..m parts whose footprints
    (sets) are pairwise disjoint: (elements, index, decomposition).

    Families come breadth first, by size and then in the order of their
    prefixes, so each sum keeps a decomposition with the fewest parts.
    """
    elements = list(parts)
    index = {e: i for i, e in enumerate(elements)}
    decomposition = [(i,) for i in range(len(elements))]
    queue = deque(((i,), fp) for i, fp in enumerate(footprints))
    while queue:
        picked, union = queue.popleft()
        if len(picked) >= 2:
            total = join([parts[i] for i in picked])
            if total not in index:
                index[total] = len(elements)
                elements.append(total)
                decomposition.append(picked)
                if len(elements) > cap:
                    raise InfeasibleError(len(elements), cap)
        if len(picked) < m:
            for j in range(picked[-1] + 1, len(footprints)):
                if not (union & footprints[j]):
                    queue.append((picked + (j,), union | footprints[j]))
    return elements, index, decomposition


class GroupoidSource:
    """Ball of bisections of a finite groupoid plus its truncated sum closure."""

    is_group = False

    def __init__(self, g: FiniteGroupoid, F, n: int, m: int | None = None,
                 ball_cap: int = 4096, sum_cap: int = 20000):
        self.groupoid = g
        self.F = tuple(F)
        self.n = n
        elements = bisection_ball(g, F, n, ball_cap)
        self.ball_elements = tuple(elements)
        self.n_ball = len(elements)
        self.m = m if m is not None else self.n_ball
        # a footprint holds the domain units e and the range units as n_units + e
        universe, index, decomposition = sum_closure(
            elements, [b.dom_units() | {g.n_units + e for e in b.ran_units()}
                       for b in elements], self.m,
            lambda bs: PartialBisection(g, frozenset().union(*(b.arrows for b in bs))),
            sum_cap)
        self.universe = tuple(universe)
        self.n_universe = len(universe)
        self.decomposition = tuple(decomposition)
        self.taus = tuple(b_tau(b) for b in self.ball_elements)
        triples = []
        for i in range(self.n_universe):
            for j in range(self.n_universe):
                k = index.get(b_compose(universe[i], universe[j]))
                if k is not None:
                    triples.append((i, j, k))
        self.triples = tuple(triples)

    def key_label(self, i):
        return repr(self.universe[i])

    def descriptor(self):
        return f"groupoid({self.groupoid.n_units} units) ball n={self.n}"


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
    notes: tuple = ()

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
    """One finite counting problem: source ball, tolerance, degree.

    ``mode`` selects the candidate pool: "perms" enumerates total
    permutations only (the sensible default for group sources, where a
    small tolerance forces near-total domains), "all" the full partial
    permutation monoid, which is the reference semantics.
    """

    source: object
    n: int
    delta: Fraction
    d: int
    m: int | None = None
    mode: str = field(default="")

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        if self.m is not None and self.m < 1:
            raise ValueError("the sum bound m must be >= 1")
        if not self.mode:
            object.__setattr__(self, "mode",
                               "perms" if self.source.is_group else "all")
        if self.mode not in ("perms", "all"):
            raise ValueError("mode must be 'perms' or 'all'")


def ball_params(ball: Ball, delta, d: int, mode: str = "") -> SAParams:
    return SAParams(BallSource(ball), max(ball.radius, 1), Fraction(delta), d, mode=mode)


def groupoid_params(g: FiniteGroupoid, F, n: int, delta, d: int,
                    m: int | None = None, mode: str = "",
                    ball_cap: int = 4096, sum_cap: int = 20000) -> SAParams:
    src = GroupoidSource(g, F, n, m=m, ball_cap=ball_cap, sum_cap=sum_cap)
    return SAParams(src, n, Fraction(delta), d, m=src.m, mode=mode)


_OVERLAP = object()


def _resolve(source, images, key: int):
    """Image of universe element ``key`` under the additive extension."""
    dec = source.decomposition[key]
    if len(dec) == 1:
        return images[dec[0]]
    try:
        return pperm.orthogonal_sum([images[i] for i in dec])
    except OverlapError:
        return _OVERLAP


def verify_membership(sigma: SoficCandidate, params: SAParams) -> MembershipReport:
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
        notes.append(f"sum closure truncated at m={getattr(source, 'm', 1)} summands;"
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
            cache[k] = _resolve(source, images, k)
        return cache[k]

    for (i, j, k) in source.triples:
        a, b, c = val(i), val(j), val(k)
        if a is _OVERLAP or b is _OVERLAP or c is _OVERLAP:
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


# -- enumeration ---------------------------------------------------------------


def candidate_pool(d: int, mode: str) -> list[PartialPermutation]:
    if mode == "perms":
        return list(pperm.iter_permutations(d))
    return list(pperm.iter_all(d))


def pool_size(d: int, mode: str) -> int:
    return factorial(d) if mode == "perms" else pperm.monoid_size(d)


def search_space_size(params: SAParams) -> int:
    return pool_size(params.d, params.mode) ** params.source.n_ball


def trace_windows(pool, d: int, centres, below):
    """Per position, the candidates of trace k/d with ``below(|k/d - centre|)``.

    A centre of None keeps every candidate.  Each list keeps pool order
    and pairs a candidate with its images padded with a leading 0, so
    that ``a[b[x]]`` composes two padded maps.
    """
    shared = {}
    pools = []
    for centre in centres:
        fixed = frozenset(k for k in range(d + 1)
                          if centre is None or below(abs(Fraction(k, d) - centre)))
        if fixed not in shared:
            shared[fixed] = [(c, (0,) + c.images) for c in pool if c.nfix in fixed]
        pools.append(shared[fixed])
    return pools


def search(pools, derived, triples, limit, values, slots, derive):
    """Yield ``values`` at every assignment that passes its checks,
    depth first in pool order; the list is reused, so copy it.

    Position t takes a (value, padded images) pair of ``pools[t]`` into
    ``values[t]`` and ``slots[t]``.  Each (k, arg) in ``derived[t]``
    then sets ``slots[k] = derive(arg)``, an OverlapError rejecting,
    and each (i, j, k) in ``triples[t]`` rejects when ``slots[k]``
    disagrees with ``slots[i]`` after ``slots[j]`` on ``limit`` or more
    points.  The caller sets any constant slots.
    """
    n = len(pools)

    def admissible(t):
        for k, arg in derived[t]:
            try:
                slots[k] = derive(arg)
            except OverlapError:
                return False
        for (i, j, k) in triples[t]:
            a = slots[i]
            if sum(map(ne, map(a.__getitem__, slots[j]), slots[k])) >= limit:
                return False
        return True

    def walk(t):
        if t == n:
            yield values
            return
        for value, pad in pools[t]:
            values[t] = value
            slots[t] = pad
            if admissible(t):
                yield from walk(t + 1)

    yield from walk(0)
    del walk  # walk refers to itself; dropping it frees the pools at once


def _search(params: SAParams, pool, first=None):
    """Yield the image list at every member, depth first in pool order.

    ``first``, when given, holds the (candidate, padded images) pairs
    of position 0.  A sum resolves at the ball position that completes
    it, and an overlap of its summands' images rejects there: the sum
    takes part in the triple (identity, sum, sum), so this drops
    exactly the candidates that triple would.
    """
    source = params.source
    pools = trace_windows(pool, params.d, source.taus, params.delta.__gt__)
    if first is not None:
        pools[0] = first
    need = [max(parts) for parts in source.decomposition]
    sums = [[] for _ in range(source.n_ball)]
    triples = [[] for _ in range(source.n_ball)]
    for k in range(source.n_ball, source.n_universe):
        sums[need[k]].append((k, source.decomposition[k]))
    for (i, j, k) in source.triples:
        triples[max(need[i], need[j], need[k])].append((i, j, k))
    images: list = [None] * source.n_ball

    def orthogonal_sum(parts):
        return (0,) + pperm.orthogonal_sum([images[i] for i in parts]).images

    return search(pools, sums, triples, math.ceil(params.delta * params.d),
                  images, [None] * source.n_universe, orthogonal_sum)


def iter_SA_members(params: SAParams, pool=None):
    """Depth-first enumeration of all members, deterministic order.

    Constraints are applied as soon as every participant is assigned,
    so the pruned search yields exactly the brute-force member set.
    """
    if pool is None:
        pool = candidate_pool(params.d, params.mode)
    for images in _search(params, pool):
        yield SoficCandidate(params.d, images)


def _count_chunk(params: SAParams, pool, first, positions):
    """Member count and E-restriction set, position 0 drawn from ``first``."""
    count = 0
    restrictions = set()
    for images in _search(params, pool, first):
        count += 1
        if positions is not None:
            restrictions.add(tuple(images[i] for i in positions))
    return count, restrictions


def _enumerate_counts(params: SAParams, positions, cap: int, workers: int):
    space = search_space_size(params)
    if space > cap:
        raise InfeasibleError(space, cap)
    pool = candidate_pool(params.d, params.mode)
    # workers share out the candidates admitted at position 0; with under
    # two each, often the identity alone, one counts
    firsts = (trace_windows(pool, params.d, params.source.taus[:1],
                            params.delta.__gt__)[0] if workers > 1 else [])
    if workers <= 1 or len(firsts) < 2 * workers:
        return _count_chunk(params, pool, None, positions)
    import multiprocessing as mp
    step = (len(firsts) + workers - 1) // workers
    chunks = [firsts[lo:lo + step] for lo in range(0, len(firsts), step)]
    with mp.Pool(workers) as ex:
        parts = ex.starmap(_count_chunk, [(params, pool, f, positions) for f in chunks])
    return sum(c for c, _ in parts), set().union(*(r for _, r in parts))


DEFAULT_COUNT_CAP = 10 ** 8


def count_SA(params: SAParams, cap: int = DEFAULT_COUNT_CAP, workers: int = 1,
             E=None):
    """Exact number of members, by pruned exhaustive enumeration.

    The search keeps, per ball position, only the candidates whose
    fixed-point count meets the trace condition, and rejects a triple
    at ceil(delta*d) disagreements, so it compares integers only.
    With a collection E of ball positions, the same single enumeration
    returns ``(count, restricted_count)``, where the restricted count
    is the number of distinct restrictions of members to E.
    """
    positions = None if E is None else tuple(E)
    count, restrictions = _enumerate_counts(params, positions, cap, workers)
    return count if E is None else (count, len(restrictions))


NEG_INF = float("-inf")


def statistic_from_count(count: int, d: int) -> float:
    """log(count) / (d log d); 0 for a single member, -inf for none."""
    if count == 0:
        return NEG_INF
    if count == 1 or d == 1:
        return 0.0
    return math.log(count) / (d * math.log(d))


def restricted_statistic(params: SAParams, E, cap: int = DEFAULT_COUNT_CAP,
                         workers: int = 1) -> tuple[int, float]:
    """Distinct restrictions to E among members, and the log statistic.

    E is a collection of ball positions (indices into the source ball).
    The empty E yields one restriction whenever any member exists.
    """
    _, count_e = count_SA(params, cap, workers, E=E)
    return count_e, statistic_from_count(count_e, params.d)


# -- Monte Carlo ---------------------------------------------------------------


def monte_carlo_count(params: SAParams, trials: int, seed: int) -> tuple[float, float]:
    """Uniform-sampling estimate of the member count with binomial stderr.

    Each trial draws one image per ball element uniformly from the
    candidate pool via an independent substream of the seed, so results
    are reproducible and independent of evaluation order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    source = params.source
    base = SplitMix64(seed)
    draw = (pperm.random_permutation if params.mode == "perms" else pperm.random_pperm)
    hits = 0
    for t in range(trials):
        rng = base.spawn(t)
        cand = SoficCandidate(params.d,
                              [draw(params.d, rng) for _ in range(source.n_ball)])
        if verify_membership(cand, params).is_member:
            hits += 1
    space = pool_size(params.d, params.mode) ** source.n_ball
    rate = Fraction(hits, trials)
    estimate = float(rate * space)
    stderr = float(space) * math.sqrt(rate * (1 - rate) / trials)
    return estimate, stderr


# -- closed form for cyclic groups ----------------------------------------------


def _divisors(m: int):
    return [c for c in range(1, m + 1) if m % c == 0]


def closed_form_count(m: int, d: int, delta) -> int:
    """Exact count of the strict candidates for the cyclic group of order m.

    A strict candidate is a total permutation pi with pi^m = identity
    whose every nontrivial power has at most delta*d fixed points (the
    trace conditions of the group made exact).  Such pi have cycle
    lengths dividing m, and Fix(pi^j) collects the cycles whose length
    divides j, so the count is a sum of d! / prod_c (c^{f_c} f_c!) over
    admissible cycle-type vectors (f_c)_{c | m}.  Agrees with exhaustive
    enumeration of the same set and extends the statistic far beyond
    enumeration range.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    delta = Fraction(delta)
    max_fixed = math.floor(delta * d)
    divs = _divisors(m)

    total = 0
    counts = [0] * len(divs)

    def admissible_type():
        for j in range(1, m):
            fixed = sum(c * f for c, f in zip(divs, counts) if j % c == 0)
            if fixed > max_fixed:
                return False
        return True

    def assign(idx, remaining, ways_denominator):
        nonlocal total
        if idx == len(divs):
            if remaining == 0 and admissible_type():
                total += factorial(d) // ways_denominator
            return
        c = divs[idx]
        for f in range(remaining // c + 1):
            counts[idx] = f
            assign(idx + 1, remaining - c * f,
                   ways_denominator * (c ** f) * factorial(f))
        counts[idx] = 0

    assign(0, d, 1)
    return total


def closed_form_statistic(m: int, d: int, delta) -> tuple[int, float]:
    count = closed_form_count(m, d, delta)
    return count, statistic_from_count(count, d)


# -- exact block representations -------------------------------------------------


def block_candidate(source: GroupoidSource, d: int) -> SoficCandidate:
    """Exact member for a principal groupoid source by block dilation.

    Unit e becomes a block of d * weight(e) consecutive points (the
    products must be integers); a bisection maps blocks index-aligned.
    For principal groupoids this candidate has zero gaps.
    """
    if source.is_group:
        raise ValueError("block candidates need a groupoid source")
    g = source.groupoid
    starts = []
    acc = 0
    for e in range(g.n_units):
        size = d * g.unit_weights[e]
        if size.denominator != 1:
            raise ValueError(f"degree {d} does not split unit {e} into a block")
        starts.append(acc)
        acc += int(size)
    if acc != d:
        raise ValueError("block sizes do not fill the degree")

    def image(bis: PartialBisection) -> PartialPermutation:
        images = [0] * d
        for a in bis.arrows:
            e, f = g.source[a], g.range_[a]
            size = int(d * g.unit_weights[e])
            for i in range(size):
                images[starts[e] + i] = starts[f] + i + 1
        return PartialPermutation(d, images)

    return SoficCandidate(d, [image(b) for b in source.ball_elements])
