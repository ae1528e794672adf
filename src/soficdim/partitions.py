"""Unit profiles, random partitions, cylinder algebra and bound checks.

Given a finite set F0 of partial bisections and a partition pi of F0,
the profile set collects the units lying in every range for which two
elements act by the same arrow exactly when pi joins them; the same
notion on the image side of a candidate map collects points of {1..d}
classified by the preimage pattern of the images.  The certified
counting bound compares the exact measure of the profile set with the
point fraction of its image-side twin, at tolerance c1 * delta with

    c1 = 176 * 3^(2n) * |F+-|^(2n).

Random partitions of {1..d} place each point independently according
to the alphabet weights, and the cylinder bound compares exact
cylinder measures with intersection counts at c2 * delta, where
c2 = 2 * c1 * Bell(|F+-|^n).  One rule takes the cylinder of every
psi on both sides (``_cylinders``): the meet of its entries'
translates, read from a ball x letter table, which holds the
translates of the letter sets on the model side and sigma's images of
the partition blocks on the image side.  A basis of cylinder
projections for the span of the cylinder algebra, one per model
(``CylinderModel.basis``), yields the coefficient statistics kappa and
gamma.  One fraction-free elimination of the model's point x psi
indicator matrix gives the basis, every psi's coefficients and a
transform T; every coefficient is an integer numerator over one
denominator D per basis, and each other subset of the span is expanded
once, as T times its indicator, when a sweep first reads it.

One ModelMember per sigma holds what its partitions share: sigma's
images on the model ball, their padded and inverse image tuples, its
membership check, and the key of each (sigma, partition) under
relabeling of the points.  One Phi0Table per (sigma, partition) is the
whole image side of that pair: it holds the image cylinder A_psi of
every psi, taken once from sigma's images of the blocks, and the
linear map phi0, which sends each basis cylinder to its image-side
cylinder.  The cylinder bound reads the A_psi, and the equivariance bound compares each residual
1_{A_psi} - phi0(cyl psi) with c3 * sqrt(delta), where

    c3 = (1 + (3 + kappa*ell) * Bell(ell) * N_ell) * c2,  N_ell = ell * 2^ell.

The lemmas assume that sigma is a member over the profile-augmented
generating set at the inflated radius, which
``LemmaContext.check_hypothesis`` checks.  The certificates do not
check it: each computes its bound for whatever candidate it is given,
so a candidate outside the hypothesis can fail them.

All measures are exact rationals; bounds against sqrt(delta) are
decided by comparing squares.  Each sweep decides its gaps on integer
numerators over one positive denominator fixed for the sweep, which
keeps the order and the ties of the gaps: c1 over the unit weights'
common denominator W (``LemmaContext.profile_weights``), c2 over the
point weights' M (``CylinderModel.weight_den``), c3 over the basis' D.
It builds one Fraction for each value it reports and names its witness
by ``sofic._first_largest``.  What depends only on the model (the
translates, each psi's cylinder, the measures of the cylinders and of
the distinct projections, the disjoint cylinder pairs, the meets of
the projections) is a table computed once per model, and the bounds
that depend only on the basis and delta once per basis and delta
(``SpanBasis.per_delta``), for every table over the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import mul

from . import sofic
from .groupoid import FiniteGroupoid, bernoulli_action, projection_bisection
from .pperm import _inverse_images
from .rng import SplitMix64
from .sofic import GroupoidSource, InfeasibleError, SoficCandidate, verify_membership


class HypothesisError(RuntimeError):
    """A bound was requested for a candidate that fails its hypothesis."""


# -- set partitions and Bell numbers -------------------------------------------


def set_partitions(k: int):
    """Block assignments of {0..k-1} as restricted-growth tuples.

    The i-th entry is the block index of item i; block indices appear
    in first-use order, so each partition is produced exactly once.
    """
    if k == 0:
        yield ()
        return

    def extend(prefix, used):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            yield from extend(prefix + [b], used + (b == used))

    yield from extend([], 0)


@lru_cache(maxsize=None)
def bell_number(k: int) -> int:
    if k == 0:
        return 1
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


# largest radius-n ball whose profiles are swept (the Bell loops grow
# superexponentially)
PROFILE_CAP = 8


# -- profiles -------------------------------------------------------------------


def _first_seen(values) -> tuple:
    """``values`` relabeled 0, 1, 2, ... in order of first appearance:
    two sequences get equal relabelings exactly when their entries are
    equal at the same pairs of places."""
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def _profile(tables, points, blocks) -> list:
    """The points e, in the order of ``points``, where every table (a
    dict) is defined and two tables agree exactly when they share a
    block: the column of their values at e relabels by first appearance
    (``_first_seen``) as the blocks do."""
    pattern = _first_seen(blocks)
    columns = ((e, [t.get(e) for t in tables]) for e in points)
    return [e for e, column in columns if None not in column and _first_seen(column) == pattern]


def profile_units(g: FiniteGroupoid, F0, blocks) -> list:
    """Units classified by the block pattern of F0, in increasing order.

    A unit e qualifies when every element of F0 has an arrow with range
    e and two elements share that arrow exactly when they share a block
    (``_profile``).
    """
    return _profile([{g.range_[a]: a for a in s.arrows} for s in F0],
                    range(g.n_units), blocks)


def profile_sigma_points(images, blocks, d: int) -> frozenset:
    """Points of {1..d} classified by the preimage pattern of the images:
    every image has a preimage of the point, and two share it exactly
    when they share a block, as in ``profile_units``."""
    return frozenset(_profile(
        [{y: x for x, y in enumerate(s.images, start=1) if y} for s in images],
        range(1, d + 1), blocks))


# -- lemma constants -------------------------------------------------------------


@dataclass(frozen=True)
class LemmaConstants:
    c1: Fraction
    c2: Fraction
    c3: Fraction | None


def lemma_constants(f_pm_size: int, n: int, basis=None) -> LemmaConstants:
    """The three bound constants for a generating set with |F+-| elements.

    c3, which reads kappa and ell, is present only when a span basis is
    supplied.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c1 = Fraction(176 * 3 ** (2 * n) * f_pm_size ** (2 * n))
    c2 = 2 * c1 * bell_number(f_pm_size ** n)
    if basis is None:
        return LemmaConstants(c1, c2, None)
    ell = basis.ell
    c3 = (1 + (3 + basis.kappa * ell) * bell_number(ell) * (ell * 2 ** ell)) * c2
    return LemmaConstants(c1, c2, c3)


# -- random partitions -------------------------------------------------------------


@dataclass(frozen=True)
class RandomPartition:
    """Partition of {1..d} into q blocks, seeded and reproducible."""

    d: int
    q: int
    block_of: tuple  # block index (0-based) per point 1..d

    @property
    def blocks(self) -> tuple:
        out = [set() for _ in range(self.q)]
        for x, b in enumerate(self.block_of, start=1):
            out[b].add(x)
        return tuple(frozenset(b) for b in out)


def random_partition(d: int, mu0, seed: int) -> RandomPartition:
    """Place each point independently in block i with probability mu0[i]."""
    weights = tuple(Fraction(w) for w in mu0)
    if sum(weights) != 1:
        raise ValueError("block weights must sum to 1")
    rng = SplitMix64(seed)
    return RandomPartition(d, len(weights), tuple(rng.weighted_indices(weights, d)))


# -- the cylinder model -------------------------------------------------------------


def _cylinders(psis, translates, points) -> tuple:
    """The cylinder of each psi, in order: the points of ``points`` in
    ``translates[b][letter]`` for every entry (b, letter) of psi.  The
    model side reads the translates of its letter sets
    (``CylinderModel.translates``) and the image side sigma's images of
    the partition blocks (``Phi0Table``)."""
    out = []
    for psi in psis:
        pts = points
        for b, letter in psi:
            pts = pts & translates[b][letter]
        out.append(pts)
    return tuple(out)


class CylinderModel:
    """Finite Bernoulli model of a groupoid with its cylinder algebra.

    Couples the Bernoulli action over a finite groupoid with the ball
    of bisections of the chosen generating set (through a shared
    LemmaContext): cylinder sets are intersections of translates of the
    letter sets, indexed by a map psi from a ball subset to letters.
    Each table is built once, on first read: ``translates``, the ball x
    letter table of translates; ``cylinders``, each psi's cylinder by
    the one rule of both sides (``_cylinders``); and their exact
    measures as integers over the one denominator ``weight_den`` of the
    point weights, per psi (``cylinder_mu_nums``) and per distinct
    projection (``projection_mu_nums``); and ``basis``, its span basis
    (``span_basis``), which every Phi0Table of the model reads.
    """

    def __init__(self, context: "LemmaContext", alphabet):
        self.context = context
        g = context.groupoid
        self.alphabet = tuple(Fraction(w) for w in alphabet)
        self.q = len(self.alphabet)
        self.n = context.n
        self.action = bernoulli_action(g, self.alphabet)
        # the point weights as integers over one denominator M
        self.weight_den, self.weight_nums = sofic.common_denominator(self.action.weight)
        self.ball = context.ball
        self.f_pm_size = context.f_pm_size
        # letter sets: points whose coordinate at their own unit arrow is i
        fibers_arrows = {e: tuple(sorted(g.arrows_with_range(e)))
                         for e in range(g.n_units)}
        unit_coord = {e: fibers_arrows[e].index(g.unit_arrow[e])
                      for e in range(g.n_units)}
        letter = []
        for x in range(self.action.n_points):
            e, cfg = self.action.labels[x]
            letter.append(cfg[unit_coord[e]])
        self.letter_sets = tuple(
            frozenset(x for x in range(self.action.n_points) if letter[x] == i)
            for i in range(self.q))
        # all cylinder indexings in a canonical order
        self.psis = []
        for r in range(len(self.ball) + 1):
            for combo in combinations(range(len(self.ball)), r):
                for values in product(range(self.q), repeat=r):
                    self.psis.append(tuple(zip(combo, values)))

    @cached_property
    def translates(self) -> tuple:
        """``translates[b][letter]``: the image of the letter set under
        ball element b."""
        return tuple(tuple(self.action.bisection_image(s, letters)
                           for letters in self.letter_sets) for s in self.ball)

    @cached_property
    def cylinders(self) -> tuple:
        """The cylinder of each psi, in psi order."""
        return _cylinders(self.psis, self.translates,
                          frozenset(range(self.action.n_points)))

    @cached_property
    def cylinder_mu_nums(self) -> tuple:
        """Each psi's cylinder's measure times ``weight_den``, in psi order."""
        return tuple(sum(map(self.weight_nums.__getitem__, c)) for c in self.cylinders)

    @cached_property
    def projection_mu_nums(self) -> tuple:
        """Each distinct projection's measure times ``weight_den``."""
        return tuple(sum(map(self.weight_nums.__getitem__, p))
                     for p in self.distinct_projections)

    @cached_property
    def disjoint_psi_pairs(self) -> tuple:
        """The (i, j), i < j, whose cylinders are disjoint."""
        cyl = self.cylinders
        return tuple((i, j) for i, j in combinations(range(len(cyl)), 2)
                     if not cyl[i] & cyl[j])

    @cached_property
    def distinct_projections(self) -> tuple:
        """Distinct cylinder subsets in first-appearance order."""
        return tuple(dict.fromkeys(self.cylinders))

    @cached_property
    def projection_meets(self) -> dict:
        """(i, j) -> the meet of distinct projections i and j, for i <= j."""
        p = self.distinct_projections
        return {(i, j): p[i] & p[j] for i in range(len(p)) for j in range(i, len(p))}

    @cached_property
    def basis(self) -> SpanBasis:
        """The model's span basis, built on first read (``span_basis``)."""
        return span_basis(self)

    @cached_property
    def universe(self):
        """The sum closure of the distinct projections, built on first use
        (``crossed.ProjectionUniverse``)."""
        from .crossed import ProjectionUniverse
        return ProjectionUniverse(self)


class LemmaContext:
    """Shared caches for the bound checks over one (groupoid, F, n).

    Builds once: the radius-n ball; ``profiles``, the one profile sweep
    of that ball, a triple (combo, blocks, units) for each subset combo
    of ball positions (by size, then in ``combinations`` order) and each
    partition blocks of it, where units is ``profile_units`` of the
    pair; ``F_n``, F followed by the distinct projections onto those
    unit sets that are not already in F, in order of first appearance;
    and the membership source over F_n at the inflated hypothesis
    radius 4 n |ball| + 1.  The c1 bound reads ``profiles``.  A ball
    larger than ``PROFILE_CAP`` raises InfeasibleError.

    Two sources index candidates, each by its own ball positions.  The
    candidates that the bounds check (``check_hypothesis``, ``align``,
    ``ModelMember``) are assigned over the hypothesis ball.  The
    members of ``sigma_params`` are assigned over ``sigma_source``,
    whose ball is ``ball`` in the same order: both are
    ``bisection_ball(g, F, n)``.  Every element of ``ball`` lies in the
    hypothesis ball, as F lies in F_n and n <= 4 n |ball| + 1; its
    position there is found once, and ``align`` reads a hypothesis
    candidate's images of ``ball`` through those positions.
    """

    def __init__(self, g: FiniteGroupoid, F, n: int):
        self.groupoid = g
        self.F = tuple(F)
        self.n = n
        ball = self.ball = tuple(sofic.bisection_ball(g, F, n))
        if len(ball) > PROFILE_CAP:
            raise InfeasibleError("profile augmentation over a ball", len(ball),
                                  "elements", PROFILE_CAP)
        self.f_pm_size = len(sofic.plus_minus_set(g, F))
        self.radius = 4 * n * len(ball) + 1
        self.profiles = tuple(
            (combo, blocks, profile_units(g, [ball[i] for i in combo], blocks))
            for r in range(len(ball) + 1)
            for combo in combinations(range(len(ball)), r)
            for blocks in set_partitions(r))
        projections = dict.fromkeys(
            projection_bisection(g, units) for _, _, units in self.profiles)
        self.F_n = self.F + tuple(p for p in projections if p not in self.F)
        source = self.hypothesis_source = GroupoidSource(g, self.F_n, self.radius)
        self.hypothesis_positions = tuple(source.position[b] for b in ball)

    @cached_property
    def profile_weights(self) -> tuple:
        """(W, h): W the least common denominator of the unit weights, and
        h[i] W times the measure of the units of ``profiles[i]``."""
        W, nums = sofic.common_denominator(self.groupoid.unit_weights)
        return W, tuple(sum(nums[e] for e in units) for _, _, units in self.profiles)

    @cached_property
    def sigma_source(self) -> GroupoidSource:
        """The membership source at radius n, built on first use."""
        return GroupoidSource(self.groupoid, self.F, self.n)

    def hypothesis_params(self, delta, d: int):
        return sofic.SAParams(self.hypothesis_source, Fraction(delta), d)

    def sigma_params(self, delta, d: int):
        return sofic.SAParams(self.sigma_source, Fraction(delta), d)

    def check_hypothesis(self, sigma: SoficCandidate, delta):
        """The membership report of sigma at the hypothesis radius, the
        hypothesis the certificates assume; HypothesisError if it fails."""
        report = verify_membership(sigma, self.hypothesis_params(delta, sigma.degree))
        if not report.is_member:
            raise HypothesisError(
                f"candidate fails the membership hypothesis at radius "
                f"{self.radius}: mult gap {report.mult_gap}, "
                f"trace gap {report.trace_gap}")
        return report

    def align(self, sigma: SoficCandidate) -> tuple:
        """A hypothesis candidate's images of the radius-n ball, in ball
        order."""
        return sigma.restriction(self.hypothesis_positions)


# -- bound reports -------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified inequality.

    For square-compared bounds (the equivariance check against
    c3*sqrt(delta)) both ``bound`` and ``worst`` hold squared values
    and ``squared`` is True; ``slack_ratio`` is worst/bound as a float.
    """

    bound: Fraction
    worst: Fraction
    witness: str
    passed: bool
    squared: bool = False

    @property
    def slack_ratio(self) -> float:
        if self.bound == 0:
            return float("inf") if self.worst else 0.0
        return float(Fraction(self.worst) / self.bound)

    def to_json_dict(self):
        return {
            "bound": float(self.bound),
            "worst": float(self.worst),
            "witness": self.witness,
            "slack_ratio": self.slack_ratio,
            "passed": self.passed,
            "squared": self.squared,
        }


def verify_lemma_c1(sigma: SoficCandidate, ctx: LemmaContext, delta) -> BoundReport:
    """Certify the profile counting bound over every subset and partition.

    Reads the context's profile sweep of its radius-n ball.  The report
    carries the worst discrepancy |h(profile) - |image profile|/d|
    against c1 * delta, decided on integers over W d, where h = h_W / W
    (``LemmaContext.profile_weights``).
    """
    delta = Fraction(delta)
    images_all = ctx.align(sigma)
    W, hs = ctx.profile_weights
    bound = lemma_constants(ctx.f_pm_size, ctx.n).c1 * delta
    d = sigma.degree

    def discrepancies():
        for (combo, blocks, _), h in zip(ctx.profiles, hs):
            pts = profile_sigma_points([images_all[i] for i in combo], blocks, d)
            yield (combo, blocks), abs(h * d - len(pts) * W)

    at, worst = sofic._first_largest(discrepancies())
    witness = "empty profile sweep" if at is None else f"F0={list(at[0])} blocks={at[1]}"
    worst = Fraction(worst, W * d)
    return BoundReport(bound, worst, witness, worst < bound)


def verify_lemma_c2(table: Phi0Table, delta) -> BoundReport:
    """Certify the cylinder counting bound for one (sigma, partition).

    Sweeps every cylinder indexing psi and compares the exact measure
    with the image-side intersection fraction |A_psi| / d of the table
    at c2 * delta, on integers over M d (M the model's ``weight_den``).
    """
    delta = Fraction(delta)
    model = table.basis.model
    M, d = model.weight_den, table.d
    bound = table.basis.per_delta(c2_bound, delta)
    psi, worst = sofic._first_largest(
        ((psi, abs(mu * d - len(a_psi) * M))
         for psi, mu, a_psi in zip(model.psis, model.cylinder_mu_nums, table.a_psis)))
    witness = "empty cylinder sweep" if psi is None else f"psi={psi}"
    worst = Fraction(worst, M * d)
    return BoundReport(bound, worst, witness, worst < bound)


def c2_bound(basis: SpanBasis, delta) -> Fraction:
    return basis.constants.c2 * delta


def c3_bound_squared(basis: SpanBasis, delta) -> Fraction:
    return basis.constants.c3 ** 2 * delta


# -- span basis and the equivariance bound ----------------------------------------


@dataclass(frozen=True)
class SpanBasis:
    """Greedy cylinder basis with coefficient statistics, from one exact
    elimination (``_eliminate``).

    Every coefficient is an integer numerator over one positive
    denominator ``den`` (D): ``coeffs[i]`` expands psi number i over the
    basis, and ``transform`` holds T, whose first ``ell`` rows give the
    numerators of any vector in the span and whose other rows vanish
    exactly on the span (``expand_vector``).  kappa is the largest
    coefficient magnitude, gamma the smallest nonzero value among subset
    sums, subset sums minus one, and products of two subset sums.  The
    basis cylinders are linearly independent, so each subset in the span
    has exactly one expansion; ``row`` computes each once per basis, when
    it is first read.
    """

    model: CylinderModel
    basis_psi_indices: tuple
    den: int
    coeffs: tuple  # per psi, integer numerators over den
    transform: tuple  # integer rows over the model points

    @property
    def ell(self) -> int:
        return len(self.basis_psi_indices)

    @cached_property
    def kappa(self) -> Fraction:
        return max(Fraction(max(abs(c) for row in self.coeffs for c in row), self.den),
                   Fraction(1))

    @cached_property
    def gamma_parts(self) -> tuple:
        D = self.den
        subset_sums = set()
        for row in self.coeffs:
            sums = {0}
            for c in row:
                if c:
                    sums |= {s + c for s in sums}
            subset_sums |= sums
        gamma1 = Fraction(min((abs(s) for s in subset_sums if s), default=D), D)
        gamma2 = Fraction(min((abs(s - D) for s in subset_sums if s != D), default=D), D)
        return gamma1, gamma2, gamma1 * gamma1

    @property
    def gamma(self) -> Fraction:
        return min(self.gamma_parts)

    @cached_property
    def constants(self) -> LemmaConstants:
        """``lemma_constants`` of the model with this basis, computed once
        for every table over it."""
        return lemma_constants(self.model.f_pm_size, self.model.n, self)

    @cached_property
    def _per_delta(self) -> dict:
        return {}

    def per_delta(self, bound, delta):
        """``bound(self, delta)``, a bound of this basis at a rational delta
        (``c2_bound``, ``crossed.delta0_squared``, ...), computed once per
        bound and delta for every table over the basis."""
        key = (bound, delta)
        out = self._per_delta.get(key)
        if out is None:
            out = self._per_delta[key] = bound(self, delta)
        return out

    @cached_property
    def _rows(self) -> dict:
        return dict(zip(self.model.cylinders, self.coeffs))

    def row(self, subset) -> tuple:
        """The coefficients of the indicator of a point subset over the
        basis, as integer numerators over ``den``.  A model cylinder's are
        its psi's ``coeffs``; every other subset is expanded once, when
        first read."""
        subset = frozenset(subset)
        out = self._rows.get(subset)
        if out is None:
            out = self._rows[subset] = self.expand_vector(
                _indicator(subset, self.model.action.n_points))
        return out

    def expand_vector(self, vector) -> tuple:
        """T times a vector over the model points: its coefficients over
        the basis as numerators over ``den``.  Raises when it lies outside
        the span."""
        out = [sum(map(mul, t, vector)) for t in self.transform]
        if any(out[self.ell:]):
            raise ValueError("vector outside span")
        return tuple(out[:self.ell])


def _indicator(points, n: int) -> tuple:
    return tuple(int(x in points) for x in range(n))


def _eliminate(vectors, n: int) -> tuple:
    """(basis indices, D, coefficients, transform) of ``vectors`` of
    length n, by one fraction-free Gauss-Jordan elimination (Bareiss).

    The matrix has one equation per coordinate x: the entries of every
    vector at x and the unit vector e_x, all scaled by the common
    denominator of the entries.  Column by column, the first row from
    the rank down with a nonzero entry p becomes the next pivot row, and
    every other row becomes (p row - f pivot row) / p', f its entry in
    the column and p' the previous pivot.  By Sylvester's identity every
    entry stays an integer minor of the matrix, so the division is
    exact, and each pivot row ends with the last pivot in its pivot
    column.  A column without a pivot lies in the span of the columns
    before it, so the pivot columns are the greedy basis, in order.
    Pivot row r over its content has pivot P_r; its left block holds P_r
    times each vector's coefficient of basis element r, and its right
    block T_r gives P_r times that coefficient of any vector in the
    span.  The rows below the pivots vanish exactly on the span.  D is
    the lcm of the |P_r|, and each pivot row is scaled to it.  Returns
    the pivot columns, D, each vector's coefficients as numerators over
    D, and the scaled T_r followed by the right blocks below the pivots.
    """
    m = len(vectors)
    rows = []
    for x in range(n):
        s, nums = sofic.common_denominator([v[x] for v in vectors])
        rows.append([*nums, *(s if y == x else 0 for y in range(n))])
    basis = []
    prev = 1
    for j in range(m):
        rank = len(basis)
        sel = next((r for r in range(rank, n) if rows[r][j]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        top = rows[rank]
        p = top[j]
        for r, other in enumerate(rows):
            f = other[j]
            if r != rank and (f or p != prev):
                rows[r] = [(p * a - f * b) // prev for a, b in zip(other, top)]
        prev = p
        basis.append(j)
    rank = len(basis)
    contents = [math.gcd(*row) for row in rows[:rank]]
    den = math.lcm(*(abs(prev) // g for g in contents))
    scaled = [[a // g * (den // (prev // g)) for a in row]
              for row, g in zip(rows, contents)]
    coeffs = tuple(zip(*(row[:m] for row in scaled))) if rank else ((),) * m
    transform = tuple(tuple(row[m:]) for row in scaled + rows[rank:])
    return tuple(basis), den, coeffs, transform


def span_basis(model: CylinderModel) -> SpanBasis:
    """Greedy basis over the canonical cylinder order, from one
    elimination of the model's point x psi indicator matrix."""
    n = model.action.n_points
    vectors = [_indicator(c, n) for c in model.cylinders]
    if not any(map(any, vectors)):
        raise ValueError("degenerate cylinder system: all cylinders are null")
    return SpanBasis(model, *_eliminate(vectors, n))


class ModelMember:
    """A candidate sigma over one cylinder model, with the work that
    every partition of it shares.

    sigma is a candidate over the context's hypothesis source, and
    ``images`` its images of the model ball (``LemmaContext.align``).
    ``pads`` holds each image as a padded tuple (0, s(1), ..., s(d)),
    which each Phi0Table reads for its block images, and ``inverses``
    the image tuple of its inverse (``pperm._inverse_images``), from
    which ``crossed.build_phi0`` transports phi0's values and
    ``crossed.verify_HA`` the supports of phi's projections by
    s p s^-1; both are built here once for every partition of the
    member.  ``sigma_report``,
    built on first use, is the membership report of the model-ball
    images over the radius-n sigma source, the check behind the
    ``sigma_ok`` of ``crossed.verify_HA``.  A sweep over the partitions
    of one sigma builds one ModelMember and hands it to each of its
    Phi0Tables.
    """

    def __init__(self, model: CylinderModel, sigma: SoficCandidate):
        self.model = model
        self.sigma = sigma
        self.images = model.context.align(sigma)
        self.pads = tuple((0,) + s.images for s in self.images)
        self.inverses = tuple(_inverse_images(s.images) for s in self.images)

    def relabeling_key(self, block_of) -> tuple:
        """One key per orbit of (sigma's images on the model ball,
        ``block_of``) under relabeling of the points 1..d: two pairs get
        equal keys exactly when some permutation of the points carries
        one onto the other.

        A root fixes the labeling of its component (``_rootings``), so
        a rooted code, the letters of the points in label order followed
        by their shape, determines the pair on that component up to
        isomorphism.  The key is the sorted tuple of the smallest rooted
        code of each component.
        """
        return tuple(sorted(
            min((tuple(block_of[x - 1] for x in order), shape)
                for order, shape in rootings)
            for rootings in self._rootings))

    @cached_property
    def _rootings(self) -> tuple:
        """For each component of the points along the ball maps and their
        inverses, one (order, shape) per root: order labels the points
        breadth first from the root, following each ball map forward and
        then backward in ball order, and shape gives each point in that
        order the label of its image under each ball map (-1 where
        undefined)."""
        steps = [m for s, inv in zip(self.pads, self.inverses)
                 for m in (s, (0,) + inv)]

        def walk(root):
            label = {root: 0}
            order = [root]
            for x in order:
                for step in steps:
                    y = step[x]
                    if y and y not in label:
                        label[y] = len(order)
                        order.append(y)
            shape = tuple(tuple(label.get(s[x], -1) for s in self.pads)
                          for x in order)
            return tuple(order), shape

        out = []
        seen = set()
        for x in range(1, self.sigma.degree + 1):
            if x not in seen:
                component = walk(x)[0]
                seen.update(component)
                out.append(tuple(map(walk, component)))
        return tuple(out)

    @cached_property
    def sigma_report(self) -> sofic.MembershipReport:
        """Membership of the model-ball images over the sigma source, at
        tolerance 2.  Every gap lies in [0, 1], so ``is_member`` there
        holds exactly when the additive extension resolves."""
        d = self.sigma.degree
        return verify_membership(SoficCandidate(d, self.images),
                                 self.model.context.sigma_params(2, d))


class Phi0Table:
    """The image side of one (sigma, partition), with the linear map phi0.

    The table reads sigma's padded images on the model ball from its
    ModelMember, and the span basis from the member's model
    (``CylinderModel.basis``).  It builds sigma's images of the
    partition blocks once, a ball x letter table, and takes from it the
    image cylinder A_psi of every cylinder indexing psi by the model's
    rule (``_cylinders``), once; the c2 and c3 bounds,
    ``crossed.build_phi0`` and ``crossed.build_phi`` all read it.  phi0 sends each basis cylinder
    projection to the indicator of its image-side cylinder and extends
    linearly over the span basis; each distinct span subset is evaluated
    once per table, when a sweep first reads it: ``numerators`` gives
    phi0 of a subset as integer numerators over the basis' one
    denominator D (``SpanBasis.den``), from the subset's integer row
    (``SpanBasis.row``).  ``residuals`` gives every psi its residual
    1_{A_psi} - phi0(cyl psi) over D, computed once on first read for
    the c3 sweep and ``crossed.build_phi``.
    """

    def __init__(self, member: ModelMember, partition: RandomPartition):
        model = member.model
        if partition.q != model.q:
            raise ValueError("partition and model disagree on the alphabet size")
        self.basis = basis = model.basis
        self.member = member
        self.partition = partition
        self.d = partition.d
        # sigma's image of each block under each ball element, 0 dropped
        translates = tuple(tuple(frozenset(filter(None, map(pad.__getitem__, block)))
                                 for block in partition.blocks) for pad in member.pads)
        self.a_psis = _cylinders(model.psis, translates, frozenset(range(1, self.d + 1)))
        self.a_sets = tuple(self.a_psis[i] for i in basis.basis_psi_indices)
        self._values = {}  # subset -> numerators over {1..d}

    def numerators(self, subset) -> tuple:
        """(D, n): phi0 of the projection onto ``subset`` is n / D, with D
        the basis' ``den`` and n a tuple of integers over {1..d}."""
        subset = frozenset(subset)
        out = self._values.get(subset)
        if out is None:
            nums = [0] * self.d
            for k, s in zip(self.basis.row(subset), self.a_sets):
                if k:
                    for x in s:
                        nums[x - 1] += k
            out = self._values[subset] = tuple(nums)
        return self.basis.den, out

    @cached_property
    def residuals(self) -> tuple:
        """For each psi in order, the residual 1_{A_psi} - phi0(cyl psi)
        on {1..d} as integer numerators over the basis' ``den``."""
        out = []
        for cyl, a_psi in zip(self.basis.model.cylinders, self.a_psis):
            D, nums = self.numerators(cyl)
            out.append(tuple((x in a_psi) * D - n for x, n in enumerate(nums, start=1)))
        return tuple(out)


def verify_lemma_c3_sweep(table: Phi0Table, delta) -> BoundReport:
    """Certify the equivariance bound over every cylinder indexing.

    Compares the squared 2-norm of each residual 1_{A_psi} - phi0(cyl psi)
    of the table against (c3)^2 * delta and reports the first psi with
    the largest one.  The norms are integers over D^2 d, D the basis'
    ``den``.
    """
    delta = Fraction(delta)
    basis = table.basis
    norms = [sum(r * r for r in res) for res in table.residuals]
    worst = max(norms)
    bound_sq = basis.per_delta(c3_bound_squared, delta)
    worst_sq = Fraction(worst, basis.den ** 2 * table.d)
    return BoundReport(bound_sq, worst_sq, f"psi={basis.model.psis[norms.index(worst)]}",
                       worst_sq < bound_sq, squared=True)
