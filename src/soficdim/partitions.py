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
c2 = 2 * c1 * Bell(|F+-|^n).  A basis of cylinder projections for the
span of the cylinder algebra yields the coefficient statistics kappa
and gamma; the basis expands each subset of its span once, by
eliminating on integers.

One ModelMember per sigma holds what its partitions share: sigma's
images on the model ball, their padded and inverse image tuples, its
membership check, and the key of each (sigma, partition) under
relabeling of the points.  One Phi0Table per (sigma, partition) is the
whole image side of that pair: it holds the image cylinder A_psi of
every psi, computed once, and the linear map phi0, which sends each
basis cylinder to its image-side cylinder.  The cylinder bound reads
the A_psi, and the equivariance bound compares each residual
1_{A_psi} - phi0(cyl psi) with c3 * sqrt(delta), where

    c3 = (1 + (3 + kappa*ell) * Bell(ell) * N_ell) * c2,  N_ell = ell * 2^ell.

All measures are exact rationals; bounds against sqrt(delta) are
decided by comparing squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product

from . import sofic
from .groupoid import FiniteGroupoid, bernoulli_action, projection_bisection
from .pperm import _inverse_images
from .rng import SplitMix64
from .sofic import GroupoidSource, SoficCandidate, verify_membership


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


def profile_units(g: FiniteGroupoid, F0, blocks) -> list:
    """Units classified by the block pattern of F0, in increasing order.

    A unit e qualifies when every element of F0 has an arrow with range
    e and two elements share that arrow exactly when they share a block.
    """
    tables = [{g.range_[a]: a for a in s.arrows} for s in F0]
    out = []
    for e in range(g.n_units):
        arrows = [t.get(e) for t in tables]
        if None not in arrows and all(
                (arrows[i] == arrows[j]) == (blocks[i] == blocks[j])
                for i in range(len(F0)) for j in range(i + 1, len(F0))):
            out.append(e)
    return out


def profile_sigma_points(images, blocks, d: int) -> frozenset:
    """Points of {1..d} classified by the preimage pattern of the images."""
    preimages = [_inverse_images(s.images) for s in images]
    out = set()
    for e in range(1, d + 1):
        pres = [inv[e - 1] for inv in preimages]
        if 0 in pres:
            continue
        if all((pres[i] == pres[j]) == (blocks[i] == blocks[j])
               for i in range(len(images)) for j in range(i + 1, len(images))):
            out.add(e)
    return frozenset(out)


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
    seed: int
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
    return RandomPartition(d, len(weights), seed,
                           tuple(rng.weighted_indices(weights, d)))


# -- the cylinder model -------------------------------------------------------------


class CylinderModel:
    """Finite Bernoulli model of a groupoid with its cylinder algebra.

    Couples the Bernoulli action over a finite groupoid with the ball
    of bisections of the chosen generating set (through a shared
    LemmaContext): cylinder sets are intersections of translates of the
    letter sets, indexed by a map psi from a ball subset to letters.
    Exposes the exact measure of a cylinder (point weights of the model)
    and the image-side cylinder of a candidate map.
    """

    def __init__(self, context: "LemmaContext", alphabet):
        self.context = context
        g = context.groupoid
        self.alphabet = tuple(Fraction(w) for w in alphabet)
        self.q = len(self.alphabet)
        self.n = context.n
        self.action = bernoulli_action(g, self.alphabet)
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
        self._cyl_cache = {}
        self._translate_cache = {}
        self._mu_cache = {}

    def translate(self, ball_idx: int, letter: int) -> frozenset:
        key = (ball_idx, letter)
        if key not in self._translate_cache:
            self._translate_cache[key] = self.action.bisection_image(
                self.ball[ball_idx], self.letter_sets[letter])
        return self._translate_cache[key]

    def cylinder(self, psi) -> frozenset:
        """The set of model points in every translate prescribed by psi."""
        if psi not in self._cyl_cache:
            pts = frozenset(range(self.action.n_points))
            for ball_idx, letter in psi:
                pts &= self.translate(ball_idx, letter)
            self._cyl_cache[psi] = pts
        return self._cyl_cache[psi]

    def mu_points(self, points) -> Fraction:
        """Exact measure of a point subset, summed once per subset."""
        points = frozenset(points)
        if points not in self._mu_cache:
            self._mu_cache[points] = sum((self.action.weight[x] for x in points),
                                         Fraction(0))
        return self._mu_cache[points]

    def mu_cylinder(self, psi) -> Fraction:
        return self.mu_points(self.cylinder(psi))

    def image_cylinder(self, psi, sigma_images, blocks) -> frozenset:
        """Intersection of candidate-map translates of the partition blocks.

        ``blocks`` is ``RandomPartition.blocks`` of a partition of {1..d}.
        """
        pts = set().union(*blocks)
        for ball_idx, letter in psi:
            s = sigma_images[ball_idx].images
            pts &= {s[x - 1] for x in blocks[letter] if s[x - 1]}
        return frozenset(pts)

    @cached_property
    def distinct_projections(self) -> tuple:
        """Distinct cylinder subsets in first-appearance order."""
        return tuple(dict.fromkeys(map(self.cylinder, self.psis)))

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
    radius 4 n |ball| + 1.  The c1 bound reads ``profiles``.  Refuses a
    ball larger than ``PROFILE_CAP``.  Candidates checked through one
    context must have been assigned over the F_n ball it exposes.
    """

    def __init__(self, g: FiniteGroupoid, F, n: int):
        self.groupoid = g
        self.F = tuple(F)
        self.n = n
        ball = self.ball = tuple(sofic.bisection_ball(g, F, n))
        if len(ball) > PROFILE_CAP:
            raise HypothesisError(
                f"profile augmentation over a ball of {len(ball)} elements "
                f"exceeds the cap {PROFILE_CAP}")
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
        self.hypothesis_source = GroupoidSource(g, self.F_n, self.radius)

    @cached_property
    def sigma_source(self) -> GroupoidSource:
        """The membership source at radius n, built on first use."""
        return GroupoidSource(self.groupoid, self.F, self.n)

    def hypothesis_params(self, delta, d: int):
        return sofic.SAParams(self.hypothesis_source, Fraction(delta), d)

    def check_hypothesis(self, sigma: SoficCandidate, delta):
        report = verify_membership(sigma, self.hypothesis_params(delta, sigma.degree))
        if not report.is_member:
            raise HypothesisError(
                f"candidate fails the membership hypothesis at radius "
                f"{self.radius}: mult gap {report.mult_gap}, "
                f"trace gap {report.trace_gap}")
        return report

    def align(self, sigma: SoficCandidate, ball) -> tuple:
        """Candidate images matched to an arbitrary sub-ball by bisection."""
        out = []
        for b in ball:
            i = self.hypothesis_source.position.get(b)
            if i is None:
                raise KeyError(f"candidate does not cover {b!r}")
            out.append(sigma.images[i])
        return tuple(out)


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


def verify_lemma_c1(sigma: SoficCandidate, ctx: LemmaContext, delta,
                    precheck: bool = True) -> BoundReport:
    """Certify the profile counting bound over every subset and partition.

    Reads the context's profile sweep of its radius-n ball.  The
    candidate must be a member over the profile-augmented generating
    set at the inflated radius; the report carries the worst discrepancy
    |h(profile) - |image profile|/d| against c1 * delta.
    """
    delta = Fraction(delta)
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    images_all = ctx.align(sigma, ctx.ball)
    weights = ctx.groupoid.unit_weights
    bound = lemma_constants(ctx.f_pm_size, ctx.n).c1 * delta
    worst = Fraction(0)
    witness = "empty profile sweep"
    d = sigma.degree
    for combo, blocks, units in ctx.profiles:
        h = sum((weights[e] for e in units), Fraction(0))
        pts = profile_sigma_points([images_all[i] for i in combo], blocks, d)
        disc = abs(h - Fraction(len(pts), d))
        if disc > worst:
            worst = disc
            witness = f"F0={list(combo)} blocks={blocks}"
    return BoundReport(bound, worst, witness, worst < bound)


def verify_lemma_c2(table: Phi0Table, delta, precheck: bool = True) -> BoundReport:
    """Certify the cylinder counting bound for one (sigma, partition).

    Sweeps every cylinder indexing psi and compares the exact measure
    with the image-side intersection fraction |A_psi| / d of the table
    at c2 * delta.
    """
    delta = Fraction(delta)
    model = table.basis.model
    if precheck:
        model.context.check_hypothesis(table.sigma, delta)
    bound = table.basis.constants.c2 * delta
    worst = Fraction(0)
    witness = "empty cylinder sweep"
    for psi, a_psi in zip(model.psis, table.a_psis):
        disc = abs(model.mu_cylinder(psi) - Fraction(len(a_psi), table.d))
        if disc > worst:
            worst = disc
            witness = f"psi={psi}"
    return BoundReport(bound, worst, witness, worst < bound)


# -- span basis and the equivariance bound ----------------------------------------


@dataclass(frozen=True)
class SpanBasis:
    """Greedy cylinder basis with coefficient statistics.

    ``coeffs[i]`` expands psi number i over the basis; kappa is the
    largest coefficient magnitude, gamma the smallest nonzero value
    among subset sums, subset sums minus one, and products of two
    subset sums.  The basis rows are linearly independent, so each
    subset in the span has exactly one expansion; ``expansions`` keeps
    every one computed so far, starting with the model cylinders.
    """

    model: CylinderModel
    basis_psi_indices: tuple
    coeffs: tuple  # per psi, tuple of Fractions over the basis
    kappa: Fraction
    gamma: Fraction
    gamma_parts: tuple
    rows: tuple  # indicator vectors of the basis cylinders
    expansions: dict = field(repr=False, compare=False)  # subset -> coefficients

    @property
    def ell(self) -> int:
        return len(self.basis_psi_indices)

    @cached_property
    def constants(self) -> LemmaConstants:
        """``lemma_constants`` of the model with this basis, computed once
        for every table over it."""
        return lemma_constants(self.model.f_pm_size, self.model.n, self)

    def expand_vector(self, subset) -> tuple:
        """Coefficients of the indicator of a point subset over the basis.

        Each distinct subset is solved once; raises when it lies outside
        the span.
        """
        subset = frozenset(subset)
        if subset not in self.expansions:
            self.expansions[subset] = _solve_against(
                self.rows, _indicator(subset, self.model.action.n_points))
        return self.expansions[subset]


def _indicator(points, n: int) -> tuple:
    return tuple(int(x in points) for x in range(n))


def _solve_against(basis_rows, vec):
    """Solve sum c_i row_i = vec exactly; raises when out of span.

    Gauss-Jordan elimination on integers: each equation (one per
    coordinate) is scaled by the common denominator of its entries, a
    row update is pv * row - f * pivot row, and every updated row is
    divided by the gcd of its entries.  Each row stays a nonzero
    multiple of the row that rational elimination would hold, so the
    pivots, the coefficients and the refusals are the same; Fractions
    are built only for the coefficients.
    """
    if not basis_rows:
        if any(vec):
            raise ValueError("vector outside span")
        return ()
    nrows = len(basis_rows)
    aug = []
    for c, v in enumerate(vec):
        eq = [row[c] for row in basis_rows]
        eq.append(v)
        den = math.lcm(*(x.denominator for x in eq))
        aug.append([x.numerator * (den // x.denominator) for x in eq])
    pivots = []
    row = 0
    for col in range(nrows):
        sel = next((r for r in range(row, len(aug)) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        top = aug[row]
        pv = top[col]
        for r, other in enumerate(aug):
            f = other[col]
            if f and r != row:
                new = [pv * a - f * b for a, b in zip(other, top)]
                g = math.gcd(*new)
                aug[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    # consistency: rows beyond the pivots must be zero
    if any(aug[r][-1] for r in range(row, len(aug))):
        raise ValueError("vector outside span")
    coeffs = [Fraction(0)] * nrows
    for r, col in enumerate(pivots):
        coeffs[col] = Fraction(aug[r][-1], aug[r][col])
    return tuple(coeffs)


def span_basis(model: CylinderModel) -> SpanBasis:
    """Greedy basis over the canonical cylinder order plus kappa and gamma."""
    cylinders = [model.cylinder(psi) for psi in model.psis]
    vectors = [_indicator(c, model.action.n_points) for c in cylinders]
    if not any(any(v) for v in vectors):
        raise ValueError("degenerate cylinder system: all cylinders are null")
    basis_idx = []
    basis_rows = []
    for i, v in enumerate(vectors):
        try:
            _solve_against(basis_rows, v)
        except ValueError:
            basis_idx.append(i)
            basis_rows.append(v)
    coeffs = tuple(_solve_against(basis_rows, v) for v in vectors)
    kappa = max((abs(c) for row in coeffs for c in row), default=Fraction(1))
    kappa = max(kappa, Fraction(1))
    subset_sums = set()
    for row in coeffs:
        support = [c for c in row if c != 0]
        sums = {Fraction(0)}
        for c in support:
            sums |= {s + c for s in sums}
        subset_sums |= sums
    gamma1 = min((abs(s) for s in subset_sums if s != 0), default=Fraction(1))
    gamma2 = min((abs(s - 1) for s in subset_sums if s != 1), default=Fraction(1))
    gamma3 = gamma1 * gamma1
    gamma = min(gamma1, gamma2, gamma3)
    return SpanBasis(model, tuple(basis_idx), coeffs, kappa, gamma,
                     (gamma1, gamma2, gamma3), tuple(basis_rows),
                     dict(zip(cylinders, coeffs)))


class ModelMember:
    """A candidate sigma over one cylinder model, with the work that
    every partition of it shares.

    ``images`` aligns sigma to the model ball.  ``pads`` holds each
    image as a padded tuple (0, s(1), ..., s(d)) and ``inverses`` the
    image tuple of its inverse (``pperm._inverse_images``): sigma's
    transport s p s^-1, which ``crossed.verify_HA``, ``crossed.build_phi0``
    and ``crossed.ha_statistic_with_sa`` read for every partition of the
    member, is built here once.  ``sigma_report``, built on first use, is
    the membership report of sigma over the radius-n sigma source, the
    check behind the ``sigma_ok`` of ``crossed.verify_HA``.  A sweep over
    the partitions of one sigma builds one ModelMember and hands it to
    each of its Phi0Tables.
    """

    def __init__(self, model: CylinderModel, sigma: SoficCandidate):
        self.model = model
        self.sigma = sigma
        self.images = model.context.align(sigma, model.ball)
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
        # the sigma source's ball is the model ball: both are
        # bisection_ball(g, F, n) of the context
        d = self.sigma.degree
        return verify_membership(SoficCandidate(d, self.images), sofic.SAParams(
            self.model.context.sigma_source, Fraction(1), d))


class Phi0Table:
    """The image side of one (sigma, partition), with the linear map phi0.

    The table reads sigma's images on the model ball from its
    ModelMember, takes the partition blocks once and computes the image
    cylinder A_psi of every cylinder indexing psi once; the c2 and c3
    bounds, ``crossed.build_phi0`` and ``crossed.build_phi`` all read
    it.  phi0 sends each basis cylinder projection to the indicator of
    its image-side cylinder and extends linearly over the span basis;
    each distinct span subset is evaluated once, on integers:
    ``numerators`` gives phi0 of a subset as integer numerators over one
    denominator.  ``residuals`` gives every psi its residual
    1_{A_psi} - phi0(cyl psi), computed once on first read for the c3
    sweep and ``crossed.build_phi``.
    """

    def __init__(self, basis: SpanBasis, member: ModelMember,
                 partition: RandomPartition):
        model = basis.model
        if member.model is not model:
            raise ValueError("member and basis belong to different models")
        if partition.q != model.q:
            raise ValueError("partition and model disagree on the alphabet size")
        self.basis = basis
        self.member = member
        self.sigma = member.sigma
        self.partition = partition
        self.d = partition.d
        self.images = member.images
        blocks = partition.blocks
        self.a_psis = tuple(model.image_cylinder(psi, self.images, blocks)
                            for psi in model.psis)
        self.a_sets = tuple(self.a_psis[i] for i in basis.basis_psi_indices)
        self._values = {}  # subset -> (denominator, numerators over {1..d})

    def numerators(self, subset) -> tuple:
        """(D, n): phi0 of the projection onto ``subset`` is n / D.

        D is the least common denominator of the subset's coefficients
        and n a tuple of integers over {1..d}; each distinct subset is
        evaluated once per table.
        """
        subset = frozenset(subset)
        out = self._values.get(subset)
        if out is None:
            coeffs = self.basis.expand_vector(subset)
            den = math.lcm(*(c.denominator for c in coeffs))
            nums = [0] * self.d
            for c, s in zip(coeffs, self.a_sets):
                if c:
                    k = c.numerator * (den // c.denominator)
                    for x in s:
                        nums[x - 1] += k
            out = self._values[subset] = (den, tuple(nums))
        return out

    @cached_property
    def residuals(self) -> tuple:
        """(D, r) for each psi in order: the residual
        1_{A_psi} - phi0(cyl psi) on {1..d} is r / D, r integers."""
        model = self.basis.model
        out = []
        for psi, a_psi in zip(model.psis, self.a_psis):
            den, nums = self.numerators(model.cylinder(psi))
            out.append((den, tuple((x in a_psi) * den - n
                                   for x, n in enumerate(nums, start=1))))
        return tuple(out)


def verify_lemma_c3_sweep(table: Phi0Table, delta,
                          precheck: bool = True) -> BoundReport:
    """Certify the equivariance bound over every cylinder indexing.

    Compares the squared 2-norm of each residual 1_{A_psi} - phi0(cyl psi)
    of the table against (c3)^2 * delta and reports the first psi with
    the largest one.
    """
    delta = Fraction(delta)
    model = table.basis.model
    if precheck:
        model.context.check_hypothesis(table.sigma, delta)
    norms = [Fraction(sum(r * r for r in res), den * den * table.d)
             for den, res in table.residuals]
    worst = max(norms)
    bound_sq = table.basis.constants.c3 ** 2 * delta
    return BoundReport(bound_sq, worst, f"psi={model.psis[norms.index(worst)]}",
                       worst < bound_sq, squared=True)
