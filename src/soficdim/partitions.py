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
and gamma; the basis expands each subset of its span once.  The
linear map phi0 lives here too, as the image-side table Phi0Table: it
sends each basis cylinder to its image-side cylinder and gives every
psi the residual 1_{A_psi} - phi0(cyl psi).  The equivariance bound
compares that residual with c3 * sqrt(delta), where

    c3 = (1 + (3 + kappa*ell) * Bell(ell) * N_ell) * c2,  N_ell = ell * 2^ell.

All measures are exact rationals; bounds against sqrt(delta) are
decided by comparing squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from . import sofic
from .groupoid import (
    FiniteGroupoid,
    PartialBisection,
    bernoulli_crossed_product,
    b_inverse,
    projection_bisection,
)
from .pperm import PartialPermutation
from .rng import SplitMix64
from .sofic import GroupoidSource, SoficCandidate, groupoid_params, verify_membership


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


DEFAULT_PROFILE_CAP = 8


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


def profile_h_measure(F0, blocks) -> Fraction:
    """Exact measure of the units classified by the given block pattern."""
    if not F0:
        raise ValueError("F0 must be nonempty")
    g = F0[0].host
    return sum((g.unit_weights[e] for e in profile_units(g, F0, blocks)),
               Fraction(0))


def profile_sigma_points(images, blocks, d: int) -> frozenset:
    """Points of {1..d} classified by the preimage pattern of the images."""
    out = set()
    for e in range(1, d + 1):
        pres = [None] * len(images)
        ok = True
        for i, s in enumerate(images):
            if not (s.ran_mask >> (e - 1)) & 1:
                ok = False
                break
            # unique preimage of e
            pres[i] = s.images.index(e) + 1
        if not ok:
            continue
        if all((pres[i] == pres[j]) == (blocks[i] == blocks[j])
               for i in range(len(images)) for j in range(i + 1, len(images))):
            out.add(e)
    return frozenset(out)


@dataclass(frozen=True)
class ProfileMeasures:
    h_measure: Fraction | None
    sigma_fraction: Fraction | None


def profile_measures(F0, pi, context) -> ProfileMeasures:
    """Both sides of the profile comparison, where the context allows.

    ``pi`` maps each element of F0 to its block; ``context`` is a dict
    that may carry ``images`` (image maps aligned with F0, plus ``d``)
    and implicitly the groupoid through the bisections themselves.
    """
    F0 = list(F0)
    if not F0:
        raise ValueError("F0 must be nonempty")
    blocks = [pi[s] if isinstance(pi, dict) else pi[i] for i, s in enumerate(F0)]
    h = None
    frac = None
    if all(isinstance(s, PartialBisection) for s in F0):
        h = profile_h_measure(F0, blocks)
    if context and "images" in context:
        d = context["d"]
        pts = profile_sigma_points(context["images"], blocks, d)
        frac = Fraction(len(pts), d)
    return ProfileMeasures(h, frac)


def _block_weight(alphabet, letters, blocks) -> Fraction:
    """Product of the letter weights over the blocks of a profile partition.

    Item i carries ``letters[i]`` and lies in block ``blocks[i]``; the
    weight is 0 when a block holds two different letters.
    """
    letter_of = {}
    for letter, b in zip(letters, blocks):
        if letter_of.setdefault(b, letter) != letter:
            return Fraction(0)
    w = Fraction(1)
    for letter in letter_of.values():
        w *= alphabet[letter]
    return w


# -- lemma constants -------------------------------------------------------------


@dataclass(frozen=True)
class LemmaConstants:
    c1: Fraction
    c2: Fraction
    c3: Fraction | None
    kappa: Fraction | None
    gamma: Fraction | None
    ell: int | None
    n_ell: int | None
    bell_ell: int | None


def lemma_constants(f_pm_size: int, n: int, basis=None) -> LemmaConstants:
    """The three bound constants for a generating set with |F+-| elements.

    kappa, gamma, ell (and hence c3) are present only when a span basis
    is supplied.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c1 = Fraction(176 * 3 ** (2 * n) * f_pm_size ** (2 * n))
    c2 = 2 * c1 * bell_number(f_pm_size ** n)
    if basis is None:
        return LemmaConstants(c1, c2, None, None, None, None, None, None)
    ell = basis.ell
    n_ell = ell * 2 ** ell
    b_ell = bell_number(ell)
    c3 = (1 + (3 + basis.kappa * ell) * b_ell * n_ell) * c2
    return LemmaConstants(c1, c2, c3, basis.kappa, basis.gamma, ell, n_ell, b_ell)


# -- augmented generating sets ----------------------------------------------------


def augment_generators(F, n: int, g: FiniteGroupoid,
                       pm_cap: int = DEFAULT_PROFILE_CAP):
    """F together with the projections onto every profile set of the ball.

    Every added element is an idempotent projection; duplicates are
    merged.  Refuses when the ball is larger than ``pm_cap`` (the Bell
    loops grow superexponentially).
    """
    ball = sofic.bisection_ball(g, F, n)
    if len(ball) > pm_cap:
        raise HypothesisError(
            f"profile augmentation over a ball of {len(ball)} elements "
            f"exceeds the cap {pm_cap}")
    out = list(F)
    seen = set(out)
    for r in range(len(ball) + 1):
        for combo in _combinations(len(ball), r):
            F0 = [ball[i] for i in combo]
            for blocks in set_partitions(len(F0)):
                p = projection_bisection(g, profile_units(g, F0, blocks))
                if p not in seen:
                    seen.add(p)
                    out.append(p)
    return out


def _combinations(n, r):
    from itertools import combinations as comb
    return comb(range(n), r)


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

    def block(self, i: int) -> frozenset:
        return frozenset(x for x, b in enumerate(self.block_of, start=1) if b == i)


def random_partition(d: int, mu0, seed: int) -> RandomPartition:
    """Place each point independently in block i with probability mu0[i]."""
    weights = tuple(Fraction(w) for w in mu0)
    if sum(weights) != 1:
        raise ValueError("block weights must sum to 1")
    rng = SplitMix64(seed)
    return RandomPartition(d, len(weights), seed,
                           tuple(rng.weighted_index(weights) for _ in range(d)))


def exact_partition(blocks) -> RandomPartition:
    """Partition of {1..d} given explicitly by blocks (seed recorded as -1)."""
    d = sum(len(b) for b in blocks)
    block_of = [None] * d
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x - 1] = i
    if any(b is None for b in block_of):
        raise ValueError("blocks do not cover {1..d}")
    return RandomPartition(d, len(blocks), -1, tuple(block_of))


# -- the cylinder model -------------------------------------------------------------


class CylinderModel:
    """Finite Bernoulli model of a groupoid with its cylinder algebra.

    Couples the Bernoulli action over a finite groupoid with the ball
    of bisections of the chosen generating set (through a shared
    LemmaContext): cylinder sets are intersections of translates of the
    letter sets, indexed by a map psi from a ball subset to letters.
    Exposes two independent measure routes (point weights of the model
    and the closed partition sum) and the image-side cylinder of a
    candidate map.
    """

    def __init__(self, context: "LemmaContext", alphabet, cap: int = 10 ** 6):
        self.context = context
        g = context.groupoid
        self.groupoid = g
        self.alphabet = tuple(Fraction(w) for w in alphabet)
        self.q = len(self.alphabet)
        self.F = context.F
        self.n = context.n
        self.action, self.crossed = bernoulli_crossed_product(g, self.alphabet, cap)
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
        idxs = range(len(self.ball))
        for r in range(len(self.ball) + 1):
            for combo in _combinations(len(self.ball), r):
                for values in product(range(self.q), repeat=r):
                    self.psis.append(tuple(zip(combo, values)))
        self._cyl_cache = {}
        self._translate_cache = {}

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
        return sum((self.action.weight[x] for x in points), Fraction(0))

    def mu_cylinder(self, psi) -> Fraction:
        return self.mu_points(self.cylinder(psi))

    def mu_cylinder_closed(self, psi) -> Fraction:
        """Cylinder measure by the closed sum over profile partitions.

        Sums, over partitions of the psi support compatible with the
        letters, the profile measure times the product of letter
        weights over the blocks.
        """
        support = [self.ball[i] for i, _ in psi]
        letters = [v for _, v in psi]
        if not support:
            return Fraction(1)
        total = Fraction(0)
        for blocks in set_partitions(len(support)):
            w = _block_weight(self.alphabet, letters, blocks)
            if w:
                total += profile_h_measure(support, blocks) * w
        return total

    def image_cylinder(self, psi, sigma_images, partition: RandomPartition) -> frozenset:
        """Intersection of candidate-map translates of the partition blocks."""
        pts = set(range(1, partition.d + 1))
        for ball_idx, letter in psi:
            s = sigma_images[ball_idx]
            block = partition.block(letter)
            pts &= {s.images[x - 1] for x in block if s.images[x - 1]}
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

    Builds once: the radius-n ball, the profile-augmented generating
    set, and the membership source at the inflated hypothesis radius
    4 n |ball| + 1.  Candidates checked through one context must have
    been assigned over the augmented-set ball it exposes.
    """

    def __init__(self, g: FiniteGroupoid, F, n: int,
                 pm_cap: int = DEFAULT_PROFILE_CAP):
        self.groupoid = g
        self.F = tuple(F)
        self.n = n
        self.ball = tuple(sofic.bisection_ball(g, F, n))
        self.f_pm_size = len(sofic.plus_minus_set(g, F))
        self.radius = 4 * n * len(self.ball) + 1
        self.F_n = tuple(augment_generators(F, n, g, pm_cap))
        self.hypothesis_source = GroupoidSource(g, self.F_n, self.radius)
        self._pos = {b: i for i, b in
                     enumerate(self.hypothesis_source.ball_elements)}

    @cached_property
    def sigma_source(self) -> GroupoidSource:
        """The membership source at radius n, built on first use."""
        return GroupoidSource(self.groupoid, self.F, self.n)

    def hypothesis_params(self, delta, d: int):
        from .sofic import SAParams
        return SAParams(self.hypothesis_source, self.radius, Fraction(delta), d)

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
            i = self._pos.get(b)
            if i is None:
                raise KeyError(f"candidate does not cover {b!r}")
            out.append(sigma.images[i])
        return tuple(out)


def regular_model_candidate(model: CylinderModel) -> tuple[SoficCandidate, RandomPartition]:
    """The exact instance: the model acting on its own points.

    The candidate maps each ball element of the hypothesis source to
    its action on the point set, and the partition is the letter
    partition itself.  For principal groupoids with equal fiber sizes
    and a fair alphabet every gap vanishes.
    """
    d = model.action.n_points
    ctx = model.context
    images = []
    for b in ctx.hypothesis_source.ball_elements:
        amap = model.action.bisection_map(b)
        images.append(PartialPermutation(
            d, tuple(amap[x] + 1 if x in amap else 0 for x in range(d))))
    blocks = [frozenset(x + 1 for x in s) for s in model.letter_sets]
    return SoficCandidate(d, images), exact_partition(blocks)


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
    extras: dict | None = None

    @property
    def slack_ratio(self) -> float:
        if self.bound == 0:
            return float("inf") if self.worst else 0.0
        return float(Fraction(self.worst) / self.bound)

    def to_json_dict(self):
        out = {
            "bound": float(self.bound),
            "worst": float(self.worst),
            "witness": self.witness,
            "slack_ratio": self.slack_ratio,
            "passed": self.passed,
            "squared": self.squared,
        }
        if self.extras:
            out["extras"] = self.extras
        return out


def verify_lemma_c1(sigma: SoficCandidate, F, n: int, delta,
                    context, precheck: bool = True) -> BoundReport:
    """Certify the profile counting bound over every subset and partition.

    ``context`` is a LemmaContext (or a FiniteGroupoid, from which one
    is built).  The candidate must be a member over the
    profile-augmented generating set at the inflated radius; the report
    carries the worst discrepancy |h(profile) - |image profile|/d|
    against c1 * delta.
    """
    delta = Fraction(delta)
    ctx = context if isinstance(context, LemmaContext) else LemmaContext(context, F, n)
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    ball = ctx.ball
    images_all = ctx.align(sigma, ball)
    c1 = lemma_constants(ctx.f_pm_size, n).c1
    bound = c1 * delta
    worst = Fraction(0)
    witness = "empty profile sweep"
    d = sigma.degree
    for r in range(len(ball) + 1):
        for combo in _combinations(len(ball), r):
            F0 = [ball[i] for i in combo]
            imgs = [images_all[i] for i in combo]
            for blocks in set_partitions(len(F0)):
                if F0:
                    h = profile_h_measure(F0, blocks)
                    frac = Fraction(len(profile_sigma_points(imgs, blocks, d)), d)
                else:
                    h = Fraction(1)
                    frac = Fraction(1)
                disc = abs(h - frac)
                if disc > worst:
                    worst = disc
                    witness = f"F0={list(combo)} blocks={blocks}"
    return BoundReport(bound, worst, witness, worst < bound)


def verify_lemma_c2(sigma: SoficCandidate, partition: RandomPartition,
                    F, n: int, delta, model: CylinderModel,
                    precheck: bool = True, chebyshev_seeds=None) -> BoundReport:
    """Certify the cylinder counting bound for one partition.

    Sweeps every cylinder indexing psi and compares the exact measure
    with the image-side intersection fraction at c2 * delta.  When
    ``chebyshev_seeds`` is given, the report extras also carry the
    empirical per-term violation frequency over those seeds next to
    the predicted concentration rate.
    """
    delta = Fraction(delta)
    ctx = model.context
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    if partition.q != model.q:
        raise ValueError("partition and model disagree on the alphabet size")
    images = ctx.align(sigma, model.ball)
    c2 = lemma_constants(model.f_pm_size, n).c2
    bound = c2 * delta
    worst = Fraction(0)
    witness = "empty cylinder sweep"
    d = partition.d
    for psi in model.psis:
        mu = model.mu_points(model.cylinder(psi))
        frac = Fraction(len(model.image_cylinder(psi, images, partition)), d)
        disc = abs(mu - frac)
        if disc > worst:
            worst = disc
            witness = f"psi={psi}"
    extras = None
    if chebyshev_seeds is not None:
        extras = c2_partition_frequency(sigma, delta, model, chebyshev_seeds,
                                        precheck=False)
    return BoundReport(bound, worst, witness, worst < bound, extras=extras)


def c2_partition_frequency(sigma: SoficCandidate, delta,
                           model: CylinderModel, seeds,
                           precheck: bool = True) -> dict:
    """Empirical frequency of per-term violations against the Chebyshev rate.

    For each seeded partition and each (psi, profile partition) pair,
    compares the summand |h(profile) * prod(weights) - |intersection|/d|
    with 2 * c1 * delta; returns the violating fraction next to the
    predicted rate |ball|^2 / ((c1 delta)^2 d).
    """
    delta = Fraction(delta)
    ctx = model.context
    if precheck:
        ctx.check_hypothesis(sigma, delta)
    images = ctx.align(sigma, model.ball)
    c1 = lemma_constants(model.f_pm_size, model.n).c1
    threshold = 2 * c1 * delta
    d = sigma.degree
    trials = 0
    violations = 0
    for seed in seeds:
        partition = random_partition(d, model.alphabet, seed)
        for psi in model.psis:
            support = [model.ball[i] for i, _ in psi]
            letters = [v for _, v in psi]
            imgs = [images[i] for i, _ in psi]
            a_psi = model.image_cylinder(psi, images, partition)
            for blocks in set_partitions(len(support)):
                trials += 1
                w = _block_weight(model.alphabet, letters, blocks)
                if support:
                    h = profile_h_measure(support, blocks) if w else Fraction(0)
                    pts = profile_sigma_points(imgs, blocks, d)
                else:
                    h = Fraction(1)
                    pts = frozenset(range(1, d + 1))
                rhs = Fraction(len(a_psi & pts), d)
                if abs(h * w - rhs) >= threshold:
                    violations += 1
    rate_bound = float(Fraction(len(model.ball) ** 2) / ((c1 * delta) ** 2 * d))
    return {
        "trials": trials,
        "violations": violations,
        "violation_frequency": violations / trials if trials else 0.0,
        "chebyshev_rate": rate_bound,
    }


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
    return tuple(Fraction(1) if x in points else Fraction(0) for x in range(n))


def _solve_against(basis_rows, vec):
    """Solve sum c_i row_i = vec exactly; raises when out of span."""
    if not basis_rows:
        if any(vec):
            raise ValueError("vector outside span")
        return ()
    ncols = len(vec)
    nrows = len(basis_rows)
    aug = [[basis_rows[r][c] for r in range(nrows)] + [vec[c]]
           for c in range(ncols)]
    pivots = []
    row = 0
    for col in range(nrows):
        sel = None
        for r in range(row, ncols):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(ncols):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    coeffs = [Fraction(0)] * nrows
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][-1]
    # consistency: rows beyond the pivots must be zero
    for r in range(row, ncols):
        if aug[r][-1] != 0:
            raise ValueError("vector outside span")
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


def two_norm_sq_vector(values, d: int) -> Fraction:
    """Normalized squared 2-norm of a rational vector over {1..d}."""
    return sum((v * v for v in values), Fraction(0)) / d


class Phi0Table:
    """The linear map phi0 of one (sigma, partition), on the image side.

    phi0 sends each basis cylinder projection to the indicator of its
    image-side cylinder and extends linearly over the span basis.  The
    table holds those image sets once: ``value_vector`` evaluates phi0
    on any span subset, and ``residual`` gives a cylinder indexing psi
    its image cylinder A_psi and the residual 1_{A_psi} - phi0(cyl psi).
    The c3 bound certifies that residual, and ``crossed.build_phi``
    keeps the points where every residual vanishes.
    """

    def __init__(self, basis: SpanBasis, sigma: SoficCandidate,
                 partition: RandomPartition):
        model = basis.model
        self.basis = basis
        self.partition = partition
        self.d = partition.d
        self.images = model.context.align(sigma, model.ball)
        self.a_sets = tuple(
            model.image_cylinder(model.psis[i], self.images, partition)
            for i in basis.basis_psi_indices)

    def value_vector(self, subset) -> tuple:
        """phi0 of the projection onto ``subset``, as a rational vector."""
        vals = [Fraction(0)] * self.d
        for c, s in zip(self.basis.expand_vector(subset), self.a_sets):
            if c:
                for x in s:
                    vals[x - 1] += c
        return tuple(vals)

    def residual(self, i: int) -> tuple:
        """(A_psi, 1_{A_psi} - phi0(cyl psi) on {1..d}) for psi number i."""
        model = self.basis.model
        psi = model.psis[i]
        a_psi = model.image_cylinder(psi, self.images, self.partition)
        phi0 = self.value_vector(model.cylinder(psi))
        return a_psi, tuple((x in a_psi) - v for x, v in enumerate(phi0, start=1))


def verify_lemma_c3(sigma: SoficCandidate, partition: RandomPartition,
                    basis: SpanBasis, psi, delta,
                    precheck: bool = True) -> BoundReport:
    """Certify the equivariance bound for one cylinder indexing.

    Compares the squared 2-norm of the residual 1_{A_psi} - phi0(cyl psi)
    (see Phi0Table) against (c3)^2 * delta.
    """
    return _c3_worst(sigma, partition, basis, delta, precheck,
                     [basis.model.psis.index(psi)])


def verify_lemma_c3_sweep(sigma, partition, basis, delta,
                          precheck: bool = True) -> BoundReport:
    """Worst equivariance discrepancy over every cylinder indexing."""
    return _c3_worst(sigma, partition, basis, delta, precheck,
                     range(len(basis.model.psis)))


def _c3_worst(sigma, partition, basis, delta, precheck, indices) -> BoundReport:
    """The equivariance bound at the first of ``indices`` whose residual
    has the largest squared 2-norm."""
    delta = Fraction(delta)
    model = basis.model
    if precheck:
        model.context.check_hypothesis(sigma, delta)
    table = Phi0Table(basis, sigma, partition)
    norms = {i: two_norm_sq_vector(table.residual(i)[1], partition.d)
             for i in indices}
    worst = max(norms, key=norms.get)
    bound_sq = lemma_constants(model.f_pm_size, model.n, basis).c3 ** 2 * delta
    return BoundReport(bound_sq, norms[worst], f"psi={model.psis[worst]}",
                       norms[worst] < bound_sq, squared=True)
