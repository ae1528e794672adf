"""Approximation pairs for groupoid actions on finite Bernoulli models.

A pair (sigma, phi) approximates an action when sigma approximates the
groupoid and phi maps the orthogonal-sum closure of the cylinder
projections into partial permutations so that traces match measures,
phi intertwines sigma approximately, products map to products, and the
full space maps close to the identity (conditions (i)-(iv), all
strict inequalities at the working tolerance).

The constructive route starts from a candidate sigma and a partition
of {1..d}: the linear map phi0 sends each basis cylinder projection to
the indicator of its image-side cylinder and extends linearly.  The
caller builds one partitions.ModelMember per sigma, which aligns sigma
to the model ball and checks sigma's membership once for all of its
partitions, and one partitions.Phi0Table per (sigma, partition) that
it certifies (``verify`` certifies one pair per relabeling orbit of the
points); the c2 and c3 bounds, build_phi0 and build_phi all read that
table.
build_phi0 certifies phi0's four properties against

    delta0 = 3 (1/gamma) kappa^2 ell^2 q c3^2 sqrt(delta).

Restricting phi0 to the set V of points where every cylinder residual
vanishes and disjointness is exact yields a genuine partial
permutation valued map phi, certified as a member at the displayed
tolerance 9 |P|^2 (1/gamma^2) kappa^5 ell^2 q c3^2 sqrt(delta), with

    |V| >= d (1 - 2 |P|^2 c3^2 kappa^4 delta / gamma^2).

The checks of a pair count disagreements on padded image tuples: sigma
transports phi by s p s^-1 without building maps, reading the padded
images and the inverse image tuples of sigma that its ModelMember
builds once for all of its partitions, and the 146 delta
linearity runs over the disjoint pairs that the projection universe
lists once as index triples.  Square roots never enter the arithmetic:
bounds against sqrt(delta) are decided by comparing squares of exact
rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import pperm, sofic
from .partitions import (
    CylinderModel,
    HypothesisError,
    ModelMember,
    Phi0Table,
    SpanBasis,
)
from .pperm import PartialPermutation
from .sofic import InfeasibleError
from .wordball import product_triples


@dataclass(frozen=True)
class SqrtTol:
    """A tolerance of the form sqrt(value_sq); compared via squares."""

    value_sq: Fraction

    def __float__(self):
        return math.sqrt(float(self.value_sq))


def gap_below(gap: Fraction, tol) -> bool:
    if isinstance(tol, SqrtTol):
        return gap * gap < tol.value_sq
    return gap < tol


class ProjectionUniverse:
    """Distinct cylinder projections plus their disjoint sums.

    Elements are subsets of the model point set; ``p_count`` distinct
    cylinder projections come first (order of first appearance over
    the canonical psi order), followed by their disjoint unions; more
    than ``sofic.SUM_CAP`` elements raise InfeasibleError.  ``triples``
    lists (i, j, k) with elements[i] & elements[j] == elements[k], and
    ``sum_pairs`` the (i, j, k) with i <= j whose elements i and j are
    disjoint with union elements[k].  A model builds its universe once
    (``CylinderModel.universe``).
    """

    def __init__(self, model: CylinderModel):
        self.model = model
        self.p_projections = model.distinct_projections
        self.p_count = len(self.p_projections)
        elements, index, decomposition = sofic.sum_closure(
            self.p_projections, self.p_projections,
            lambda sets: frozenset().union(*sets))
        self.elements = tuple(elements)
        self.index = index
        self.decomposition = tuple(decomposition)
        self.x_index = index[frozenset(range(model.action.n_points))]
        # letter blocks as universe positions (translates by the identity)
        self.letter_index = tuple(index[s] for s in model.letter_sets)
        self.triples = product_triples(self.elements, index, frozenset.__and__)
        # (i, j, k) with i <= j, elements[i] and elements[j] disjoint and
        # their union elements[k]: the pairs of the 146 delta linearity
        pairs = []
        for i, a in enumerate(self.elements):
            for j in range(i, len(self.elements)):
                b = self.elements[j]
                if not (a & b):
                    k = index.get(a | b)
                    if k is not None:
                        pairs.append((i, j, k))
        self.sum_pairs = tuple(pairs)

    def __len__(self):
        return len(self.elements)


class HAParams:
    """One pair-verification problem over a cylinder model.

    ``delta`` is a Fraction or a SqrtTol.  The projection universe and
    the sigma source belong to the model and its context, so every
    problem over one model shares them.
    """

    def __init__(self, model: CylinderModel, delta, d: int):
        self.model = model
        self.delta = delta if isinstance(delta, SqrtTol) else Fraction(delta)
        self.d = d
        self.universe = model.universe


class HACandidate:
    """A sigma candidate, held through its ModelMember, plus images of
    every sum-closure element.  Candidates that share a member share its
    alignment to the model ball and its membership check."""

    __slots__ = ("member", "phi")

    def __init__(self, member: ModelMember, phi):
        self.member = member
        self.phi = tuple(phi)


@dataclass(frozen=True)
class HAReport:
    """Per-condition worst gaps of a candidate pair."""

    is_member: bool
    trace_gap: Fraction
    trace_witness: str
    equivariance_gap: Fraction
    equivariance_witness: str
    mult_gap: Fraction
    mult_witness: str
    unit_gap: Fraction
    sigma_ok: bool
    tolerance: float

    def gaps(self):
        return {
            "trace": float(self.trace_gap),
            "equivariance": float(self.equivariance_gap),
            "multiplicativity": float(self.mult_gap),
            "unit": float(self.unit_gap),
        }

    def to_json_dict(self):
        out = self.gaps()
        out.update({
            "is_member": self.is_member,
            "sigma_ok": self.sigma_ok,
            "tolerance": self.tolerance,
            "witnesses": {
                "trace": self.trace_witness,
                "equivariance": self.equivariance_witness,
                "multiplicativity": self.mult_witness,
            },
        })
        return out


def verify_HA(cand: HACandidate, params: HAParams) -> HAReport:
    """Exact worst gaps of (sigma, phi) against conditions (i)-(iv).

    (i) runs over the distinct cylinder projections, (ii) over letter
    blocks against every ball element (phi of the translated cylinder
    against the phi-image transported by sigma), (iii) over sum-closure
    pairs whose product stays in the closure, and (iv) against the full
    space; sigma must also be a member at the same tolerance.  Sigma's
    padded and inverse images on the model ball and its membership
    report are read from the candidate's ModelMember, which computes
    each once.  That report is taken at tolerance 2, above every gap, so
    its ``is_member`` says only that sigma's additive extension
    resolves; with both gaps below the working tolerance this is
    membership at it.
    """
    model = params.model
    uni = params.universe
    tol = params.delta
    d = params.d
    member = cand.member
    if member.model is not model:
        raise ValueError("sigma's member belongs to another cylinder model")
    if len(cand.phi) != len(uni):
        raise ValueError(f"phi covers {len(cand.phi)} of {len(uni)} projections")
    if any(p.degree != d for p in cand.phi) or member.sigma.degree != d:
        raise ValueError(f"sigma and phi images must have degree {d}")
    rep = member.sigma_report
    sigma_ok = (rep.is_member and gap_below(rep.mult_gap, tol)
                and gap_below(rep.trace_gap, tol))

    trace_gap, trace_wit = Fraction(0), ""
    for i in range(uni.p_count):
        gap = abs(pperm.trace(cand.phi[i]) - model.mu_points(uni.elements[i]))
        if gap > trace_gap:
            trace_gap, trace_wit = gap, f"projection {i}"

    # (ii) and (iii) compare disagreement counts on padded image tuples;
    # the gap is count / d.  s p s^-1 sends x to s(p(s^-1(x))).
    phi = [p.images for p in cand.phi]
    equi_count, equi_wit = 0, ""
    for letter, pos in enumerate(uni.letter_index):
        p = (0,) + phi[pos]
        for bidx, (s, inv) in enumerate(zip(member.pads, member.inverses)):
            target = phi[uni.index[model.translate(bidx, letter)]]
            count = sum(1 for w, y in zip(target, inv) if w != s[p[y]])
            if count > equi_count:
                equi_count, equi_wit = count, f"letter {letter}, ball {bidx}"
    equi_gap = Fraction(equi_count, d)

    # phi(i) phi(j) against phi(k), point by point, without building the product
    mult_count, mult_wit = 0, ""
    for (i, j, k) in uni.triples:
        left = phi[i]
        count = sum(1 for y, z in zip(phi[j], phi[k]) if z != (left[y - 1] if y else 0))
        if count > mult_count:
            mult_count, mult_wit = count, f"pair ({i}, {j})"
    mult_gap = Fraction(mult_count, d)

    unit_gap = pperm.uniform_distance(cand.phi[uni.x_index],
                                      PartialPermutation.identity(d))
    member_ok = (sigma_ok and gap_below(trace_gap, tol) and gap_below(equi_gap, tol)
                 and gap_below(mult_gap, tol) and gap_below(unit_gap, tol))
    return HAReport(member_ok, trace_gap, trace_wit, equi_gap, equi_wit,
                    mult_gap, mult_wit, unit_gap, sigma_ok, float(tol))


# -- approximate linearity ------------------------------------------------------


@dataclass(frozen=True)
class SumCheck:
    """Approximate linearity of phi over every sum pair of its universe.

    ``counts[n]`` counts the points where phi of the union of pair n of
    the universe's ``sum_pairs`` disagrees with the corrected sum of phi
    of its parts; the pair's gap is that count over ``degree``, and it
    passes below ``bound``.
    """

    counts: tuple
    degree: int
    bound: Fraction

    @property
    def worst_gap(self) -> Fraction:
        return Fraction(max(self.counts, default=0), self.degree)

    @property
    def passed(self) -> bool:
        return self.worst_gap < self.bound


def approx_sum_check(cand: HACandidate, params: HAParams) -> SumCheck:
    """Approximate linearity of phi on every disjoint pair at bound 146 delta.

    The pairs are the ``sum_pairs`` of ``params.universe``, the
    projection universe of the model at the radius it was built for;
    ``verify --suite lin146`` passes the radius-n model, not the one at
    four times the working radius that the lemma states the bound for.
    On the full-group sources that the tabled suites reach, that cannot
    change an outcome: the generators are every non-identity element of
    the full group, so the ball is the whole group at radius 1.
    ``verify --suite lin146 --source "zmod(2)" --d 4 --delta 1/10
    --partitions 3 --seed 1`` checks 225 pairs at ``--n`` 1, 2 and 4
    alike.  For a pair (a, b) with union w the corrected sum takes a
    where a is defined and otherwise b, cut off a's range; the gap
    counts the points where phi(w) differs from it.  That the pair
    (sigma, phi) is a member is the caller's to establish (``verify
    --suite ha`` reports it through ``build_phi``); this check reads phi
    alone.
    """
    if isinstance(params.delta, SqrtTol):
        raise ValueError("the linearity bound needs a rational tolerance")
    uni = params.universe
    phi = [p.images for p in cand.phi]
    counts = []
    for i, j, k in uni.sum_pairs:
        a = phi[i]
        taken = set(a)
        counts.append(sum(1 for x, y, w in zip(a, phi[j], phi[k])
                          if w != (x or (0 if y in taken else y))))
    return SumCheck(tuple(counts), params.d, 146 * params.delta)


# -- the linear map phi0 --------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    """The four linear-map properties, compared through squared gaps."""

    delta0_sq: Fraction
    trace_gap_sq: Fraction
    equivariance_gap_sq: Fraction
    mult_gap_sq: Fraction
    unit_gap_sq: Fraction
    witnesses: tuple

    @property
    def passed(self) -> bool:
        return all(g < self.delta0_sq for g in
                   (self.trace_gap_sq, self.equivariance_gap_sq,
                    self.mult_gap_sq, self.unit_gap_sq))

    def to_json_dict(self):
        return {
            "delta0": math.sqrt(float(self.delta0_sq)),
            "trace_gap": math.sqrt(float(self.trace_gap_sq)),
            "equivariance_gap": math.sqrt(float(self.equivariance_gap_sq)),
            "mult_gap": math.sqrt(float(self.mult_gap_sq)),
            "unit_gap": math.sqrt(float(self.unit_gap_sq)),
            "passed": self.passed,
            "witnesses": list(self.witnesses),
        }


def delta0_squared(basis: SpanBasis, q: int, delta) -> Fraction:
    ell = Fraction(basis.ell)
    return (Fraction(9) / basis.gamma ** 2 * basis.kappa ** 4 * ell ** 4
            * q ** 2 * basis.constants.c3 ** 4 * Fraction(delta))


def _square_gap(u, v, d: int) -> Fraction:
    """Normalized squared 2-norm of u - v, both given as (denominator,
    integer numerators over {1..d})."""
    (du, nu), (dv, nv) = u, v
    D = math.lcm(du, dv)
    a, b = D // du, D // dv
    return Fraction(sum((a * x - b * y) ** 2 for x, y in zip(nu, nv)), D * D * d)


def build_phi0(table: Phi0Table, delta) -> PropertyReport:
    """The four-property certification of the table's linear map phi0.

    Sweeps the four properties against delta0.  The lemma assumes that
    the table's sigma satisfies the membership hypothesis at the
    inflated radius (``LemmaContext.check_hypothesis``), which the sweep
    does not check.
    """
    delta = Fraction(delta)
    basis = table.basis
    model = basis.model
    d = table.d
    d0_sq = delta0_squared(basis, model.q, delta)
    projections = model.distinct_projections

    trace_sq, trace_wit = Fraction(0), ""
    for i, p in enumerate(projections):
        den, nums = table.numerators(p)
        gap = abs(Fraction(sum(nums), den * d) - model.mu_points(p))
        if gap * gap > trace_sq:
            trace_sq, trace_wit = gap * gap, f"projection {i}"

    equi_sq, equi_wit = Fraction(0), ""
    for letter, bset in enumerate(model.letter_sets):
        g_den, g_nums = table.numerators(bset)
        for bidx, inv in enumerate(table.member.inverses):
            # push the diagonal of g forward along s: (s g s^-1)(y) = g(s^-1 y)
            pushed = [g_nums[x - 1] if x else 0 for x in inv]
            gap_sq = _square_gap(table.numerators(model.translate(bidx, letter)),
                                 (g_den, pushed), d)
            if gap_sq > equi_sq:
                equi_sq, equi_wit = gap_sq, f"letter {letter}, ball {bidx}"

    # |phi0(p1 & p2) - phi0(p1) phi0(p2)|^2 on integer numerators over one
    # common denominator D is sum (D n12 - n1 n2)^2 / (D^4 d).  The gap is
    # symmetric in the pair, so its first largest value in (i, j) order
    # has i <= j, and only that half is visited.
    meets = {(i, j): projections[i] & projections[j]
             for i in range(len(projections)) for j in range(i, len(projections))}
    values = {p: table.numerators(p) for p in (*projections, *meets.values())}
    D = math.lcm(*(den for den, _ in values.values()))
    scaled = {p: tuple(x * (D // den) for x in v) for p, (den, v) in values.items()}
    mult_num, mult_wit = 0, ""
    for (i, j), meet in meets.items():
        gap = sum((D * c - a * b) ** 2 for a, b, c in
                  zip(scaled[projections[i]], scaled[projections[j]], scaled[meet]))
        if gap > mult_num:
            mult_num, mult_wit = gap, f"pair ({i}, {j})"
    mult_sq = Fraction(mult_num, D ** 4 * d)

    unit_sq = _square_gap(table.numerators(frozenset(range(model.action.n_points))),
                          (1, (1,) * d), d)

    return PropertyReport(d0_sq, trace_sq, equi_sq, mult_sq, unit_sq,
                          (trace_wit, equi_wit, mult_wit))


# -- the restriction phi ---------------------------------------------------------


@dataclass(frozen=True)
class BuildPhiResult:
    candidate: HACandidate
    params: HAParams
    V: frozenset
    v_fraction: Fraction
    v_bound: Fraction
    v_ok: bool
    report: HAReport


def ha_tolerance_squared(basis: SpanBasis, q: int, p_size: int, delta) -> Fraction:
    ell = Fraction(basis.ell)
    return (Fraction(81) * p_size ** 4 / basis.gamma ** 4 * basis.kappa ** 10
            * ell ** 4 * q ** 2 * basis.constants.c3 ** 4 * Fraction(delta))


def build_phi(table: Phi0Table, delta) -> BuildPhiResult:
    """Restrict the table's phi0 to its exactness set V and certify the
    resulting pair with the table's sigma.

    V keeps the points where phi0 of every cylinder already equals the
    image-side indicator and where disjoint cylinders have disjoint
    supports; on V each sum-closure value is a genuine projection.  The
    pair is certified at the displayed tolerance and the size of V is
    checked against its lower bound.
    """
    delta = Fraction(delta)
    basis = table.basis
    model = basis.model
    d = table.d
    V = set(range(1, d + 1))
    for _, residual in table.residuals:
        V -= {x for x, r in enumerate(residual, start=1) if r}
    a_psis = table.a_psis
    cylinders = [model.cylinder(psi) for psi in model.psis]
    for i, a in enumerate(a_psis):
        for j in range(i + 1, len(a_psis)):
            if not cylinders[i] & cylinders[j]:
                V -= a & a_psis[j]
    if not V:
        raise HypothesisError("the exactness set V is empty; the linear map "
                              "certification hypotheses must have failed")
    p_size = len(model.distinct_projections)
    params = HAParams(model,
                      SqrtTol(ha_tolerance_squared(basis, model.q, p_size, delta)),
                      d)
    v_bound = Fraction(d) * (1 - 2 * p_size ** 2 * basis.constants.c3 ** 2
                             * basis.kappa ** 4 * delta / basis.gamma ** 2)
    phi_values = []
    for subset in params.universe.elements:
        den, nums = table.numerators(subset)
        support = set()
        for x in V:
            v = nums[x - 1]
            if v == den:
                support.add(x)
            elif v:
                raise HypothesisError(f"phi0 is not 0/1 on V at point {x} "
                                      f"(value {Fraction(v, den)})")
        phi_values.append(PartialPermutation.projection(d, support))
    cand = HACandidate(table.member, phi_values)
    report = verify_HA(cand, params)
    return BuildPhiResult(cand, params, frozenset(V), Fraction(len(V), d),
                          v_bound, Fraction(len(V)) >= v_bound, report)


# -- joint enumeration -----------------------------------------------------------


# most (phi, sigma) candidates the joint enumeration may search
HA_CAP = 10 ** 7


def ha_statistic(params: HAParams, E, Q) -> tuple[int, float, int]:
    """(count, statistic, sa_count): the distinct (sigma|_E, phi|_Q) over
    members sigma at delta (at 1 for a ``SqrtTol``) and maps phi passing
    (i)-(iv) with them, the log statistic of their count, and the
    distinct sigma|_E.

    E indexes positions of the model ball, Q letter blocks.  Enumeration
    is exhaustive over both halves; tiny instances only.  The members
    sigma are enumerated first, over the context's ``sigma_params``.  A
    search space of phi candidates above ``HA_CAP``, as it reads when
    the call runs, raises InfeasibleError before any pool or member is
    built, and so does that space times the number of members once they
    are listed.  A member lists its images in the order of the model
    ball, which is the sigma source's ball, so sigma's padded and
    inverse images are read from it directly.

    phi runs on ``sofic.search``, a closure element per position.  As
    traces and distances are multiples of 1/d, (i) is the window of
    fixed-point counts k with ``gap_below(|k/d - mu|, delta)``, and a
    product fails at the fewest disagreements c with
    ``not gap_below(c/d, delta)``, for either kind of tolerance.
    """
    model = params.model
    uni = params.universe
    d = params.d
    delta = params.delta
    space = sofic.pool_size(d, "all") ** len(uni)
    if space > HA_CAP:
        raise InfeasibleError("search space", space, "candidates", HA_CAP)
    sa_params = model.context.sigma_params(1 if isinstance(delta, SqrtTol) else delta, d)
    below = partial(gap_below, tol=delta)
    # (i): a trace window on each cylinder projection
    centres = [model.mu_points(s) if i < uni.p_count else None
               for i, s in enumerate(uni.elements)]
    windows = sofic.fixed_windows(d, centres, below)
    pools = sofic.candidate_pool(d, "all", windows)
    sigma_members = list(sofic.iter_SA_members(sa_params))
    space *= max(len(sigma_members), 1)
    if space > HA_CAP:
        raise InfeasibleError("search space", space, "candidates", HA_CAP)
    n, n_ball = len(uni), len(model.ball)
    # slots: the positions, then phi(letter) sigma(b)^-1 for every letter
    # and ball element b, then sigma(b), sigma(b)^-1 and the identity
    sig = n + len(uni.letter_index) * n_ball
    sig_inv = sig + n_ball
    ident = sig_inv + n_ball
    slots: list = [None] * (ident + 1)
    slots[ident] = tuple(range(d + 1))
    derived = [[] for _ in range(n)]
    triples = [[] for _ in range(n)]
    for (i, j, k) in uni.triples:  # (iii)
        triples[max(i, j, k)].append((i, j, k))
    for letter, pos in enumerate(uni.letter_index):  # (ii)
        for b in range(n_ball):
            tpos = uni.index[model.translate(b, letter)]
            k = n + letter * n_ball + b
            derived[pos].append((k, (pos, sig_inv + b)))
            triples[max(pos, tpos)].append((sig + b, k, tpos))
    triples[uni.x_index].append((ident, uni.x_index, ident))  # (iv)
    limit = next((c for c in range(d + 1) if not below(Fraction(c, d))), d + 1)

    def compose(slots, ij):
        return tuple(map(slots[ij[0]].__getitem__, slots[ij[1]]))

    letter_pos = [uni.letter_index[i] for i in Q]
    restrictions = set()
    sa_restrictions = set()
    for sigma in sigma_members:
        slots[sig:sig_inv] = [(0,) + s.images for s in sigma.images]
        slots[sig_inv:ident] = [(0,) + pperm._inverse_images(s.images)
                                for s in sigma.images]
        sigma_e = sigma.restriction(E)
        sa_restrictions.add(sigma_e)
        for phi in sofic.search(pools, derived, triples, limit, slots, compose):
            restrictions.add((sigma_e, tuple(phi[p] for p in letter_pos)))
    count = len(restrictions)
    return count, sofic.statistic_from_count(count, d), len(sa_restrictions)
