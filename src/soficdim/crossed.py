"""Approximation pairs for groupoid actions on finite Bernoulli models.

A pair (sigma, phi) approximates an action when sigma approximates the
groupoid and phi maps the orthogonal-sum closure of the cylinder
projections into partial permutations so that traces match measures,
phi intertwines sigma approximately, products map to products, and the
full space maps close to the identity (conditions (i)-(iv), all
strict inequalities at the working tolerance).

The constructive route starts from a candidate sigma and a partition
of {1..d}: the linear map phi0 sends each basis cylinder projection to
the indicator of its image-side cylinder and extends linearly.  Its
table, partitions.Phi0Table, lives beside the span basis, since the c3
bound reads the same residuals; here its four properties are certified
against

    delta0 = 3 (1/gamma) kappa^2 ell^2 q c3^2 sqrt(delta).

Restricting phi0 to the set V of points where every cylinder residual
vanishes and disjointness is exact yields a genuine partial
permutation valued map phi, certified as a member at the displayed
tolerance 9 |P|^2 (1/gamma^2) kappa^5 ell^2 q c3^2 sqrt(delta), with

    |V| >= d (1 - 2 |P|^2 c3^2 kappa^4 delta / gamma^2).

Square roots never enter the arithmetic: bounds against sqrt(delta)
are decided by comparing squares of exact rationals.
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
    Phi0Table,
    RandomPartition,
    SpanBasis,
    lemma_constants,
    two_norm_sq_vector,
)
from .pperm import PartialPermutation
from .sofic import InfeasibleError, SoficCandidate


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
    """Distinct cylinder projections plus their truncated disjoint sums.

    Elements are subsets of the model point set; ``p_count`` distinct
    cylinder projections come first (order of first appearance over
    the canonical psi order), followed by their disjoint unions; more
    than 20000 elements raise InfeasibleError.  ``triples`` lists
    (i, j, k) with elements[i] & elements[j] == elements[k].  A model
    builds its universe once (``CylinderModel.universe``).
    """

    def __init__(self, model: CylinderModel):
        self.model = model
        self.p_projections = model.distinct_projections
        self.p_count = len(self.p_projections)
        elements, index, decomposition = sofic.sum_closure(
            self.p_projections, self.p_projections, self.p_count,
            lambda sets: frozenset().union(*sets), 20000)
        self.elements = tuple(elements)
        self.index = index
        self.decomposition = tuple(decomposition)
        self.x_index = index[frozenset(range(model.action.n_points))]
        # letter blocks as universe positions (translates by the identity)
        self.letter_index = tuple(index[s] for s in model.letter_sets)
        triples = []
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                k = index.get(a & b)
                if k is not None:
                    triples.append((i, j, k))
        self.triples = tuple(triples)

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

    def sigma_params(self, delta=None) -> sofic.SAParams:
        """Membership parameters for the sigma half over the model ball."""
        return sofic.SAParams(self.model.context.sigma_source, self.model.n,
                              Fraction(delta if delta is not None else 1), self.d)


class HACandidate:
    """A sigma candidate plus images of every sum-closure element."""

    __slots__ = ("sigma", "phi")

    def __init__(self, sigma: SoficCandidate, phi):
        self.sigma = sigma
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


def push_forward(s: PartialPermutation, p: PartialPermutation) -> PartialPermutation:
    """p transported by s, the conjugation s p s^-1.

    On a projection onto A this is the projection onto the image of A
    under s, which is how a candidate map carries a set across.
    """
    return pperm.compose(pperm.compose(s, p), pperm.inverse(s))


def verify_HA(cand: HACandidate, params: HAParams,
              check_sigma: bool = True) -> HAReport:
    """Exact worst gaps of (sigma, phi) against conditions (i)-(iv).

    (i) runs over the distinct cylinder projections, (ii) over letter
    blocks against every ball element (phi of the translated cylinder
    against the phi-image transported by sigma), (iii) over sum-closure
    pairs whose product stays in the closure, and (iv) against the full
    space.  ``check_sigma`` also requires sigma to be a member at the
    same tolerance.
    """
    model = params.model
    uni = params.universe
    tol = params.delta
    d = params.d
    if len(cand.phi) != len(uni):
        raise ValueError(f"phi covers {len(cand.phi)} of {len(uni)} projections")
    images = model.context.align(cand.sigma, model.ball)
    sigma_ok = True
    if check_sigma:
        sp = params.sigma_params()
        aligned = SoficCandidate(d, model.context.align(
            cand.sigma, sp.source.ball_elements))
        rep = sofic.verify_membership(aligned, sp)
        sigma_ok = (gap_below(rep.mult_gap, tol) and gap_below(rep.trace_gap, tol)
                    and not any("unresolvable" in n for n in rep.notes))

    trace_gap, trace_wit = Fraction(0), ""
    for i in range(uni.p_count):
        gap = abs(pperm.trace(cand.phi[i]) - model.mu_points(uni.elements[i]))
        if gap > trace_gap:
            trace_gap, trace_wit = gap, f"projection {i}"

    equi_gap, equi_wit = Fraction(0), ""
    for letter, pos in enumerate(uni.letter_index):
        for bidx in range(len(model.ball)):
            translated = uni.index[model.translate(bidx, letter)]
            lhs = cand.phi[translated]
            rhs = push_forward(images[bidx], cand.phi[pos])
            gap = pperm.uniform_distance(lhs, rhs)
            if gap > equi_gap:
                equi_gap, equi_wit = gap, f"letter {letter}, ball {bidx}"

    mult_gap, mult_wit = Fraction(0), ""
    for (i, j, k) in uni.triples:
        gap = pperm.uniform_distance(cand.phi[k],
                                     pperm.compose(cand.phi[i], cand.phi[j]))
        if gap > mult_gap:
            mult_gap, mult_wit = gap, f"pair ({i}, {j})"

    unit_gap = pperm.uniform_distance(cand.phi[uni.x_index],
                                      PartialPermutation.identity(d))
    member = (sigma_ok and gap_below(trace_gap, tol) and gap_below(equi_gap, tol)
              and gap_below(mult_gap, tol) and gap_below(unit_gap, tol))
    return HAReport(member, trace_gap, trace_wit, equi_gap, equi_wit,
                    mult_gap, mult_wit, unit_gap, sigma_ok, float(tol))


# -- approximate linearity ------------------------------------------------------


def corrected_sum(a: PartialPermutation, b: PartialPermutation) -> PartialPermutation:
    """Sum of two near-orthogonal maps: b is cut off a's domain and range."""
    trimmed = [0] * b.degree
    for x0, y in enumerate(b.images):
        if y and not (a.dom_mask >> x0) & 1 and not (a.ran_mask >> (y - 1)) & 1:
            trimmed[x0] = y
    return pperm.orthogonal_sum([a, PartialPermutation(b.degree, trimmed)])


@dataclass(frozen=True)
class SumCheck:
    gap: Fraction
    bound: Fraction
    passed: bool
    witness: str


def approx_sum_check(cand: HACandidate, params: HAParams, p1, p2,
                     precheck: bool = True) -> SumCheck:
    """Approximate linearity of phi on a disjoint pair at bound 146 delta.

    ``params`` must be built at four times the working radius (its
    model ball is the quadrupled one); ``p1`` and ``p2`` are disjoint
    sum-closure subsets whose union lies in the closure.
    """
    uni = params.universe
    p1, p2 = frozenset(p1), frozenset(p2)
    if p1 & p2:
        raise ValueError("projections are not disjoint")
    if p1 not in uni.index or p2 not in uni.index or (p1 | p2) not in uni.index:
        raise ValueError("pair leaves the sum closure")
    if precheck:
        rep = verify_HA(cand, params)
        if not rep.is_member:
            raise HypothesisError("pair fails the membership hypothesis")
    delta = params.delta
    if isinstance(delta, SqrtTol):
        raise ValueError("the linearity bound needs a rational tolerance")
    a = cand.phi[uni.index[p1]]
    b = cand.phi[uni.index[p2]]
    whole = cand.phi[uni.index[p1 | p2]]
    gap = pperm.uniform_distance(whole, corrected_sum(a, b))
    bound = 146 * delta
    return SumCheck(gap, bound, gap < bound, f"|p1|={len(p1)}, |p2|={len(p2)}")


def disjoint_pairs(params: HAParams):
    """All unordered disjoint pairs whose union stays in the closure."""
    uni = params.universe
    out = []
    for i in range(len(uni)):
        for j in range(i, len(uni)):
            a, b = uni.elements[i], uni.elements[j]
            if not (a & b) and (a | b) in uni.index:
                out.append((a, b))
    return out


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
    consts = lemma_constants(basis.model.f_pm_size, basis.model.n, basis)
    ell = Fraction(basis.ell)
    return (Fraction(9) / basis.gamma ** 2 * basis.kappa ** 4 * ell ** 4
            * q ** 2 * consts.c3 ** 4 * Fraction(delta))


def build_phi0(sigma: SoficCandidate, partition: RandomPartition,
               basis: SpanBasis, delta, precheck: bool = True):
    """The linear map table and its four-property certification.

    Requires sigma to satisfy the membership hypothesis at the inflated
    radius and sweeps the four properties against delta0.
    """
    delta = Fraction(delta)
    model = basis.model
    if precheck:
        model.context.check_hypothesis(sigma, delta)
    table = Phi0Table(basis, sigma, partition)
    d = table.d
    d0_sq = delta0_squared(basis, model.q, delta)
    projections = model.distinct_projections

    trace_sq, trace_wit = Fraction(0), ""
    for i, p in enumerate(projections):
        vals = table.value_vector(p)
        tr = sum(vals, Fraction(0)) / d
        gap = abs(tr - model.mu_points(p))
        if gap * gap > trace_sq:
            trace_sq, trace_wit = gap * gap, f"projection {i}"

    equi_sq, equi_wit = Fraction(0), ""
    for letter, bset in enumerate(model.letter_sets):
        g_vec = table.value_vector(bset)
        for bidx in range(len(model.ball)):
            f_vec = table.value_vector(model.translate(bidx, letter))
            s = table.images[bidx]
            # push the diagonal of g forward along s: (s g s^-1)(y) = g(s^-1 y)
            pushed = [Fraction(0)] * d
            for x in range(1, d + 1):
                y = s.images[x - 1]
                if y:
                    pushed[y - 1] = g_vec[x - 1]
            gap_sq = two_norm_sq_vector(
                [a - b for a, b in zip(f_vec, pushed)], d)
            if gap_sq > equi_sq:
                equi_sq, equi_wit = gap_sq, f"letter {letter}, ball {bidx}"

    mult_sq, mult_wit = Fraction(0), ""
    for i, p1 in enumerate(projections):
        v1 = table.value_vector(p1)
        for j, p2 in enumerate(projections):
            v2 = table.value_vector(p2)
            v12 = table.value_vector(p1 & p2)
            gap_sq = two_norm_sq_vector(
                [a - b * c for a, b, c in zip(v12, v1, v2)], d)
            if gap_sq > mult_sq:
                mult_sq, mult_wit = gap_sq, f"pair ({i}, {j})"

    x_vals = table.value_vector(frozenset(range(model.action.n_points)))
    unit_sq = two_norm_sq_vector([v - 1 for v in x_vals], d)

    report = PropertyReport(d0_sq, trace_sq, equi_sq, mult_sq, unit_sq,
                            (trace_wit, equi_wit, mult_wit))
    return table, report


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
    consts = lemma_constants(basis.model.f_pm_size, basis.model.n, basis)
    ell = Fraction(basis.ell)
    return (Fraction(81) * p_size ** 4 / basis.gamma ** 4 * basis.kappa ** 10
            * ell ** 4 * q ** 2 * consts.c3 ** 4 * Fraction(delta))


def build_phi(phi0: Phi0Table, sigma: SoficCandidate, basis: SpanBasis,
              delta) -> BuildPhiResult:
    """Restrict phi0 to its exactness set V and certify the resulting pair.

    V keeps the points where phi0 of every cylinder already equals the
    image-side indicator and where disjoint cylinders have disjoint
    supports; on V each sum-closure value is a genuine projection.  The
    pair is certified at the displayed tolerance and the size of V is
    checked against its lower bound.
    """
    delta = Fraction(delta)
    model = basis.model
    d = phi0.d
    V = set(range(1, d + 1))
    a_sets = []
    for i in range(len(model.psis)):
        a_psi, residual = phi0.residual(i)
        V -= {x for x, r in enumerate(residual, start=1) if r}
        a_sets.append(a_psi)
    cylinders = [model.cylinder(psi) for psi in model.psis]
    for i, a in enumerate(a_sets):
        for j in range(i + 1, len(a_sets)):
            if not cylinders[i] & cylinders[j]:
                V -= a & a_sets[j]
    if not V:
        raise HypothesisError("the exactness set V is empty; the linear map "
                              "certification hypotheses must have failed")
    consts = lemma_constants(model.f_pm_size, model.n, basis)
    p_size = len(model.distinct_projections)
    params = HAParams(model,
                      SqrtTol(ha_tolerance_squared(basis, model.q, p_size, delta)),
                      d)
    v_bound = Fraction(d) * (1 - 2 * p_size ** 2 * consts.c3 ** 2
                             * basis.kappa ** 4 * delta / basis.gamma ** 2)
    phi_values = []
    for subset in params.universe.elements:
        vals = phi0.value_vector(subset)
        support = set()
        for x in V:
            v = vals[x - 1]
            if v == 1:
                support.add(x)
            elif v != 0:
                raise HypothesisError(
                    f"phi0 is not 0/1 on V at point {x} (value {v})")
        phi_values.append(PartialPermutation.projection(d, support))
    cand = HACandidate(sigma, phi_values)
    report = verify_HA(cand, params)
    return BuildPhiResult(cand, params, frozenset(V), Fraction(len(V), d),
                          v_bound, Fraction(len(V)) >= v_bound, report)


# -- joint enumeration -----------------------------------------------------------


def ha_statistic(params: HAParams, E, Q, sa_delta=None,
                 cap: int = 10 ** 7) -> tuple[int, float]:
    """Distinct (sigma|_E, phi|_Q) pairs over all members, with the
    log statistic.

    E indexes ball elements of the sigma source, Q letter blocks.
    Enumeration is exhaustive over both halves; tiny instances only.
    """
    count, stat, _ = ha_statistic_with_sa(params, E, Q, sa_delta, cap)
    return count, stat


def ha_statistic_with_sa(params: HAParams, E, Q, sa_delta=None,
                         cap: int = 10 ** 7):
    """(count, statistic, sa_count): the distinct (sigma|_E, phi|_Q) over
    members sigma at ``sa_delta`` and maps phi passing (i)-(iv) with
    them, the log statistic of their count, and the distinct sigma|_E.

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
    sa_params = params.sigma_params(sa_delta if sa_delta is not None
                                    else (delta if not isinstance(delta, SqrtTol)
                                          else 1))
    pool = sofic.candidate_pool(d, "all")
    space = len(pool) ** len(uni)
    sigma_members = list(sofic.iter_SA_members(sa_params))
    if space * max(len(sigma_members), 1) > cap:
        raise InfeasibleError(space * max(len(sigma_members), 1), cap)
    below = partial(gap_below, tol=delta)
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
    # (i): a trace window on each cylinder projection
    centres = [model.mu_points(s) if i < uni.p_count else None
               for i, s in enumerate(uni.elements)]
    pools = sofic.trace_windows(pool, d, centres, below)
    limit = next((c for c in range(d + 1) if not below(Fraction(c, d))), d + 1)

    def compose(ij):
        return tuple(map(slots[ij[0]].__getitem__, slots[ij[1]]))

    letter_pos = [uni.letter_index[i] for i in Q]
    restrictions = set()
    sa_restrictions = set()
    for sigma in sigma_members:
        for b, s in enumerate(model.context.align(sigma, model.ball)):
            slots[sig + b] = (0,) + s.images
            slots[sig_inv + b] = (0,) + pperm.inverse(s).images
        sigma_e = sigma.restriction(E)
        sa_restrictions.add(sigma_e)
        for phi in sofic.search(pools, derived, triples, limit, [None] * n, slots,
                                compose):
            restrictions.add((sigma_e, tuple(phi[p] for p in letter_pos)))
    count = len(restrictions)
    return count, sofic.statistic_from_count(count, d), len(sa_restrictions)
