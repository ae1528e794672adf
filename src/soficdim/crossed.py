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

The pair's phi is projection-valued, and that is the contract of every
check here.  build_phi is the only builder of pairs in this package, and
it keeps only the points V where phi0 is 0/1 on every universe element,
so each of its values is the projection onto a support.  An HACandidate
therefore holds supports, not maps: one int bitmask per universe
element, bit x for point x of 1..d.  Each check of a pair takes the pair
and a tolerance, and reads the cylinder model, the degree and the
projection universe from the pair's ModelMember.  The checks count
disagreements, a gap being a count over d, and two projections disagree
exactly on the symmetric difference of their supports.  So each gap is a
bit count: the trace of the projection onto m is m.bit_count() over d;
sigma transports it by s p s^-1, the projection onto s(m), whose mask is
read from the inverse image tuples of sigma that its ModelMember builds
once for all of its partitions; the product property (iii) runs over
the triples of the projection universe, and the composite of the
projections onto A and B is the projection onto A & B, so it counts
((m_i & m_j) ^ m_k).bit_count(); the 146 delta linearity runs over the
disjoint pairs, and the corrected sum of the projections onto A and B
(a where a is defined, else b unless b's image lies in a's range, which
for projections is A itself) is the projection onto A | B, so it counts
((m_i | m_j) ^ m_k).bit_count(); and the unit gap counts d minus the
full space's support.  ha_statistic alone enumerates arbitrary partial
maps phi, a superset of the pairs these checks certify.

The trace check compares integer numerators over the point weights'
denominator, and the four phi0 properties compare phi0's values as
integer numerators over the span basis' one denominator D
(``SpanBasis.den``), with no rescaling per table; each builds one
Fraction per reported gap.  The checks read what depends only on the
model from its tables, each computed once per model: the translates of
the letter sets (``CylinderModel.translates``) for equivariance, the
measures of the distinct projections (``projection_mu_nums``) for the
traces and the trace windows of ha_statistic, the meets of the product
property and the disjoint cylinder pairs of build_phi.  delta0^2, the
ha tolerance^2 and V's size factor are computed once per basis and
delta (``SpanBasis.per_delta``).
Square roots never enter the arithmetic: bounds against sqrt(delta)
are decided by comparing squares of exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import pperm, sofic
from .partitions import (
    CylinderModel,
    HypothesisError,
    ModelMember,
    Phi0Table,
    SpanBasis,
)
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
        projections = model.distinct_projections
        self.p_count = len(projections)
        elements, index, decomposition = sofic.sum_closure(
            projections, projections, lambda sets: frozenset().union(*sets))
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


class HACandidate:
    """A sigma candidate, held through its ModelMember, plus the support
    of phi's projection at every sum-closure element.

    ``supports`` holds one int bitmask per element of the model's
    projection universe, bit x for point x of 1..d, d sigma's degree;
    a wrong length or a bit outside 1..d raises ValueError.  Candidates
    that share a member share its alignment to the model ball and its
    membership check."""

    __slots__ = ("member", "supports")

    def __init__(self, member: ModelMember, supports):
        n = len(member.model.universe)
        d = member.sigma.degree
        self.member = member
        self.supports = tuple(supports)
        if len(self.supports) != n:
            raise ValueError(f"phi covers {len(self.supports)} of {n} projections")
        if any(m >> (d + 1) or m & 1 for m in self.supports):
            raise ValueError(f"phi supports must lie in 1..d, sigma's degree d = {d}")


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


def verify_HA(cand: HACandidate, tol) -> HAReport:
    """Exact worst gaps of (sigma, phi) against conditions (i)-(iv) at
    ``tol``, a rational or a SqrtTol.

    The cylinder model, its projection universe and the degree d of
    sigma are read from the candidate's ModelMember, and phi is the
    projection onto each of the candidate's supports m.

    (i) runs over the distinct cylinder projections, comparing
    m.bit_count() / d with the measure.  (ii) runs over letter blocks
    against every ball element: phi of the translated cylinder against
    the phi-image transported by sigma, s p s^-1, which is the
    projection onto s(m), the points x whose s^-1(x) lies in m (read
    from the member's inverse image tuples).  (iii) runs over
    sum-closure pairs whose product stays in the closure: the composite
    of two projections is the projection onto the meet of their
    supports, so the triple (i, j, k) counts
    ((m_i & m_j) ^ m_k).bit_count().  (iv) counts the points off the
    full space's support m_X, d - m_X.bit_count().  Two
    projections differ exactly on the symmetric difference of their
    supports, so each count is a bit count, and each gap that count
    over d.  sigma must also be a member at the same tolerance: its
    membership report is read from the candidate's ModelMember, which
    computes it once.  That report is taken at tolerance 2, above every
    gap, so its ``is_member`` says only that sigma's additive extension
    resolves; with both gaps below the working tolerance this is
    membership at it.
    """
    member = cand.member
    model = member.model
    uni = model.universe
    d = member.sigma.degree
    tol = tol if isinstance(tol, SqrtTol) else Fraction(tol)
    rep = member.sigma_report
    sigma_ok = (rep.is_member and gap_below(rep.mult_gap, tol)
                and gap_below(rep.trace_gap, tol))
    masks = cand.supports

    # |m.bit_count()/d - mu| over M d, M the model's weight denominator
    M = model.weight_den
    i, trace_num = sofic._first_largest(enumerate(
        abs(m.bit_count() * M - mu * d) for m, mu in zip(masks, model.projection_mu_nums)), 0)
    trace_gap = Fraction(trace_num, M * d)
    trace_wit = "" if i is None else f"projection {i}"

    def equivariance():
        for letter, pos in enumerate(uni.letter_index):
            m = masks[pos]
            for bidx, inv in enumerate(member.inverses):
                # s(m): bit 0 is never set, so an undefined s^-1(x) = 0 misses
                moved = sum([1 << x for x, y in enumerate(inv, start=1) if m >> y & 1])
                target = masks[uni.index[model.translates[bidx][letter]]]
                yield (letter, bidx), (target ^ moved).bit_count()

    at, equi_count = sofic._first_largest(equivariance(), 0)
    equi_wit = "" if at is None else f"letter {at[0]}, ball {at[1]}"
    equi_gap = Fraction(equi_count, d)

    counts = [((masks[i] & masks[j]) ^ masks[k]).bit_count() for i, j, k in uni.triples]
    ijk, mult_count = sofic._first_largest(zip(uni.triples, counts), 0)
    mult_wit = "" if ijk is None else f"pair {ijk[:2]}"
    mult_gap = Fraction(mult_count, d)

    unit_gap = Fraction(d - masks[uni.x_index].bit_count(), d)
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


def approx_sum_check(cand: HACandidate, delta) -> SumCheck:
    """Approximate linearity of phi on every disjoint pair at bound 146 delta.

    ``delta`` is rational.  The pairs are the ``sum_pairs`` of the
    projection universe of the candidate member's model, at the radius
    the model was built for, and the degree is sigma's;
    ``verify --suite lin146`` passes the radius-n model, not the one at
    four times the working radius that the lemma states the bound for.
    On the full-group sources that the tabled suites reach, that cannot
    change an outcome: the generators are every non-identity element of
    the full group, so the ball is the whole group at radius 1.
    ``verify --suite lin146 --source "zmod(2)" --d 4 --delta 1/10
    --partitions 3 --seed 1`` checks 225 pairs at ``--n`` 1, 2 and 4
    alike.  For a pair (a, b) with union w the corrected sum takes a
    where a is defined and otherwise b, cut off a's range; the gap
    counts the points where phi(w) differs from it.  The corrected sum
    of the projections onto A and B is the projection onto A | B (off
    A, b's image x is not in a's range A), so pair (i, j, k) counts
    ((m_i | m_j) ^ m_k).bit_count() over the candidate's supports m.
    That the pair
    (sigma, phi) is a member is the caller's to establish (``verify
    --suite ha`` reports it through ``build_phi``); this check reads phi
    alone.
    """
    if isinstance(delta, SqrtTol):
        raise ValueError("the linearity bound needs a rational tolerance")
    masks = cand.supports
    counts = [((masks[i] | masks[j]) ^ masks[k]).bit_count()
              for i, j, k in cand.member.model.universe.sum_pairs]
    return SumCheck(tuple(counts), cand.member.sigma.degree, 146 * Fraction(delta))


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


def delta0_squared(basis: SpanBasis, delta) -> Fraction:
    ell = Fraction(basis.ell)
    return (Fraction(9) / basis.gamma ** 2 * basis.kappa ** 4 * ell ** 4
            * basis.model.q ** 2 * basis.constants.c3 ** 4 * Fraction(delta))


def build_phi0(table: Phi0Table, delta) -> PropertyReport:
    """The four-property certification of the table's linear map phi0.

    Sweeps the four properties against delta0.  Every subset the sweeps
    read (the projections, their meets, the letter sets, their
    translates and the full set) is taken as integer numerators over the
    basis' one denominator D (``Phi0Table.numerators``), and each gap is
    decided on integers: a squared 2-norm is a sum of squares over D^2 d
    (D^4 d for products).  The product property's gap is symmetric in
    the pair, so its first largest value in (i, j) order has i <= j, and
    only that half (``CylinderModel.projection_meets``) is visited.  The
    lemma assumes that the table's sigma satisfies the membership
    hypothesis at the inflated radius (``LemmaContext.check_hypothesis``),
    which the sweep does not check.
    """
    delta = Fraction(delta)
    basis = table.basis
    model = basis.model
    d = table.d
    D = basis.den
    projections = model.distinct_projections

    def v(subset):
        return table.numerators(subset)[1]

    pv = [v(p) for p in projections]
    # |trace phi0(p) - mu(p)| = |sum v(p) M - mu_M(p) D d| / (D M d)
    M = model.weight_den
    i, trace_num = sofic._first_largest(enumerate(
        abs(sum(n) * M - mu * D * d) for n, mu in zip(pv, model.projection_mu_nums)), 0)
    trace_wit = "" if i is None else f"projection {i}"
    trace_sq = Fraction(trace_num * trace_num, (D * M * d) ** 2)

    def equivariance():
        for letter, bset in enumerate(model.letter_sets):
            g = (0,) + v(bset)
            for bidx, inv in enumerate(table.member.inverses):
                # push the diagonal of g forward along s: (s g s^-1)(y) = g(s^-1 y)
                f = v(model.translates[bidx][letter])
                yield (letter, bidx), sum((a - b) ** 2 for a, b in
                                          zip(f, map(g.__getitem__, inv)))

    at, equi_num = sofic._first_largest(equivariance(), 0)
    equi_wit = "" if at is None else f"letter {at[0]}, ball {at[1]}"

    # |phi0(p1 & p2) - phi0(p1) phi0(p2)|^2 = sum (D n12 - n1 n2)^2 / (D^4 d)
    pair, mult_num = sofic._first_largest(
        (((i, j), sum((D * c - a * b) ** 2 for a, b, c in
                      zip(pv[i], pv[j], v(meet))))
         for (i, j), meet in model.projection_meets.items()), 0)
    mult_wit = "" if pair is None else f"pair {pair}"

    unit_num = sum((x - D) ** 2 for x in v(frozenset(range(model.action.n_points))))
    return PropertyReport(basis.per_delta(delta0_squared, delta), trace_sq,
                          Fraction(equi_num, D * D * d), Fraction(mult_num, D ** 4 * d),
                          Fraction(unit_num, D * D * d), (trace_wit, equi_wit, mult_wit))


# -- the restriction phi ---------------------------------------------------------


@dataclass(frozen=True)
class BuildPhiResult:
    """The pair that build_phi restricts to V, the SqrtTol ``tolerance``
    it is certified at, V with its size bound, and the certificate."""

    candidate: HACandidate
    tolerance: SqrtTol
    V: frozenset
    v_fraction: Fraction
    v_bound: Fraction
    v_ok: bool

    @cached_property
    def report(self) -> HAReport:
        """``verify_HA`` of the pair at ``tolerance``, computed when
        first read, so a caller that reads only ``candidate`` (``verify
        --suite lin146``) certifies nothing."""
        return verify_HA(self.candidate, self.tolerance)


def ha_tolerance_squared(basis: SpanBasis, delta) -> Fraction:
    ell = Fraction(basis.ell)
    p_size = len(basis.model.distinct_projections)
    return (Fraction(81) * p_size ** 4 / basis.gamma ** 4 * basis.kappa ** 10
            * ell ** 4 * basis.model.q ** 2 * basis.constants.c3 ** 4 * Fraction(delta))


def v_size_factor(basis: SpanBasis, delta) -> Fraction:
    """The lower bound on |V| / d, 1 - 2 |P|^2 c3^2 kappa^4 delta / gamma^2."""
    p_size = len(basis.model.distinct_projections)
    return 1 - (2 * p_size ** 2 * basis.constants.c3 ** 2 * basis.kappa ** 4
                * Fraction(delta) / basis.gamma ** 2)


def build_phi(table: Phi0Table, delta) -> BuildPhiResult:
    """Restrict the table's phi0 to its exactness set V and certify the
    resulting pair with the table's sigma.

    V keeps the points where phi0 of every cylinder already equals the
    image-side indicator and where disjoint cylinders have disjoint
    supports; on V each sum-closure value is a genuine projection, held
    as the bitmask of its support (``HACandidate``).  The pair is
    certified at the displayed tolerance, a SqrtTol kept as the
    result's ``tolerance``, when its ``report`` is first read, and the
    size of V is checked against its lower bound.  The supports run
    over the model's projection universe; subsets whose phi0 numerators
    are equal share one support, computed once.
    """
    delta = Fraction(delta)
    basis = table.basis
    model = basis.model
    d = table.d
    V = set(range(1, d + 1))
    for residual in table.residuals:
        V -= {x for x, r in enumerate(residual, start=1) if r}
    a_psis = table.a_psis
    for i, j in model.disjoint_psi_pairs:
        V -= a_psis[i] & a_psis[j]
    if not V:
        raise HypothesisError("the exactness set V is empty; the linear map "
                              "certification hypotheses must have failed")
    tolerance = SqrtTol(basis.per_delta(ha_tolerance_squared, delta))
    v_bound = d * basis.per_delta(v_size_factor, delta)
    by_nums = {}
    supports = []
    for subset in model.universe.elements:
        den, nums = table.numerators(subset)
        m = by_nums.get(nums)
        if m is None:
            m = 0
            for x in V:
                v = nums[x - 1]
                if v == den:
                    m |= 1 << x
                elif v:
                    raise HypothesisError(f"phi0 is not 0/1 on V at point {x} "
                                          f"(value {Fraction(v, den)})")
            by_nums[nums] = m
        supports.append(m)
    return BuildPhiResult(HACandidate(table.member, supports), tolerance, frozenset(V),
                          Fraction(len(V), d), v_bound, len(V) >= v_bound)


# -- joint enumeration -----------------------------------------------------------


# most (phi, sigma) candidates the joint enumeration may search
HA_CAP = 10 ** 7


def ha_statistic(model: CylinderModel, delta, d: int, E, Q) -> tuple[int, float, int]:
    """(count, statistic, sa_count): the distinct (sigma|_E, phi|_Q) over
    members sigma of degree d at delta (at 1 for a ``SqrtTol``) and maps
    phi over the model's projection universe passing (i)-(iv) with them,
    the log statistic of their count, and the distinct sigma|_E.

    phi runs over every partial map of degree d at each universe
    element, not only projections: the statistic counts a superset of
    the projection-valued pairs that ``verify_HA`` certifies.

    ``delta`` is a rational or a SqrtTol.  E indexes positions of the
    model ball, Q letter blocks.  Enumeration is exhaustive over both
    halves; tiny instances only.  The members sigma are enumerated
    first, over the context's ``sigma_params``.  A
    search space of phi candidates above ``HA_CAP``, as it reads when
    the call runs, raises InfeasibleError before any pool or member is
    built, and so does that space times the number of members once they
    are listed.  A member lists its images in the order of the model
    ball, which is the sigma source's ball, so sigma's padded and
    inverse images are read from it directly.

    phi runs on ``sofic.search``, a closure element per position.  As
    traces and distances are multiples of 1/d, both tests come from the
    squared tolerance (``value_sq``, or delta^2): (i) is the window of
    fixed-point counts k with |k/d - mu| < delta
    (``sofic.fixed_windows``), and a product fails at the fewest
    disagreements c with c/d >= delta, ``sofic.reach(tol_sq, d) + 1``.
    """
    uni = model.universe
    delta = delta if isinstance(delta, SqrtTol) else Fraction(delta)
    space = sofic.pool_size(d, "all") ** len(uni)
    if space > HA_CAP:
        raise InfeasibleError("search space", space, "candidates", HA_CAP)
    sa_params = model.context.sigma_params(1 if isinstance(delta, SqrtTol) else delta, d)
    tol_sq = delta.value_sq if isinstance(delta, SqrtTol) else delta ** 2
    # (i): a trace window on each cylinder projection
    centres = [Fraction(mu, model.weight_den) for mu in model.projection_mu_nums]
    centres += [None] * (len(uni) - uni.p_count)
    windows = sofic.fixed_windows(d, centres, tol_sq)
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
            tpos = uni.index[model.translates[b][letter]]
            k = n + letter * n_ball + b
            derived[pos].append((k, (pos, sig_inv + b)))
            triples[max(pos, tpos)].append((sig + b, k, tpos))
    triples[uni.x_index].append((ident, uni.x_index, ident))  # (iv)
    limit = sofic.reach(tol_sq, d) + 1

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
