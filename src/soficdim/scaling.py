"""Corner compression and dilation of candidate maps, plus the value identity.

A corner datum couples an ambient groupoid with a unit projection p of
rational mass (N-k)/N and k bisections whose domains sit inside p with
mass 1/N each and whose ranges tile the complement of p.  Candidates
travel both ways:

* expansion takes a candidate over the corner of degree d (with
  (N-k) | d) to one over the ambient of degree d' = N d / (N-k),
  gluing k new blocks to {1..d} through chosen bijections; the output
  is verified at delta' = 5 N^2 delta + 150 N^2 (2|F u S|+1)^(2(2n+5)) delta.

* restriction cuts an ambient candidate of degree d down to the fixed
  set of the image of p, adjusted to exactly floor(h(p) d) points, and
  is verified at 20 delta / h(p).

The datum fixes the generating sets both steps use: F_corner is the
corner identity and the mover domain projections, and F_ambient is
F_corner pushed into the ambient joined with the movers.  It works
them out once and builds each radius-n source over them once.

The closed identity s(ambient) - 1 = h(p) (s(corner) - 1) is exposed
as exact arithmetic in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import pperm, sofic
from .groupoid import (
    CornerEmbedding,
    FiniteGroupoid,
    GroupoidError,
    PartialBisection,
    b_compose,
    b_inverse,
    corner_embedding,
    full_identity,
    projection_bisection,
    tau,
)
from .pperm import PartialPermutation
from .rng import SplitMix64
from .sofic import GroupoidSource, MembershipReport, SAParams, SoficCandidate


class CornerDataError(GroupoidError):
    """The corner datum violates one of its three exact conditions."""


@dataclass(frozen=True)
class CornerData:
    """Ambient groupoid, unit projection of mass (N-k)/N, and the k movers.

    Conditions validated exactly: dom(s_i) inside p with mass 1/N, and
    the ranges of the s_i tile the complement of p.  The datum derives,
    each on first use and then kept: ``dom_projections``, the mover
    domains as corner projections; ``F_corner``, the corner identity
    followed by those domains; ``F_ambient``, F_corner embedded in the
    ambient followed by the movers (so it holds the image of p);
    through ``corner_source(n)`` and ``ambient_source(n)``, the radius-n
    membership source over each set; through ``expansion_source(n)``,
    the corner source an expansion at radius n reads; and through
    ``expansion_plan(n)``, the bisection algebra of that expansion.
    """

    ambient: FiniteGroupoid
    p_units: frozenset
    S: tuple
    N: int
    k: int
    embedding: CornerEmbedding

    @property
    def h_p(self) -> Fraction:
        return Fraction(self.N - self.k, self.N)

    @property
    def corner(self) -> FiniteGroupoid:
        return self.embedding.groupoid

    def p_ambient(self) -> PartialBisection:
        return projection_bisection(self.ambient, self.p_units)

    @cached_property
    def dom_projections(self) -> tuple:
        """dom(s_i) = s_i^-1 s_i of each mover, as corner projections."""
        return tuple(self.embedding.pull_back_bisection(b_compose(b_inverse(s), s))
                     for s in self.S)

    @cached_property
    def F_corner(self) -> tuple:
        """The corner identity, then each distinct mover domain projection."""
        return tuple(dict.fromkeys(
            (full_identity(self.corner),) + self.dom_projections))

    @cached_property
    def F_ambient(self) -> tuple:
        """F_corner embedded in the ambient, then each mover not yet in it."""
        return tuple(dict.fromkeys(
            [self.embedding.embed_bisection(f) for f in self.F_corner] + list(self.S)))

    def corner_source(self, n: int) -> GroupoidSource:
        """The radius-n source over F_corner, built on first use."""
        return self._once(("corner", n),
                          lambda: GroupoidSource(self.corner, self.F_corner, n))

    def ambient_source(self, n: int) -> GroupoidSource:
        """The radius-n source over F_ambient, built on first use."""
        return self._once(("ambient", n),
                          lambda: GroupoidSource(self.ambient, self.F_ambient, n))

    def expansion_source(self, n: int) -> GroupoidSource:
        """The corner source an expansion at radius n reads its candidate
        over: ``corner_source(4 n + 5)``."""
        return self.corner_source(4 * n + 5)

    def expansion_plan(self, n: int) -> tuple:
        """What ``expand_sigma`` at radius n reads of the datum, built on
        first use: for each element u of ``ambient_source(n)``, in ball
        order, one (i, j, f, pos) per nonempty piece r_i u r_j, where
        r_0 = p and r_i = ran(s_i) cut the ambient into blocks.  f is the
        piece moved into the corner, m_i^-1 (r_i u r_j) m_j pulled back
        (m_0 = p, m_i = s_i), and pos its position in
        ``expansion_source(n)``, None where that ball misses it."""
        def build():
            position = self.expansion_source(n).position
            movers = [self.p_ambient(), *self.S]
            cut = [b_compose(m, b_inverse(m)) for m in movers]
            plan = []
            for u in self.ambient_source(n).ball_elements:
                pieces = []
                for i, (r_i, m_i) in enumerate(zip(cut, movers)):
                    row = b_compose(r_i, u)
                    for j, (r_j, m_j) in enumerate(zip(cut, movers)):
                        piece = b_compose(row, r_j)
                        if piece.arrows:
                            f = self.embedding.pull_back_bisection(
                                b_compose(b_compose(b_inverse(m_i), piece), m_j))
                            pieces.append((i, j, f, position.get(f)))
                plan.append(tuple(pieces))
            return tuple(plan)
        return self._once(("plan", n), build)

    @cached_property
    def _derived(self) -> dict:
        """What ``_once`` has built, by key."""
        return {}

    def _once(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


def make_corner_data(g: FiniteGroupoid, p_units, S) -> CornerData:
    p_units = frozenset(p_units)
    if not p_units:
        raise CornerDataError("the corner needs a nonempty unit set")
    S = tuple(S)
    k = len(S)
    mass = sum((g.unit_weights[e] for e in sorted(p_units)), Fraction(0))
    if k == 0:
        if mass != 1:
            raise CornerDataError("with no movers the projection must be full")
        N = 1
    else:
        dom_masses = {tau(b_compose(b_inverse(s), s)) for s in S}
        if len(dom_masses) != 1:
            raise CornerDataError("mover domains must share one mass 1/N")
        inv_mass = next(iter(dom_masses))
        if inv_mass == 0 or (1 / inv_mass).denominator != 1:
            raise CornerDataError("mover domain mass must be 1/N for integer N")
        N = int(1 / inv_mass)
        if mass != Fraction(N - k, N):
            raise CornerDataError(
                f"projection mass {mass} is not (N-k)/N = {Fraction(N - k, N)}")
        covered = set()
        for s in S:
            for e in s.dom_units():
                if e not in p_units:
                    raise CornerDataError("mover domain leaves the projection")
            ran = s.ran_units()
            if ran & p_units:
                raise CornerDataError("mover range meets the projection")
            if ran & covered:
                raise CornerDataError("mover ranges overlap")
            covered |= ran
        if covered != set(range(g.n_units)) - p_units:
            raise CornerDataError("mover ranges do not tile the complement")
    return CornerData(g, p_units, S, N, k, corner_embedding(g, sorted(p_units)))


def standard_corner(g: FiniteGroupoid, p_units) -> CornerData:
    """Corner datum for a uniform-weight groupoid: one single-arrow mover
    per missing unit, sources assigned in sorted order."""
    p_units = sorted(set(p_units))
    n = g.n_units
    if len(set(g.unit_weights)) != 1:
        raise CornerDataError("standard corners need uniform unit weights")
    missing = [e for e in range(n) if e not in p_units]
    S = []
    for i, f in enumerate(missing):
        e = p_units[i % len(p_units)]
        arrows = [a for a in range(g.n_arrows)
                  if g.source[a] == e and g.range_[a] == f]
        if not arrows:
            raise CornerDataError(f"no arrow from unit {e} to unit {f}")
        S.append(PartialBisection(g, frozenset([min(arrows)])))
    return make_corner_data(g, p_units, S)


def expansion_delta(cd: CornerData, n: int, delta) -> Fraction:
    size, N = len(cd.F_ambient), cd.N
    return (5 * N ** 2 + 150 * N ** 2 * (2 * size + 1) ** (2 * (2 * n + 5))) \
        * Fraction(delta)


@dataclass(frozen=True)
class ExpandResult:
    candidate: SoficCandidate
    params: SAParams
    report: MembershipReport
    delta_prime: Fraction
    d_prime: int
    blocks: tuple  # A_0..A_k as sorted tuples
    gammas: tuple  # the block bijections as partial permutations


def expand_sigma(sigma: SoficCandidate, cd: CornerData, n: int,
                 delta, seed: int) -> ExpandResult:
    """Dilate a corner candidate to the ambient groupoid and verify it.

    The corner candidate must cover the radius 4n+5 ball over the
    datum's F_corner and be a member there at delta; the degree d must be
    divisible by N-k.  New blocks A_1..A_k are glued to A_0 = {1..d}
    through bijections gamma_i from near-fixed sets B_i, each onto its
    block in an order shuffled by ``seed``.
    """
    delta = Fraction(delta)
    d = sigma.degree
    N, k = cd.N, cd.k
    if (N - k) == 0 or d % (N - k):
        raise ValueError(f"degree {d} is not divisible by N-k = {N - k}")
    corner_src = cd.expansion_source(n)
    rep = sofic.verify_membership(sigma, SAParams(corner_src, delta, d))
    if not rep.is_member:
        raise ValueError(
            f"corner candidate is not a member at radius {4 * n + 5}: "
            f"mult gap {rep.mult_gap}, trace gap {rep.trace_gap}")

    d_prime = d * N // (N - k)
    block = d_prime // N
    blocks = [tuple(range(1, d + 1))]
    nxt = d + 1
    for _ in range(k):
        blocks.append(tuple(range(nxt, nxt + block)))
        nxt += block

    # near-fixed sets B_i from the images of the domain projections
    gammas = [PartialPermutation.projection(d_prime, range(1, d + 1))]
    rng = SplitMix64(seed)
    for i, dom_proj in enumerate(cd.dom_projections, start=1):
        fix = [x for x in range(1, d + 1)
               if sigma.images[corner_src.position[dom_proj]].images[x - 1] == x]
        if len(fix) >= block:
            b_i = fix[:block]
        else:
            fixed = set(fix)
            fill = [x for x in range(1, d + 1) if x not in fixed]
            b_i = fix + fill[:block - len(fix)]
        sym_diff = len(set(fix) ^ set(b_i))
        if Fraction(sym_diff) >= delta * d_prime:
            raise ValueError(
                f"near-fixed set of mover {i} misses its block by {sym_diff} points")
        targets = list(blocks[i])
        rng.shuffle(targets)
        images = [0] * d_prime
        for x, y in zip(sorted(b_i), targets):
            images[x - 1] = y
        gammas.append(PartialPermutation(d_prime, images))

    amb_src = cd.ambient_source(n)
    delta_prime = expansion_delta(cd, n, delta)
    amb_params = SAParams(amb_src, delta_prime, d_prime)
    gamma_inverses = [pperm.inverse(gamma) for gamma in gammas]

    def expand_element(pieces) -> PartialPermutation:
        parts = []
        for i, j, f_c, pos in pieces:
            if pos is None:
                raise ValueError(f"corner element {f_c!r} outside the candidate ball")
            inner = pperm.embed(sigma.images[pos], d_prime)
            parts.append(pperm.compose(gammas[i],
                                       pperm.compose(inner, gamma_inverses[j])))
        return pperm.orthogonal_sum(parts, d_prime)

    images = [expand_element(pieces) for pieces in cd.expansion_plan(n)]
    cand = SoficCandidate(d_prime, images)
    report = sofic.verify_membership(cand, amb_params)
    return ExpandResult(cand, amb_params, report, delta_prime, d_prime,
                        tuple(blocks), tuple(gammas))


@dataclass(frozen=True)
class RestrictResult:
    candidate: SoficCandidate
    params: SAParams
    report: MembershipReport
    delta_prime: Fraction
    d_prime: int
    p_distance: Fraction  # |sigma(p) - p_B|


def restrict_sigma(sigma: SoficCandidate, cd: CornerData, delta) -> RestrictResult:
    """Cut an ambient candidate down to the radius-1 corner ball and
    verify it there.

    The candidate must cover the radius-5 ball (the corner radius plus
    4) over the datum's F_ambient and be a member there at delta, with
    d' = floor(h(p) d) > 1/delta.  The base set B starts from the fixed
    points of the image of p and is extended by the smallest absent
    indices or shrunk by its smallest members to exactly d' points.
    """
    delta = Fraction(delta)
    d = sigma.degree
    h_p = cd.h_p
    d_prime = int(h_p * d)
    if d_prime * delta <= 1:
        raise ValueError(f"d' = {d_prime} must exceed 1/delta = {1 / delta}")
    amb_src = cd.ambient_source(5)
    rep = sofic.verify_membership(sigma, SAParams(amb_src, delta, d))
    if not rep.is_member:
        raise ValueError(
            "ambient candidate is not a member at radius 5: "
            f"mult gap {rep.mult_gap}, trace gap {rep.trace_gap}")

    sig_p = sigma.images[amb_src.position[cd.p_ambient()]]
    b0 = [x for x in range(1, d + 1) if sig_p.images[x - 1] == x]
    if len(b0) >= d_prime:
        B = sorted(b0)[len(b0) - d_prime:]  # shrink by removing smallest
    else:
        kept = set(b0)
        absent = [x for x in range(1, d + 1) if x not in kept]
        B = sorted(b0 + absent[:d_prime - len(b0)])
    p_b = PartialPermutation.projection(d, B)
    p_distance = pperm.uniform_distance(sig_p, p_b)

    corner_src = cd.corner_source(1)
    delta_prime = 20 * delta / h_p
    corner_params = SAParams(corner_src, delta_prime, d_prime)

    def restrict_element(f_c: PartialBisection) -> PartialPermutation:
        f_amb = cd.embedding.embed_bisection(f_c)
        pos = amb_src.position.get(f_amb)
        if pos is None:
            raise ValueError(f"ambient element {f_amb!r} outside the candidate ball")
        return pperm.reindex(sigma.images[pos], B)

    images = [restrict_element(f) for f in corner_src.ball_elements]
    cand = SoficCandidate(d_prime, images)
    report = sofic.verify_membership(cand, corner_params)
    return RestrictResult(cand, corner_params, report, delta_prime, d_prime,
                          p_distance)


# -- the closed identity ----------------------------------------------------------


def scaling_value(s_corner, h_p):
    """s over the ambient from s over the corner: h_p (s_corner - 1) + 1."""
    h_p = Fraction(h_p)
    if not 0 < h_p <= 1:
        raise ValueError("the projection mass must lie in (0, 1]")
    if isinstance(s_corner, float):
        return float(h_p) * (s_corner - 1.0) + 1.0
    return h_p * (Fraction(s_corner) - 1) + 1


def scaling_value_inverse(s_ambient, h_p):
    """s over the corner from s over the ambient: (s_ambient - 1)/h_p + 1."""
    h_p = Fraction(h_p)
    if not 0 < h_p <= 1:
        raise ValueError("the projection mass must lie in (0, 1]")
    if isinstance(s_ambient, float):
        return (s_ambient - 1.0) / float(h_p) + 1.0
    return (Fraction(s_ambient) - 1) / h_p + 1
