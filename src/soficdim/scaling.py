"""Corner compression and dilation of candidate maps, plus the value identity.

A corner datum couples an ambient groupoid with a unit projection p of
rational mass (N-k)/N and k bisections whose domains sit inside p with
mass 1/N each and whose ranges tile the complement of p.  Candidates
travel both ways, and every expansion runs at the one radius
``EXPAND_N`` that a restriction can follow:

* expansion takes a candidate over the corner of degree d (with
  (N-k) | d) to one over the ambient of degree d' = N d / (N-k),
  gluing k new blocks to {1..d} through chosen bijections; the output
  is certified, when its report is first read, at
  delta' = 5 N^2 delta + 150 N^2 (2|F u S|+1)^(2(2n+5)) delta, n = EXPAND_N.

* restriction cuts an ambient candidate of degree d down to the fixed
  set of the image of p, adjusted to exactly floor(h(p) d) points, and
  is verified at 20 delta / h(p).

The datum fixes the generating sets both steps use: F_corner is the
corner identity and the mover domain projections, and F_ambient is
F_corner pushed into the ambient joined with the movers.  It works
them out once and builds each source the round trip reads over them
once.

The closed identity s(ambient) - 1 = h(p) (s(corner) - 1) is exposed
as exact arithmetic in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import sofic
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
from .pperm import PartialPermutation, _inverse_images, _orthogonal_sum
from .rng import SplitMix64
from .sofic import GroupoidSource, MembershipReport, SAParams, SoficCandidate


class CornerDataError(GroupoidError):
    """The corner datum violates one of its three exact conditions."""


# the ambient radius that restriction reads (the corner radius 1 plus 4),
# and so the radius n of an expansion that a restriction can follow
EXPAND_N = 5


@dataclass(frozen=True)
class CornerData:
    """Ambient groupoid, unit projection of mass (N-k)/N, and the k movers.

    Conditions validated exactly: dom(s_i) inside p with mass 1/N, and
    the ranges of the s_i tile the complement of p.  The datum derives,
    each on first use and then kept: ``dom_projections``, the mover
    domains as corner projections; ``F_corner``, the corner identity
    followed by those domains; ``F_ambient``, F_corner embedded in the
    ambient followed by the movers (so it holds the image of p); the
    membership sources of the round trip, ``corner_source`` (radius 1
    over F_corner, restriction's output), ``ambient_source`` (radius
    ``EXPAND_N`` over F_ambient, expansion's output and restriction's
    input) and ``expansion_source`` (radius 4 ``EXPAND_N`` + 5 over
    F_corner, expansion's input); and ``expansion_plan``, the bisection
    algebra of the expansion.
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

    @cached_property
    def corner_source(self) -> GroupoidSource:
        """The radius-1 source over F_corner that restriction lands in."""
        return GroupoidSource(self.corner, self.F_corner, 1)

    @cached_property
    def ambient_source(self) -> GroupoidSource:
        """The radius-``EXPAND_N`` source over F_ambient."""
        return GroupoidSource(self.ambient, self.F_ambient, EXPAND_N)

    @cached_property
    def expansion_source(self) -> GroupoidSource:
        """The radius 4 ``EXPAND_N`` + 5 source over F_corner that an
        expansion reads its candidate over."""
        return GroupoidSource(self.corner, self.F_corner, 4 * EXPAND_N + 5)

    @cached_property
    def expansion_plan(self) -> tuple:
        """What ``expand_sigma`` reads of the datum: for each element u of
        ``ambient_source``, in ball order, one (i, j, f, pos) per nonempty
        piece r_i u r_j, where r_0 = p and r_i = ran(s_i) cut the ambient
        into blocks.  f is the piece moved into the corner,
        m_i^-1 (r_i u r_j) m_j pulled back (m_0 = p, m_i = s_i), and pos
        its position in ``expansion_source``, None where that ball misses
        it."""
        position = self.expansion_source.position
        movers = [self.p_ambient(), *self.S]
        cut = [b_compose(m, b_inverse(m)) for m in movers]
        plan = []
        for u in self.ambient_source.ball_elements:
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


def expansion_delta(cd: CornerData, delta) -> Fraction:
    size, N, n = len(cd.F_ambient), cd.N, EXPAND_N
    return (5 * N ** 2 + 150 * N ** 2 * (2 * size + 1) ** (2 * (2 * n + 5))) \
        * Fraction(delta)


@dataclass(frozen=True)
class ExpandResult:
    """The expanded candidate, the ambient parameters it is certified
    at (degree d' and tolerance delta' over ``ambient_source``), the
    blocks and the block bijections."""

    candidate: SoficCandidate
    params: SAParams
    blocks: tuple  # A_0..A_k as sorted tuples
    gammas: tuple  # the block bijections as partial permutations

    @cached_property
    def report(self) -> MembershipReport:
        """``verify_membership`` of the candidate at ``params``, computed
        when first read, so a caller that reads only ``candidate``
        (``verify --suite scaling``, through ``restrict_sigma``) sweeps
        the ambient source once."""
        return sofic.verify_membership(self.candidate, self.params)


def expand_sigma(sigma: SoficCandidate, cd: CornerData, delta,
                 seed: int) -> ExpandResult:
    """Dilate a corner candidate to the ambient groupoid at radius
    ``EXPAND_N``.

    The corner candidate must cover the datum's ``expansion_source``
    (radius 4 ``EXPAND_N`` + 5) and be a member there at delta; the
    degree d must be divisible by N-k.  New blocks A_1..A_k are glued
    to A_0 = {1..d} through bijections gamma_i from near-fixed sets
    B_i, each onto its block in an order shuffled by ``seed``.  Each
    ambient image is the orthogonal sum of its pieces
    gamma_i sigma(f) gamma_j^-1 (``expansion_plan``), each held as a
    padded image tuple and summed by ``pperm._orthogonal_sum`` as the
    search sums its slots; an overlap raises OverlapError.  The
    result's certificate at delta' (``expansion_delta``) is computed
    when first read (``ExpandResult.report``).
    """
    delta = Fraction(delta)
    d = sigma.degree
    N, k = cd.N, cd.k
    if (N - k) == 0 or d % (N - k):
        raise ValueError(f"degree {d} is not divisible by N-k = {N - k}")
    corner_src = cd.expansion_source
    rep = sofic.verify_membership(sigma, SAParams(corner_src, delta, d))
    if not rep.is_member:
        raise ValueError(
            f"corner candidate is not a member at radius {4 * EXPAND_N + 5}: "
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
        if sym_diff >= delta * d_prime:
            raise ValueError(
                f"near-fixed set of mover {i} misses its block by {sym_diff} points")
        targets = list(blocks[i])
        rng.shuffle(targets)
        images = [0] * d_prime
        for x, y in zip(sorted(b_i), targets):
            images[x - 1] = y
        gammas.append(PartialPermutation(d_prime, images))

    amb_params = SAParams(cd.ambient_source, expansion_delta(cd, delta), d_prime)
    gamma_pads = [(0,) + gamma.images for gamma in gammas]
    gamma_inverses = [_inverse_images(gamma.images) for gamma in gammas]
    empty = (0,) * (d_prime + 1)

    def expand_element(pieces) -> PartialPermutation:
        # each piece gamma_i s gamma_j^-1 as a padded tuple: gamma_j^-1 lands in
        # {1..d}; the sum starts from the empty map (the empty bisection has no pieces)
        parts = [empty]
        for i, j, f_c, pos in pieces:
            if pos is None:
                raise ValueError(f"corner element {f_c!r} outside the candidate ball")
            inner = (0,) + sigma.images[pos].images
            parts.append((0, *(gamma_pads[i][inner[y]] for y in gamma_inverses[j])))
        return PartialPermutation(d_prime, _orthogonal_sum(parts)[1:])

    images = [expand_element(pieces) for pieces in cd.expansion_plan]
    return ExpandResult(SoficCandidate(d_prime, images), amb_params,
                        tuple(blocks), tuple(gammas))


@dataclass(frozen=True)
class RestrictResult:
    candidate: SoficCandidate
    params: SAParams
    report: MembershipReport


def restrict_sigma(sigma: SoficCandidate, cd: CornerData, delta) -> RestrictResult:
    """Cut an ambient candidate down to the radius-1 corner ball and
    verify it there.

    The candidate must cover the radius-``EXPAND_N`` ball over the
    datum's F_ambient and be a member there at delta, with
    d' = floor(h(p) d) > 1/delta.  The base set B starts from the fixed
    points of the image of p and is extended by the smallest absent
    indices or shrunk by its smallest members to exactly d' points.
    The result's ``params`` hold d' and the corner tolerance
    20 delta / h(p).  The membership check at delta is this function's
    contract;
    ``verify --suite scaling`` also reads it as the expansion's verdict
    (``cli.run_scaling_suite``).
    """
    delta = Fraction(delta)
    d = sigma.degree
    h_p = cd.h_p
    d_prime = int(h_p * d)
    if d_prime * delta <= 1:
        raise ValueError(f"d' = {d_prime} must exceed 1/delta = {1 / delta}")
    amb_src = cd.ambient_source
    rep = sofic.verify_membership(sigma, SAParams(amb_src, delta, d))
    if not rep.is_member:
        raise ValueError(
            f"ambient candidate is not a member at radius {EXPAND_N}: "
            f"mult gap {rep.mult_gap}, trace gap {rep.trace_gap}")

    sig_p = sigma.images[amb_src.position[cd.p_ambient()]]
    b0 = [x for x in range(1, d + 1) if sig_p.images[x - 1] == x]
    if len(b0) >= d_prime:
        B = sorted(b0)[len(b0) - d_prime:]  # shrink by removing smallest
    else:
        kept = set(b0)
        absent = [x for x in range(1, d + 1) if x not in kept]
        B = sorted(b0 + absent[:d_prime - len(b0)])

    corner_src = cd.corner_source
    corner_params = SAParams(corner_src, 20 * delta / h_p, d_prime)

    label = {x: i for i, x in enumerate(B, start=1)}  # B relabeled 1..d'

    def restrict_element(f_c: PartialBisection) -> PartialPermutation:
        f_amb = cd.embedding.embed_bisection(f_c)
        pos = amb_src.position.get(f_amb)
        if pos is None:
            raise ValueError(f"ambient element {f_amb!r} outside the candidate ball")
        s = sigma.images[pos].images
        return PartialPermutation(d_prime, (label.get(s[x - 1], 0) for x in B))

    images = [restrict_element(f) for f in corner_src.ball_elements]
    cand = SoficCandidate(d_prime, images)
    report = sofic.verify_membership(cand, corner_params)
    return RestrictResult(cand, corner_params, report)


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
