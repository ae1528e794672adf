"""Finite discrete pmp groupoids and their full pseudogroups.

A finite groupoid is stored as a weighted unit set plus an explicit
arrow set with source/range maps, an inverse involution, designated
unit arrows, and a composition table defined exactly on the composable
pairs (source of the left factor equals range of the right factor; the
right factor applies first).  The probability-measure-preserving (pmp)
condition is the exact equality weight(range(g)) = weight(source(g))
for every arrow.

Partial bisections (arrow subsets on which source and range are
injective) form the full pseudogroup; this module gives their
composition, inverse and trace, corners with renormalized weights,
finite-alphabet Bernoulli actions, and a canonical text file format
with bit-exact round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path


class GroupoidError(ValueError):
    """Malformed groupoid data or an operation precondition failure."""


@dataclass(frozen=True)
class ValidationReport:
    """Arrows violating the pmp weight equality; empty means pmp."""

    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class FiniteGroupoid:
    """Finite groupoid with exact rational unit weights.

    Arrows are integers 0..n_arrows-1.  ``comp[(g, h)]`` is the product
    g.h, defined exactly when source(g) == range(h).  Construction
    validates the full axiom set (involution, identity and inverse
    laws, associativity), so downstream code can rely on them.
    """

    __slots__ = ("unit_weights", "source", "range_", "inverse", "unit_arrow",
                 "comp", "is_unit", "_by_range")

    def __init__(self, unit_weights, source, range_, inverse, unit_arrow, comp):
        self.unit_weights = tuple(Fraction(w) for w in unit_weights)
        self.source = tuple(source)
        self.range_ = tuple(range_)
        self.inverse = tuple(inverse)
        self.unit_arrow = tuple(unit_arrow)
        self.comp = dict(comp)
        self._validate()
        units = set(self.unit_arrow)
        self.is_unit = tuple(g in units for g in range(self.n_arrows))

    @property
    def n_units(self) -> int:
        return len(self.unit_weights)

    @property
    def n_arrows(self) -> int:
        return len(self.source)

    def _validate(self):
        n, m = self.n_units, self.n_arrows
        if n < 1:
            raise GroupoidError("need at least one unit")
        if sum(self.unit_weights) != 1:
            raise GroupoidError("unit weights must sum to 1")
        if any(w < 0 for w in self.unit_weights):
            raise GroupoidError("unit weights must be nonnegative")
        if not (len(self.range_) == len(self.inverse) == m):
            raise GroupoidError("arrow table lengths disagree")
        if len(self.unit_arrow) != n:
            raise GroupoidError("one unit arrow per unit required")
        for g in range(m):
            if not (0 <= self.source[g] < n and 0 <= self.range_[g] < n):
                raise GroupoidError(f"arrow {g} has bad endpoints")
            gi = self.inverse[g]
            if not 0 <= gi < m or self.inverse[gi] != g:
                raise GroupoidError(f"inverse is not an involution at {g}")
            if self.source[gi] != self.range_[g] or self.range_[gi] != self.source[g]:
                raise GroupoidError(f"inverse of {g} has wrong endpoints")
        by_range = [[] for _ in range(n)]
        for g in range(m):
            by_range[self.range_[g]].append(g)
        self._by_range = tuple(map(tuple, by_range))
        for e, u in enumerate(self.unit_arrow):
            if not (0 <= u < len(self.source)) or self.source[u] != e or self.range_[u] != e:
                raise GroupoidError(f"unit arrow of {e} is not an endomorphism at {e}")
        composable = {(g, h) for g in range(m) for h in range(m)
                      if self.source[g] == self.range_[h]}
        if set(self.comp) != composable:
            raise GroupoidError("composition table domain mismatch")
        for (g, h), k in self.comp.items():
            if not 0 <= k < m:
                raise GroupoidError("composition value out of range")
            if self.source[k] != self.source[h] or self.range_[k] != self.range_[g]:
                raise GroupoidError(f"composite of ({g},{h}) has wrong endpoints")
        for g in range(m):
            e_s, e_r = self.unit_arrow[self.source[g]], self.unit_arrow[self.range_[g]]
            if self.comp[(g, e_s)] != g or self.comp[(e_r, g)] != g:
                raise GroupoidError(f"unit law fails at arrow {g}")
            if self.comp[(g, self.inverse[g])] != e_r:
                raise GroupoidError(f"g g^-1 is not the range unit at {g}")
            if self.comp[(self.inverse[g], g)] != e_s:
                raise GroupoidError(f"g^-1 g is not the source unit at {g}")
        for (g, h) in composable:
            gh = self.comp[(g, h)]
            for k in self._by_range[self.source[h]]:
                if self.comp[(gh, k)] != self.comp[(g, self.comp[(h, k)])]:
                    raise GroupoidError("composition is not associative")

    def arrows_with_range(self, unit: int) -> tuple[int, ...]:
        return self._by_range[unit]

    def __repr__(self):
        return f"FiniteGroupoid(units={self.n_units}, arrows={self.n_arrows})"

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        lines = ["# groupoid-file 1", f"units {self.n_units}"]
        for e, w in enumerate(self.unit_weights):
            lines.append(f"unit {e} {w}")
        lines.append(f"arrows {self.n_arrows}")
        for g in range(self.n_arrows):
            lines.append(f"arrow {g} {self.source[g]} {self.range_[g]} {self.inverse[g]}")
        for e, u in enumerate(self.unit_arrow):
            lines.append(f"unitarrow {e} {u}")
        for (g, h) in sorted(self.comp):
            lines.append(f"compose {g} {h} {self.comp[(g, h)]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FiniteGroupoid":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        it = iter(lines)

        def expect(prefix, line):
            parts = line.split()
            if parts[0] != prefix:
                raise GroupoidError(f"expected {prefix!r}, got {line!r}")
            return parts[1:]

        try:
            (n,) = expect("units", next(it))
            n = int(n)
            weights = [Fraction(0)] * n
            for _ in range(n):
                e, w = expect("unit", next(it))
                weights[int(e)] = Fraction(w)
            (m,) = expect("arrows", next(it))
            m = int(m)
            source, range_, inverse = [0] * m, [0] * m, [0] * m
            for _ in range(m):
                g, s, r, i = expect("arrow", next(it))
                g = int(g)
                source[g], range_[g], inverse[g] = int(s), int(r), int(i)
            unit_arrow = [0] * n
            for _ in range(n):
                e, u = expect("unitarrow", next(it))
                unit_arrow[int(e)] = int(u)
            comp = {}
            for line in it:
                g, h, k = expect("compose", line)
                comp[(int(g), int(h))] = int(k)
        except (StopIteration, ValueError, IndexError) as exc:
            raise GroupoidError(f"truncated or malformed groupoid file: {exc}") from exc
        return cls(weights, source, range_, inverse, unit_arrow, comp)

    def save(self, path):
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path) -> "FiniteGroupoid":
        return cls.from_text(Path(path).read_text())


# -- standard constructions ---------------------------------------------------


def transitive_groupoid(d: int, weights=None) -> FiniteGroupoid:
    """The transitive equivalence relation on d points (arrow (i,j): j -> i)."""
    if d < 1:
        raise GroupoidError("d must be >= 1")
    if weights is None:
        weights = [Fraction(1, d)] * d
    aid = lambda i, j: i * d + j
    source = [j for i in range(d) for j in range(d)]
    range_ = [i for i in range(d) for _ in range(d)]
    inverse = [aid(j, i) for i in range(d) for j in range(d)]
    unit_arrow = [aid(e, e) for e in range(d)]
    comp = {}
    for i, j, k in product(range(d), repeat=3):
        comp[(aid(i, j), aid(j, k))] = aid(i, k)
    return FiniteGroupoid(weights, source, range_, inverse, unit_arrow, comp)


def group_groupoid(table) -> FiniteGroupoid:
    """One-unit groupoid from a group multiplication table (g.h = table[g][h])."""
    m = len(table)
    ident = None
    for e in range(m):
        if all(table[e][x] == x == table[x][e] for x in range(m)):
            ident = e
            break
    if ident is None:
        raise GroupoidError("multiplication table has no identity")
    inverse = [None] * m
    for g in range(m):
        for h in range(m):
            if table[g][h] == ident and table[h][g] == ident:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise GroupoidError(f"element {g} has no inverse")
    comp = {(g, h): table[g][h] for g in range(m) for h in range(m)}
    return FiniteGroupoid([Fraction(1)], [0] * m, [0] * m, inverse, [ident], comp)


def cyclic_groupoid(m: int) -> FiniteGroupoid:
    """The cyclic group of order m as a one-unit groupoid."""
    if m < 1:
        raise GroupoidError("order must be >= 1")
    return group_groupoid([[(i + j) % m for j in range(m)] for i in range(m)])


# -- partial bisections -------------------------------------------------------


@dataclass(frozen=True)
class PartialBisection:
    """Arrow subset on which source and range are injective."""

    host: FiniteGroupoid
    arrows: frozenset

    def __post_init__(self):
        srcs = [self.host.source[g] for g in self.arrows]
        rngs = [self.host.range_[g] for g in self.arrows]
        if len(set(srcs)) != len(srcs) or len(set(rngs)) != len(rngs):
            raise GroupoidError("arrow set is not a bisection")

    def arrow_at_source(self, e: int):
        for g in self.arrows:
            if self.host.source[g] == e:
                return g
        return None

    def dom_units(self) -> frozenset:
        return frozenset(self.host.source[g] for g in self.arrows)

    def ran_units(self) -> frozenset:
        return frozenset(self.host.range_[g] for g in self.arrows)

    def __repr__(self):
        return f"PartialBisection({sorted(self.arrows)})"


def full_identity(g: FiniteGroupoid) -> PartialBisection:
    return PartialBisection(g, frozenset(g.unit_arrow))


def projection_bisection(g: FiniteGroupoid, units) -> PartialBisection:
    return PartialBisection(g, frozenset(g.unit_arrow[e] for e in units))


def b_compose(s: PartialBisection, t: PartialBisection) -> PartialBisection:
    """Product st in the full pseudogroup (t applies first)."""
    if s.host is not t.host:
        raise GroupoidError("bisections live in different groupoids")
    g = s.host
    out = set()
    for h in t.arrows:
        a = s.arrow_at_source(g.range_[h])
        if a is not None:
            out.add(g.comp[(a, h)])
    return PartialBisection(g, frozenset(out))


def b_inverse(s: PartialBisection) -> PartialBisection:
    return PartialBisection(s.host, frozenset(s.host.inverse[g] for g in s.arrows))


def tau(s: PartialBisection) -> Fraction:
    """Trace: total weight of units whose unit arrow belongs to s."""
    g = s.host
    return sum((g.unit_weights[g.source[a]] for a in s.arrows if g.is_unit[a]),
               Fraction(0))


def validate_pmp(g: FiniteGroupoid) -> ValidationReport:
    """List every arrow whose endpoints carry different weights."""
    bad = tuple(a for a in range(g.n_arrows)
                if g.unit_weights[g.source[a]] != g.unit_weights[g.range_[a]])
    return ValidationReport(bad)


def finite_part_measure(g: FiniteGroupoid) -> Fraction:
    """Sum over units of weight(e) / (number of arrows with range e)."""
    return sum((g.unit_weights[e] / len(g.arrows_with_range(e))
                for e in range(g.n_units)), Fraction(0))


# -- corners ------------------------------------------------------------------


class CornerEmbedding:
    """Corner groupoid plus its arrow correspondence into the ambient."""

    __slots__ = ("ambient", "groupoid", "arrow_map", "_arrow_back")

    def __init__(self, ambient, groupoid, arrow_map):
        self.ambient = ambient
        self.groupoid = groupoid
        self.arrow_map = tuple(arrow_map)  # corner arrow -> ambient arrow
        self._arrow_back = {a: i for i, a in enumerate(self.arrow_map)}

    def embed_bisection(self, s: PartialBisection) -> PartialBisection:
        if s.host is not self.groupoid:
            raise GroupoidError("bisection does not live in this corner")
        return PartialBisection(self.ambient,
                                frozenset(self.arrow_map[a] for a in s.arrows))

    def pull_back_bisection(self, s: PartialBisection) -> PartialBisection:
        if s.host is not self.ambient:
            raise GroupoidError("bisection does not live in the ambient groupoid")
        try:
            arrows = frozenset(self._arrow_back[a] for a in s.arrows)
        except KeyError as exc:
            raise GroupoidError("bisection leaves the corner") from exc
        return PartialBisection(self.groupoid, arrows)


def corner_embedding(g: FiniteGroupoid, units) -> CornerEmbedding:
    units = sorted(set(units))
    if not units:
        raise GroupoidError("corner needs a nonempty unit set")
    mass = sum((g.unit_weights[e] for e in units), Fraction(0))
    if mass == 0:
        raise GroupoidError("corner unit set has measure zero")
    unit_pos = {e: i for i, e in enumerate(units)}
    keep = [a for a in range(g.n_arrows)
            if g.source[a] in unit_pos and g.range_[a] in unit_pos]
    arrow_pos = {a: i for i, a in enumerate(keep)}
    source = [unit_pos[g.source[a]] for a in keep]
    range_ = [unit_pos[g.range_[a]] for a in keep]
    inverse = [arrow_pos[g.inverse[a]] for a in keep]
    unit_arrow = [arrow_pos[g.unit_arrow[e]] for e in units]
    comp = {}
    for a in keep:
        for b in keep:
            if g.source[a] == g.range_[b]:
                comp[(arrow_pos[a], arrow_pos[b])] = arrow_pos[g.comp[(a, b)]]
    weights = [g.unit_weights[e] / mass for e in units]
    corner_g = FiniteGroupoid(weights, source, range_, inverse, unit_arrow, comp)
    return CornerEmbedding(g, corner_g, tuple(keep))


def corner(g: FiniteGroupoid, units) -> FiniteGroupoid:
    """Restriction to a unit subset with weights renormalized to mass 1."""
    return corner_embedding(g, units).groupoid


# -- fibred actions and Bernoulli actions -------------------------------------


class FibredAction:
    """Finite measure-preserving action of a groupoid on a fibred space.

    Points are indexed 0..n-1; ``unit_of[x]`` is the base unit,
    ``cond_weight[x]`` the conditional fiber measure (each fiber sums
    to 1) and ``weight[x] = h(unit) * cond_weight[x]`` the global one.
    ``act[(arrow, x)]`` is defined exactly when x lies over the arrow's
    source unit, and ``labels[x]`` is the builder's name for point x.
    """

    __slots__ = ("groupoid", "unit_of", "cond_weight", "weight", "fibers",
                 "act", "labels")

    def __init__(self, groupoid, unit_of, cond_weight, act, labels):
        self.groupoid = groupoid
        self.unit_of = tuple(unit_of)
        self.cond_weight = tuple(Fraction(w) for w in cond_weight)
        self.act = dict(act)
        self.labels = tuple(labels)
        fibers = [[] for _ in range(groupoid.n_units)]
        for x, e in enumerate(self.unit_of):
            fibers[e].append(x)
        self.fibers = tuple(map(tuple, fibers))
        self.weight = tuple(groupoid.unit_weights[self.unit_of[x]] * self.cond_weight[x]
                            for x in range(self.n_points))
        self._validate()

    @property
    def n_points(self) -> int:
        return len(self.unit_of)

    def _validate(self):
        g = self.groupoid
        for e in range(g.n_units):
            if g.unit_weights[e] > 0 and sum((self.cond_weight[x] for x in self.fibers[e]),
                                             Fraction(0)) != 1:
                raise GroupoidError(f"fiber over unit {e} is not a probability space")
        expected = {(a, x) for a in range(g.n_arrows)
                    for x in self.fibers[g.source[a]]}
        if set(self.act) != expected:
            raise GroupoidError("action table domain mismatch")
        for (a, x), y in self.act.items():
            if self.unit_of[y] != g.range_[a]:
                raise GroupoidError("action does not respect the fibration")
            if self.cond_weight[y] != self.cond_weight[x]:
                raise GroupoidError("action is not fiberwise measure preserving")
        for e in range(g.n_units):
            u = g.unit_arrow[e]
            for x in self.fibers[e]:
                if self.act[(u, x)] != x:
                    raise GroupoidError("unit arrows must act trivially")
        for (a, b), ab in self.groupoid.comp.items():
            for x in self.fibers[g.source[b]]:
                if self.act[(ab, x)] != self.act[(a, self.act[(b, x)])]:
                    raise GroupoidError("action does not respect composition")

    def bisection_image(self, s: PartialBisection, points) -> frozenset:
        g = self.groupoid
        out = set()
        for a in s.arrows:
            src = g.source[a]
            for x in points:
                if self.unit_of[x] == src:
                    out.add(self.act[(a, x)])
        return frozenset(out)


# most points a Bernoulli fiber may hold
FIBER_CAP = 10 ** 6


def bernoulli_action(g: FiniteGroupoid, alphabet_weights) -> FibredAction:
    """Finite-alphabet Bernoulli action of g.

    The fiber over a unit e is alphabet^{G^e} (configurations indexed
    by the arrows with range e) with the product measure; an arrow s
    sends the configuration x to (x_{s^-1 t})_t.  Refuses to
    materialize more than ``FIBER_CAP`` points per fiber.
    """
    alphabet = tuple(Fraction(w) for w in alphabet_weights)
    if sum(alphabet) != 1:
        raise GroupoidError("alphabet weights must sum to 1")
    q = len(alphabet)
    fibers_arrows = [tuple(sorted(g.arrows_with_range(e))) for e in range(g.n_units)]
    for e, fa in enumerate(fibers_arrows):
        if q ** len(fa) > FIBER_CAP:
            raise GroupoidError(f"fiber over unit {e} would have {q ** len(fa)} "
                                f"points (cap {FIBER_CAP})")
    unit_of = []
    cond_weight = []
    labels = []
    index = {}
    for e in range(g.n_units):
        arrows = fibers_arrows[e]
        for cfg in product(range(q), repeat=len(arrows)):
            index[(e, cfg)] = len(unit_of)
            unit_of.append(e)
            w = Fraction(1)
            for c in cfg:
                w *= alphabet[c]
            cond_weight.append(w)
            labels.append((e, cfg))
    act = {}
    for a in range(g.n_arrows):
        e1, e2 = g.source[a], g.range_[a]
        src_arrows = fibers_arrows[e1]
        src_pos = {t: i for i, t in enumerate(src_arrows)}
        ainv = g.inverse[a]
        # coordinate t of the image reads coordinate a^-1 t of the source
        pull = [src_pos[g.comp[(ainv, t)]] for t in fibers_arrows[e2]]
        for cfg in product(range(q), repeat=len(src_arrows)):
            x = index[(e1, cfg)]
            ycfg = tuple(cfg[i] for i in pull)
            act[(a, x)] = index[(e2, ycfg)]
    return FibredAction(g, unit_of, cond_weight, act, labels)
