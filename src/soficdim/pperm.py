"""Exact algebra of partial permutations of {1..d}.

A partial permutation is an injective map defined on a subset of
{1..d}; together they form an inverse monoid under composition.  This
module supplies the composition/inverse algebra, the normalized trace
(fixed points over d), the uniform (normalized Hamming) distance, the
2-norm, strict orthogonal sums, and the canonical text form
``d:[i1->j1, i2->j2, ...]`` used by the CLI and test fixtures.

All traces, measures and distances are exact ``fractions.Fraction``
values; composition order is functional (in ``compose(s, t)`` the map
``t`` applies first).  Instances are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

from .rng import SplitMix64


class OverlapError(ValueError):
    """Summands of a strict orthogonal sum share a domain or range point."""


class PartialPermutation:
    """Partial injection on {1..d}; ``images[x-1]`` is s(x), 0 = undefined."""

    __slots__ = ("degree", "images", "dom_mask", "ran_mask", "nfix", "_hash")

    def __init__(self, degree: int, images, *, _trusted: bool = False):
        # _trusted skips the range and injectivity checks; only for
        # images that are a partial injection of {1..degree} by construction
        images = tuple(images)
        if not _trusted:
            if degree < 1:
                raise ValueError("degree must be >= 1")
            if len(images) != degree:
                raise ValueError("images length must equal degree")
            if min(images) < 0 or max(images) > degree:
                y = next(y for y in images if not 0 <= y <= degree)
                raise ValueError(f"image {y} out of range 1..{degree}")
        dom = 0
        ran = 0
        nfix = 0
        for x0, y in enumerate(images):
            if y:
                ran |= 1 << (y - 1)
                dom |= 1 << x0
                if y == x0 + 1:
                    nfix += 1
        if not _trusted and ran.bit_count() != dom.bit_count():
            raise ValueError("not injective")
        self.degree = degree
        self.images = images
        self.dom_mask = dom
        self.ran_mask = ran
        self.nfix = nfix
        self._hash = hash((degree, images))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, d: int) -> "PartialPermutation":
        return cls(d, tuple(range(1, d + 1)))

    @classmethod
    def empty(cls, d: int) -> "PartialPermutation":
        return cls(d, (0,) * d)

    @classmethod
    def projection(cls, d: int, points) -> "PartialPermutation":
        """Partial identity on the given set of points."""
        pts = set(points)
        return cls(d, tuple(x if x in pts else 0 for x in range(1, d + 1)))

    @classmethod
    def from_pairs(cls, d: int, pairs) -> "PartialPermutation":
        images = [0] * d
        for x, y in pairs:
            if not 1 <= x <= d:
                raise ValueError(f"point {x} out of range 1..{d}")
            if images[x - 1]:
                raise ValueError(f"point {x} mapped twice")
            images[x - 1] = y
        return cls(d, images)

    # -- basic queries -----------------------------------------------------

    def __call__(self, x: int):
        y = self.images[x - 1]
        return y if y else None

    def dom_points(self) -> tuple[int, ...]:
        return tuple(x for x in range(1, self.degree + 1) if self.images[x - 1])

    @property
    def dom_size(self) -> int:
        return self.dom_mask.bit_count()

    def is_total(self) -> bool:
        return self.dom_size == self.degree

    def is_projection(self) -> bool:
        """True when every defined point is fixed."""
        return self.nfix == self.dom_size

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        pairs = ", ".join(f"{x}->{self.images[x - 1]}"
                          for x in range(1, self.degree + 1) if self.images[x - 1])
        return f"{self.degree}:[{pairs}]"

    def __repr__(self):
        return f"PartialPermutation({self.to_text()!r})"

    def __eq__(self, other):
        if not isinstance(other, PartialPermutation):
            return NotImplemented
        return self.degree == other.degree and self.images == other.images

    def __hash__(self):
        return self._hash


_TEXT_RE = re.compile(r"^\s*(\d+)\s*:\s*\[(.*)\]\s*$", re.S)
_PAIR_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


def parse_pperm(text: str) -> PartialPermutation:
    """Parse the canonical text form ``d:[i1->j1, ...]``."""
    m = _TEXT_RE.match(text)
    if not m:
        raise ValueError(f"not a partial permutation literal: {text!r}")
    d = int(m.group(1))
    body = m.group(2).strip()
    pairs = []
    if body:
        for chunk in body.split(","):
            pm = _PAIR_RE.match(chunk)
            if not pm:
                raise ValueError(f"bad pair {chunk!r} in {text!r}")
            pairs.append((int(pm.group(1)), int(pm.group(2))))
    return PartialPermutation.from_pairs(d, pairs)


# -- operations -------------------------------------------------------------


def _check_degrees(s: PartialPermutation, t: PartialPermutation):
    if s.degree != t.degree:
        raise ValueError(f"degree mismatch: {s.degree} != {t.degree}")


def compose(s: PartialPermutation, t: PartialPermutation) -> PartialPermutation:
    """Product st: apply t first, then s; defined where both legs are."""
    _check_degrees(s, t)
    si = s.images
    return PartialPermutation(
        s.degree, tuple(si[y - 1] if y else 0 for y in t.images), _trusted=True)


def inverse(s: PartialPermutation) -> PartialPermutation:
    images = [0] * s.degree
    for x0, y in enumerate(s.images):
        if y:
            images[y - 1] = x0 + 1
    return PartialPermutation(s.degree, images, _trusted=True)


def trace(s: PartialPermutation) -> Fraction:
    """Fixed points over d."""
    return Fraction(s.nfix, s.degree)


def disagreement_count(s: PartialPermutation, t: PartialPermutation) -> int:
    """Points where s and t differ; defined-vs-undefined counts as a
    disagreement, both-undefined as agreement."""
    _check_degrees(s, t)
    return sum(1 for a, b in zip(s.images, t.images) if a != b)


def agreement_count(s: PartialPermutation, t: PartialPermutation) -> int:
    """Points where both are defined and equal."""
    _check_degrees(s, t)
    return sum(1 for a, b in zip(s.images, t.images) if a and a == b)


def uniform_distance(s: PartialPermutation, t: PartialPermutation) -> Fraction:
    return Fraction(disagreement_count(s, t), s.degree)


def two_norm_sq(s: PartialPermutation, t: PartialPermutation) -> Fraction:
    # tau(s^-1 s) + tau(t^-1 t) - 2 tau(s t^-1), all over a common denominator
    return Fraction(s.dom_size + t.dom_size - 2 * agreement_count(s, t), s.degree)


def distances(s: PartialPermutation, t: PartialPermutation) -> tuple[Fraction, Fraction]:
    """(uniform distance, squared 2-norm); the pair satisfies
    two_norm_sq >= uniform, with equality when both maps are total."""
    return uniform_distance(s, t), two_norm_sq(s, t)


def orthogonal_sum(parts, degree: int | None = None) -> PartialPermutation:
    """Union of graphs of maps with pairwise disjoint domains and ranges.

    Raises OverlapError when two summands share a domain or a range
    point.  ``degree`` is only needed for an empty sequence of parts.
    """
    parts = list(parts)
    if not parts:
        if degree is None:
            raise ValueError("empty sum needs an explicit degree")
        return PartialPermutation.empty(degree)
    d = parts[0].degree
    dom = 0
    ran = 0
    images = [0] * d
    for p in parts:
        if p.degree != d:
            raise ValueError("degree mismatch in orthogonal sum")
        if dom & p.dom_mask or ran & p.ran_mask:
            raise OverlapError("summands overlap in domain or range")
        dom |= p.dom_mask
        ran |= p.ran_mask
        for x0, y in enumerate(p.images):
            if y:
                images[x0] = y
    return PartialPermutation(d, images, _trusted=True)


def conjugate(s: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """g s g^-1 for a total permutation g."""
    if not g.is_total():
        raise ValueError("conjugator must be a total permutation")
    return compose(compose(g, s), inverse(g))


def reindex(s: PartialPermutation, points) -> PartialPermutation:
    """Reindex the restriction of s to ``points`` (sorted) as a partial
    permutation of degree len(points)."""
    pts = sorted(points)
    pos = {x: i + 1 for i, x in enumerate(pts)}
    images = [0] * len(pts)
    for x in pts:
        y = s.images[x - 1]
        if y and y in pos:
            images[pos[x] - 1] = pos[y]
    return PartialPermutation(len(pts), images)


def embed(s: PartialPermutation, degree: int) -> PartialPermutation:
    """View s inside a larger degree, undefined on the new points."""
    if degree < s.degree:
        raise ValueError("cannot shrink by embedding")
    return PartialPermutation(degree, s.images + (0,) * (degree - s.degree))


# -- enumeration and sampling ------------------------------------------------


def iter_all(d: int):
    """All partial permutations of degree d in a fixed canonical order."""
    points = range(1, d + 1)
    for k in range(d + 1):
        for dom in combinations(points, k):
            for ran in combinations(points, k):
                for img in permutations(ran):
                    images = [0] * d
                    for x, y in zip(dom, img):
                        images[x - 1] = y
                    yield PartialPermutation(d, images, _trusted=True)


def iter_permutations(d: int):
    """All total permutations of degree d in lexicographic order."""
    for img in permutations(range(1, d + 1)):
        yield PartialPermutation(d, img, _trusted=True)


def monoid_size(d: int) -> int:
    """|set of partial permutations of degree d| = sum_k C(d,k)^2 k!."""
    return sum(comb(d, k) ** 2 * factorial(k) for k in range(d + 1))


def random_permutation(d: int, rng: SplitMix64) -> PartialPermutation:
    img = list(range(1, d + 1))
    rng.shuffle(img)
    return PartialPermutation(d, img, _trusted=True)


@lru_cache(maxsize=64)
def _domain_size_cumulative(d: int) -> tuple:
    """Cumulative counts of partial permutations by domain size."""
    acc = 0
    out = []
    for k in range(d + 1):
        acc += comb(d, k) ** 2 * factorial(k)
        out.append(acc)
    return tuple(out), acc


def random_pperm(d: int, rng: SplitMix64) -> PartialPermutation:
    """Uniform over all partial permutations of degree d (exact weights)."""
    cumulative, total = _domain_size_cumulative(d)
    u = rng.next64()
    # u / 2^64 < cum_k / total  <=>  u * total < cum_k << 64
    lhs = u * total
    k = d
    for i, c in enumerate(cumulative):
        if lhs < c << 64:
            k = i
            break
    dom = [x + 1 for x in rng.choose_sorted(d, k)]
    ran = [x + 1 for x in rng.choose_sorted(d, k)]
    rng.shuffle(ran)
    images = [0] * d
    for x, y in zip(dom, ran):
        images[x - 1] = y
    return PartialPermutation(d, images, _trusted=True)
