"""Exact algebra of partial permutations of {1..d}.

A partial permutation is an injective map defined on a subset of
{1..d}; together they form an inverse monoid under composition.  This
module supplies the composition/inverse algebra, the normalized trace
(fixed points over d), the uniform (normalized Hamming) distance, the
2-norm, strict orthogonal sums, and the canonical text form
``d:[i1->j1, i2->j2, ...]`` used by the CLI and test fixtures.

All traces, measures and distances are exact ``fractions.Fraction``
values; composition order is functional (in ``compose(s, t)`` the map
``t`` applies first).  Instances are immutable after construction.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from operator import eq, itemgetter

from .rng import (_GOLDEN, _MASK, _TWO64, SplitMix64, mix64, mix64_each,
                  partial_shuffle, rejection_limits)


class OverlapError(ValueError):
    """Summands of a strict orthogonal sum share a domain or range point."""


@lru_cache(maxsize=64)
def _points(d: int) -> frozenset:
    """{0..d}: the undefined marker and the points of {1..d}."""
    return frozenset(range(d + 1))


class PartialPermutation:
    """Partial injection on {1..d}; ``images[x-1]`` is s(x), 0 = undefined.

    The constructor checks the range and injectivity of every map.
    """

    __slots__ = ("degree", "images", "dom_size", "nfix", "_hash")

    def __init__(self, degree: int, images):
        images = tuple(images)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if len(images) != degree:
            raise ValueError("images length must equal degree")
        values = set(images)
        points = _points(degree)
        if not values <= points:
            y = next(y for y in images if y not in points)
            raise ValueError(f"image {y} out of range 1..{degree}")
        dom_size = degree - images.count(0)
        if len(values) - (0 in values) != dom_size:
            raise ValueError("not injective")
        self.degree = degree
        self.images = images
        self.dom_size = dom_size
        self.nfix = sum(map(eq, images, range(1, degree + 1)))
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
        s.degree, tuple(si[y - 1] if y else 0 for y in t.images))


def inverse(s: PartialPermutation) -> PartialPermutation:
    return PartialPermutation(s.degree, _inverse_images(s.images))


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


def orthogonal_sum(parts, degree: int) -> PartialPermutation:
    """Union of graphs of maps of degree ``degree`` with pairwise
    disjoint domains and ranges; the empty map for no parts.

    Raises OverlapError when two summands share a domain or a range
    point.
    """
    parts = list(parts)
    if any(p.degree != degree for p in parts):
        raise ValueError("degree mismatch in orthogonal sum")
    if not parts:
        return PartialPermutation.empty(degree)
    return PartialPermutation(degree, _orthogonal_sum([p.images for p in parts]))


def _orthogonal_sum(tuples) -> tuple:
    """The orthogonal sum of image tuples of one length, 0 marking an
    undefined point: the union of their graphs, an OverlapError where
    two share a domain or a range point.  The search sums padded
    tuples, whose leading 0 stays 0."""
    out = list(tuples[0])
    taken = set(out)
    for images in tuples[1:]:
        for x, y in enumerate(images):
            if y:
                if out[x] or y in taken:
                    raise OverlapError("summands overlap in domain or range")
                out[x] = y
                taken.add(y)
    return tuple(out)


def _inverse_images(images) -> tuple:
    """The image tuple of the inverse map, 0 marking an undefined point."""
    out = [0] * len(images)
    for x, y in enumerate(images, start=1):
        if y:
            out[y - 1] = x
    return tuple(out)


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


def iter_images(d: int, total: bool = False):
    """Image tuples (s(1), ..., s(d)) of every partial permutation of
    degree d in the canonical order: by domain size, then domain, then
    range, both in ``combinations`` order, then the images in
    ``permutations`` order.  With ``total``, only the permutations,
    which are the last block of that order (lexicographic)."""
    points = range(1, d + 1)
    if total:
        yield from permutations(points)
        return
    for k in range(d + 1):
        for dom in combinations(points, k):
            # the i-th point of dom reads img[i], any other point the 0
            # appended to img; one index would read an item, not a tuple
            where = [k] * d
            for i, x in enumerate(dom):
                where[x - 1] = i
            read = itemgetter(*where) if d > 1 else itemgetter(slice(0, 1))
            for ran in combinations(points, k):
                for img in permutations(ran):
                    yield read(img + (0,))


def iter_all(d: int):
    """All partial permutations of degree d in the canonical order of
    ``iter_images``."""
    for images in iter_images(d):
        yield PartialPermutation(d, images)


def iter_permutations(d: int):
    """All total permutations of degree d in lexicographic order."""
    for images in iter_images(d, total=True):
        yield PartialPermutation(d, images)


def monoid_size(d: int) -> int:
    """|set of partial permutations of degree d| = sum_k C(d,k)^2 k!."""
    return sum(comb(d, k) ** 2 * factorial(k) for k in range(d + 1))


@lru_cache(maxsize=64)
def _draw_plan(d: int) -> tuple:
    """The per-degree constants of ``random_images``: the rejection
    limits of every bound m <= d (``rng.rejection_limits``), those of
    the bounds d, ..., 1 twice over, the points as the list 1..d, the
    cumulative counts of partial permutations by domain size, each
    times 2^64, and the total count."""
    acc = 0
    bounds = []
    for k in range(d + 1):
        acc += comb(d, k) ** 2 * factorial(k)
        bounds.append(acc << 64)
    limits = rejection_limits(d)
    return limits, limits[:0:-1] * 2, list(range(1, d + 1)), tuple(bounds), acc


def random_images(d: int, total: bool, lo: int, hi: int, state: int, first: int):
    """``(images, state)``: the padded images (0, s(1), ..., s(d)) of a
    uniform random permutation (``total``) or partial permutation of
    degree d drawn from the SplitMix64 stream at ``state``, or None as
    soon as its fixed-point count cannot lie in lo..hi, and the state
    after the draws made.  ``first`` is the stream's first output,
    ``mix64(state)``, which the caller may already hold
    (``screen_states`` computes it in lanes for a block of trials).

    A partial map takes one ``next64`` for its domain size k (exact
    weights: u / 2^64 < cum_k / total), then the stream of
    ``SplitMix64.choose_sorted(d, k)`` for its domain and again for its
    range, each drawn as a ``rng.partial_shuffle`` run over the points; a
    permutation has domain and range 1..d.  A Fisher-Yates shuffle of
    the range, run from the end as ``SplitMix64.shuffle`` runs it, pairs
    the i-th domain point with the i-th range point.  Step i settles
    position i, so the fixed points settled so far plus the i positions
    left bound the count, as do k and |dom & ran|.  ``first`` is the
    domain-size output of a partial map and the first Fisher-Yates
    step's output of a permutation of degree d >= 2; a first output
    that step rejects is skipped as any other.

    Every per-degree constant comes from ``_draw_plan(d)``, computed
    once per degree: the rejection limits, the points and the
    domain-size thresholds.  At k = d both subsets are all points, so
    the draw only steps the stream through their rejection checks,
    without shuffling or sorting, and mixes no output at a power-of-two
    bound, and the images are the shuffled range as it stands.  The
    range draw stops as soon as the range points drawn inside the
    domain plus the range points still to draw fall below lo, since
    |dom & ran| bounds the fixed-point count.  A draw that returns a
    tuple consumes exactly the stream of the full draw; a None draw
    stops part-way, in the range draw or in the shuffle.
    """
    if hi < lo:
        return None, state
    limits, doubled, points, bounds, size = _draw_plan(d)
    s = state
    z = _TWO64  # above every limit: the next step reads a fresh output
    if total:
        k = d
        if d > 1:  # the first Fisher-Yates step reads the first output
            s, z = (s + _GOLDEN) & _MASK, first
    else:
        k = bisect_right(bounds, first * size)
        s = (s + _GOLDEN) & _MASK
        if k < lo:
            return None, s
    if k == d:
        if not total:
            # both subsets are all points, so only the rejections of the
            # bounds d, ..., 1 (twice) move the stream; a power-of-two
            # bound has limit 2^64 and rejects no output
            for limit in doubled:
                while limit <= _MASK and mix64(s) >= limit:
                    s = (s + _GOLDEN) & _MASK
                s = (s + _GOLDEN) & _MASK
        dom = points
        ran = points.copy()
    else:
        dom = points.copy()
        s, _ = partial_shuffle(dom, k, limits, None, 0, s)
        del dom[k:]
        ran = points.copy()
        # a range point outside the domain spends one of k - lo misses;
        # at lo = 0 no k misses can stop the draw, so no set is given
        s, room = partial_shuffle(ran, k, limits, set(dom) if lo else None,
                                  k - lo, s)
        if room < 0:
            return None, s
        dom.sort()
        del ran[k:]
        ran.sort()
    fixed = 0
    for i in range(k - 1, 0, -1):
        n = i + 1
        limit = limits[n]
        while z >= limit:
            s = (s + _GOLDEN) & _MASK
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
        j = z % n
        z = _TWO64
        y = ran[j]
        ran[j] = ran[i]
        ran[i] = y
        if y == dom[i]:
            fixed += 1
            if fixed > hi:
                break
        elif fixed + i < lo:
            break
    # after a break, position 0 cannot bring the count back into lo..hi
    if ran and ran[0] == dom[0]:
        fixed += 1
    if not lo <= fixed <= hi:
        return None, s
    if k == d:
        return (0, *ran), s
    images = [0] * (d + 1)
    for x, y in zip(dom, ran):
        images[x] = y
    return tuple(images), s


def screen_states(d: int, total: bool, lo: int, hi: int, states: list) -> list:
    """``(state, mix64(state))`` for each of the states, for 0 <= lo <=
    d, whose draw ``random_images(d, total, lo, hi, state, first)`` its
    first output u = ``mix64(state)`` does not already reject; every
    state left out draws None.  The outputs, computed in lanes for the
    whole block (``rng.mix64_each``), are the ``first`` arguments of the
    kept states' draws, so no kept draw mixes its first output again.

    u rejects the draw when the window is empty (hi < lo); in ``all``
    mode when it sets a domain size k < lo, that is u * size <
    bounds[lo - 1], or u < ceil(bounds[lo - 1] / size) (``_draw_plan``);
    and in ``total`` mode at d >= 2 when it is accepted at bound d (u <
    limits[d]) and the first Fisher-Yates step leaves point d unfixed
    (u % d != d - 1) while lo = d, or fixes it while hi = 0.  A rejected
    u decides nothing, since the step reads the next output.
    """
    if hi < lo:
        return []
    limits, _, _, bounds, size = _draw_plan(d)
    pairs = zip(states, mix64_each(states))
    if not total:
        if lo == 0:
            return list(pairs)
        low = -(-bounds[lo - 1] // size)
        return [(s, u) for s, u in pairs if u >= low]
    if d < 2 or (lo < d and hi > 0):
        return list(pairs)
    limit, last, identity = limits[d], d - 1, lo == d
    # the identity window keeps a fixed point d, hi = 0 an unfixed one
    return [(s, u) for s, u in pairs if u >= limit or (u % d == last) == identity]


def random_permutation(d: int, rng: SplitMix64) -> PartialPermutation:
    """Uniform over the permutations of degree d."""
    images, rng._state = random_images(d, True, 0, d, rng._state, mix64(rng._state))
    return PartialPermutation(d, images[1:])


def random_pperm(d: int, rng: SplitMix64) -> PartialPermutation:
    """Uniform over all partial permutations of degree d (exact weights)."""
    images, rng._state = random_images(d, False, 0, d, rng._state, mix64(rng._state))
    return PartialPermutation(d, images[1:])
