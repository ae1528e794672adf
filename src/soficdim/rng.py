"""Deterministic, portable pseudo-randomness.

Every seeded behaviour in this package (random partitions, Monte Carlo
sampling, random partial permutations, seeded block bijections) flows
through :class:`SplitMix64`, a tiny 64-bit counter-based generator with
fixed published constants.  It is used instead of ``random.Random`` so
that results are reproducible bit for bit across platforms and Python
versions, and so that independent substreams can be split off cheaply
by index (one substream per Monte Carlo trial, per sweep instance, ...).

Weighted choices against exact rational weights are decided by integer
cross-multiplication, so the sampling itself introduces no rounding.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64


def mix64(x: int) -> int:
    """One-shot SplitMix64 finalizer; a 64-bit bijective scramble."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 generator with 64-bit state.

    ``next64`` steps the counter by the golden-ratio increment and
    scrambles it.  Every derived draw consumes the same stream of
    ``next64`` outputs.  ``below``, ``shuffle`` and ``weighted_indices``
    call ``next64``; they draw partitions, block bijections and
    ``construct`` corners, which no hot loop repeats.  Monte Carlo
    counting is bound by this module (``perfbench``'s ``sample``
    workload; see the profile of ``spawn`` and ``choose_sorted`` in
    CHANGES.md), so its two draws inline the step on a local copy of the
    state and store it back once, saving a method call per draw:
    ``choose_sorted`` and the shuffle in ``pperm.random_images``, which
    stops part-way once a map's fixed-point count is decided.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def spawn(self, index: int) -> "SplitMix64":
        """Independent substream determined by (seed, index) only."""
        return SplitMix64(mix64(self.seed ^ mix64(index & _MASK)))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; exact, no modulo bias."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = _TWO64 - _TWO64 % n
        while True:
            z = self.next64()
            if z < limit:
                return z % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: ``below(i + 1)`` for i = len-1 .. 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def choose_sorted(self, n: int, k: int) -> list[int]:
        """A uniform k-subset of range(n), returned sorted.

        Partial Fisher-Yates: position i swaps with ``i + below(n - i)``.
        """
        if not 0 <= k <= n:
            raise ValueError("invalid subset size")
        pool = list(range(n))
        s = self._state
        for i in range(k):
            m = n - i
            limit = _TWO64 - _TWO64 % m
            while True:
                s = (s + _GOLDEN) & _MASK
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
                if z < limit:
                    break
            j = i + z % m
            pool[i], pool[j] = pool[j], pool[i]
        self._state = s
        return sorted(pool[:k])

    def weighted_indices(self, weights, count: int) -> list[int]:
        """``count`` weighted draws, one ``next64`` output each.

        A draw u picks the first i with u / 2^64 < acc_i, the cumulative
        weight through i.  For integer u that is u < ceil(acc_i * 2^64),
        so the thresholds are computed once, and the first threshold
        above u is the first running maximum above it (bisection).  When
        none lies above u, the last index is returned.
        """
        thresholds = []
        acc = Fraction(0)
        for w in weights:
            acc += w
            thresholds.append(-(-(acc.numerator << 64) // acc.denominator))
        bounds = list(accumulate(thresholds, max))
        last = max(len(bounds) - 1, 0)
        return [min(bisect_right(bounds, self.next64()), last)
                for _ in range(count)]
