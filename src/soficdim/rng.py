"""Deterministic, portable pseudo-randomness.

Every seeded behaviour in this package (random partitions, Monte Carlo
sampling, random partial permutations, seeded block bijections) flows
through :class:`SplitMix64`, a tiny 64-bit counter-based generator with
fixed published constants.  It is used instead of ``random.Random`` so
that results are reproducible bit for bit across platforms and Python
versions, and so that independent substreams can be split off cheaply
by index (one substream per Monte Carlo trial, per sweep instance, ...).

A substream's start state is a pure function of (seed, index), so
``SplitMix64.spawn_states`` computes the states of a block of
consecutive indices at once, with a few operations on one large
integer that holds each index in a lane of its own (``mix64_each``).
The same lanes give the first output of every state of a block,
``mix64(state)``, from which ``pperm.screen_states`` drops, for the
whole block at once, each Monte Carlo trial whose first draw that
output alone already rejects.  Monte Carlo counting, bound by this
module (``perfbench``'s ``sample`` workload), runs each other trial on
such a bare state: ``pperm.random_images`` takes a state and its
first output and returns the state after its draws, the stream that
the ``SplitMix64`` methods of the same draws consume.  A kept trial's
draw at position 0 takes the output the screen computed in lanes, so
no trial mixes its first output twice.  It and
``SplitMix64.choose_sorted`` run their subset draws through one loop,
``partial_shuffle``, which reads each bound's rejection limit from a
table computed once per size (``rejection_limits``), as
``weighted_indices`` reads its thresholds from a table computed once
per weight tuple (``weight_thresholds``); ``random_images``
reads that table, its point list and its domain-size thresholds from a
plan cached per degree.  ``partial_shuffle`` can stop once too many of
the points it settles fall outside a given set, so a range draw whose
overlap with its domain cannot reach a fixed-point window stops
part-way, as a shuffle past its window does.

Weighted choices against exact rational weights are decided by integer
cross-multiplication, so the sampling itself introduces no rounding.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
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


def _mix64_lanes(x: int, golden: int, low: int) -> int:
    """``mix64`` of every lane of x at once.

    Lane i is bits 128i .. 128i+63 of x, and bits 128i+64 .. 128i+127
    are 0.  ``golden`` holds the golden-ratio increment and ``low``
    holds 2^64 - 1 in every lane.  A sum or a product by a 64-bit
    constant then stays below 2^128 in its slot, and a right shift
    spills the next lane's low bits only into the upper half, so
    masking with ``low`` after each step leaves exactly the 64-bit
    result of each lane.
    """
    z = (x + golden) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return (z ^ (z >> 31)) & low


@lru_cache(maxsize=8)
def _lanes(count: int) -> tuple:
    """The layout of ``count`` lanes, one 64-bit value and 8 zero bytes
    each, and the integers holding 1, the golden-ratio increment and
    2^64 - 1 in every lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    return struct.Struct("<" + "Q8x" * count), ones, _GOLDEN * ones, _MASK * ones


def mix64_each(values, *keys) -> list[int]:
    """``[mix64(x) for x in values]`` for values in [0, 2^64), then, for
    each key in turn, every result z replaced by ``mix64(key ^ z)``.

    Each value takes one 64-bit lane in a 128-bit slot of a single
    integer (``_mix64_lanes``), so every ``mix64`` round and every xor
    runs once over all of them.
    """
    lanes, ones, golden, low = _lanes(len(values))
    z = _mix64_lanes(int.from_bytes(lanes.pack(*values), "little"), golden, low)
    for key in keys:
        z = _mix64_lanes(z ^ key * ones, golden, low)
    return list(lanes.unpack(z.to_bytes(lanes.size, "little")))


@lru_cache(maxsize=64)
def rejection_limits(n: int) -> tuple:
    """``limits[m] = 2^64 - 2^64 mod m`` for 1 <= m <= n (``limits[0]``
    is unused): ``below(m)`` keeps an output z exactly when z < limits[m]."""
    return (0,) + tuple(_TWO64 - _TWO64 % m for m in range(1, n + 1))


@lru_cache(maxsize=64)
def weight_thresholds(weights: tuple) -> tuple:
    """The running maxima of ceil(acc_i * 2^64), acc_i the cumulative
    weight through i, computed once per weight tuple: a draw u / 2^64
    falls below acc_i exactly when u is below the i-th threshold."""
    thresholds = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        thresholds.append(-(-(acc.numerator << 64) // acc.denominator))
    return tuple(accumulate(thresholds, max))


def partial_shuffle(pool: list, k: int, limits, marked, room: int, s: int):
    """Steps 0..k-1 of a Fisher-Yates shuffle of ``pool`` from the stream
    at state s: step i swaps position i with ``i + below(n - i)``, n =
    len(pool), each bound's rejection limit read from ``limits``
    (``rejection_limits``).  The step of ``next64`` runs inline on the
    bare state.

    Returns the state after the steps and the room left: each step that
    settles a point outside ``marked`` spends one unit of ``room``, and
    the shuffle stops as soon as the room is negative.  With ``marked``
    None every step is taken and ``room`` comes back as it was given.
    """
    n = len(pool)
    for i in range(k):
        m = n - i
        limit = limits[m]
        while True:
            s = (s + _GOLDEN) & _MASK
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                break
        j = i + z % m
        y = pool[j]
        pool[j] = pool[i]
        pool[i] = y
        if marked is not None and y not in marked:
            room -= 1
            if room < 0:
                break
    return s, room


class SplitMix64:
    """SplitMix64 generator with 64-bit state.

    ``next64`` steps the counter by the golden-ratio increment and
    scrambles it.  Every derived draw consumes the same stream of
    ``next64`` outputs.  ``below``, ``shuffle`` and ``weighted_indices``
    call ``next64``; ``choose_sorted`` runs ``partial_shuffle`` on this
    generator's state.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next64(self) -> int:
        """``mix64`` of the state it steps from, since ``mix64`` adds the
        increment itself: the scramble of the stepped state."""
        state = self._state
        self._state = (state + _GOLDEN) & _MASK
        return mix64(state)

    def spawn(self, index: int) -> "SplitMix64":
        """Independent substream determined by (seed, index) only."""
        return SplitMix64(mix64(self.seed ^ mix64(index & _MASK)))

    def spawn_states(self, start: int, count: int) -> list[int]:
        """``[self.spawn(t)._state for t in range(start, start + count)]``
        for 0 <= start and start + count <= 2^64: both ``mix64`` rounds
        and the seed's xor run in lanes (``mix64_each``)."""
        return mix64_each(range(start, start + count), self.seed)

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
        """A uniform k-subset of range(n), returned sorted: the first k
        points of a ``partial_shuffle`` of range(n) on this generator's
        stream."""
        if not 0 <= k <= n:
            raise ValueError("invalid subset size")
        pool = list(range(n))
        self._state, _ = partial_shuffle(pool, k, rejection_limits(n), None, 0,
                                         self._state)
        return sorted(pool[:k])

    def weighted_indices(self, weights, count: int) -> list[int]:
        """``count`` weighted draws, one ``next64`` output each.

        A draw u picks the first i with u / 2^64 < acc_i, the cumulative
        weight through i.  For integer u that is u < ceil(acc_i * 2^64),
        so the thresholds are computed once per weight tuple
        (``weight_thresholds``), and the first threshold above u is the
        first running maximum above it (bisection).  When none lies above
        u, the last index is returned.
        """
        bounds = weight_thresholds(tuple(weights))
        last = max(len(bounds) - 1, 0)
        return [min(bisect_right(bounds, self.next64()), last)
                for _ in range(count)]
