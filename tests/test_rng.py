import hashlib

import pytest

from soficdim import pperm
from soficdim.rng import SplitMix64

# bounds near 2^64 reject about half of the raw draws
BOUNDS = list(range(1, 300)) + [2 ** 63 + 1, 2 ** 64 - 1, 3 * 2 ** 62 + 7]


def reference_below(rng, n):
    limit = ((1 << 64) // n) * n
    while True:
        u = rng.next64()
        if u < limit:
            return u % n


def reference_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = reference_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def reference_choose_sorted(rng, n, k):
    pool = list(range(n))
    for i in range(k):
        j = i + reference_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def draws(rng, below, shuffle, choose_sorted):
    out = []
    for n in BOUNDS:
        out.append(below(rng, n))
        items = list(range(n % 40))
        shuffle(rng, items)
        out.extend(items)
        out.extend(choose_sorted(rng, n % 50, (n * 7) % (n % 50 + 1)))
        out.append(rng.next64())
    return out


def test_draws_consume_the_next64_stream():
    fast = draws(SplitMix64(20260809), SplitMix64.below, SplitMix64.shuffle,
                 SplitMix64.choose_sorted)
    ref = draws(SplitMix64(20260809), reference_below, reference_shuffle,
                reference_choose_sorted)
    assert fast == ref


def test_recorded_stream():
    # recorded from the next64-per-draw generator; the stream never changes
    rng = SplitMix64(20260809)
    out = draws(rng, SplitMix64.below, SplitMix64.shuffle, SplitMix64.choose_sorted)
    for d in (4, 8, 16, 32):
        for _ in range(250):
            out.extend(pperm.random_pperm(d, rng).images)
            out.extend(pperm.random_permutation(d, rng).images)
    assert len(out) == 40490
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "7a23017994ee5c3f30c0bca99032bc1014382b0ba16c07bcd2ef768e14863580")


def test_empty_draws_leave_the_state():
    rng = SplitMix64(7)
    rng.shuffle([])
    rng.shuffle([1])
    assert rng.choose_sorted(5, 0) == []
    assert rng.next64() == SplitMix64(7).next64()


def test_invalid_bounds():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.choose_sorted(3, 4)
