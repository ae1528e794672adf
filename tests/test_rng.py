import hashlib
from fractions import Fraction

import pytest

from soficdim import pperm
from soficdim.partitions import random_partition
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


def reference_weighted_index(rng, weights):
    # the draw against Fraction cumulative sums, one next64 per draw
    u = rng.next64()
    acc = Fraction(0)
    last = 0
    for i, w in enumerate(weights):
        acc += w
        if u * acc.denominator < acc.numerator << 64:
            return i
        last = i
    return last


WEIGHTS = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1),),
    (Fraction(0), Fraction(1, 7), Fraction(0), Fraction(6, 7)),
    tuple(Fraction(1, 5) for _ in range(5)),
    (Fraction(1, 3), Fraction(1, 3)),  # short of 1: the last index catches the rest
    (Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4)),  # a falling running sum
    (Fraction(1, 2 ** 64), Fraction(2 ** 64 - 1, 2 ** 64)),  # thresholds 1 and 2^64
    (),
]


def test_weighted_draws_match_the_fraction_comparison():
    for k, weights in enumerate(WEIGHTS):
        fast, ref = SplitMix64(k), SplitMix64(k)
        got = fast.weighted_indices(weights, 400) + fast.weighted_indices(weights, 1)
        want = [reference_weighted_index(ref, weights) for _ in range(401)]
        assert got == want
        assert fast.next64() == ref.next64()


def state_before(u):
    # the state whose next64 output is u: SplitMix64's scramble inverted
    mask = (1 << 64) - 1
    z = u ^ (u >> 31) ^ (u >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z ^= (z >> 30) ^ (z >> 60)
    return (z - 0x9E3779B97F4A7C15) & mask


def test_draws_on_the_threshold_boundaries():
    # u just below, at and above floor(acc * 2^64) for every running sum
    for weights in WEIGHTS:
        acc = Fraction(0)
        for w in weights:
            acc += w
            edge = (acc.numerator << 64) // acc.denominator
            for u in (edge - 1, edge, edge + 1):
                if not 0 <= u < 1 << 64:
                    continue
                fast, ref = SplitMix64(0), SplitMix64(0)
                fast._state = ref._state = state_before(u)
                assert ref.next64() == u
                ref._state = fast._state
                assert fast.weighted_indices(weights, 1)[0] == \
                    reference_weighted_index(ref, weights)


def test_recorded_partitions():
    # recorded from the per-draw Fraction comparison; the stream never changes
    out = []
    for mu in WEIGHTS[:3]:
        for seed in range(300):
            out.extend(random_partition(40, mu, seed).block_of)
    assert len(out) == 36000
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "9b157591930b857cf55fdc2f8d9308cb9615f43420d885561c32187aba79710f")
