"""Reference routes that more than one test module compares the library against.

Each builds an exact object by a route of its own: a candidate by block
dilation or from the Bernoulli model acting on its own points, the
conjugate of a partial permutation by composition, a model's
cylinders point by point from its action table and their measures from
their points' weights, and the scaling suite's dict by a round trip
per instance.  ``one_arrow_context`` is the
lemma context whose hypothesis ball lists its radius-n ball in another
order, ``uneven_groupoid`` a groupoid whose unit weights differ, and
``groupoid_params`` the counting problem over a groupoid's
radius-n bisection ball; ``plain_count`` counts by the plain search
over given pools, without conjugacy classes.  ``reference_system``
reduces words by one reducer per cyclic family, the integers, a cyclic
group and a free product of such factors merged on a stack.
``state_with_output`` inverts the SplitMix64 finalizer to place a given
output in a stream, such as one that rejection sampling must skip
(``rejected_state``), and ``first_output_rejects`` reads, from the
definition of a draw, whether its first output alone rejects it.
"""

from fractions import Fraction
from math import comb, factorial

from soficdim import cli, pperm, scaling
from soficdim.groupoid import FiniteGroupoid, PartialBisection, transitive_groupoid
from soficdim.partitions import LemmaContext, RandomPartition
from soficdim.pperm import PartialPermutation, compose, inverse
from soficdim.rng import SplitMix64
from soficdim.sofic import GroupoidSource, SAParams, SoficCandidate
from soficdim.wordball import GeneratingSystem


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _unshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) = y."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def state_with_output(u: int, j: int) -> int:
    """A state whose j-th ``next64`` output (from 0) is u: the preimage
    of u under ``rng.mix64``, each step of the finalizer undone in
    reverse, less j increments."""
    z = _unshift(u, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return (_unshift(z, 30) - (j + 1) * _GOLDEN) & _MASK


def rejected_state(j: int) -> int:
    """A state whose j-th ``next64`` output (from 0) is 2^64 - 1.

    That output lies at or above the rejection limit 2^64 - 2^64 mod m
    of every bound m that is not a power of two, so ``below(m)`` skips
    it.
    """
    return state_with_output(_MASK, j)


def first_output_rejects(u: int, d: int, total: bool, lo: int, hi: int) -> bool:
    """Whether the first output u of a stream alone rejects a draw of
    degree d whose fixed-point count must lie in lo..hi.

    No count lies in an empty window.  A partial map's u picks domain
    size k by u / 2^64 < (maps of domain size at most k) / (all maps),
    and a domain smaller than lo fixes too few points.  A permutation's
    first Fisher-Yates step, when u lies below the rejection limit of
    bound d >= 2, swaps point d with point u % d + 1: point d stays
    fixed only when u % d = d - 1, which the window {0} forbids, and the
    d - 1 points left cannot reach lo = d without it.
    """
    if hi < lo:
        return True
    if not total:
        below_lo = sum(comb(d, k) ** 2 * factorial(k) for k in range(lo))
        all_maps = sum(comb(d, k) ** 2 * factorial(k) for k in range(d + 1))
        return u * all_maps < below_lo << 64
    if d < 2 or u >= (1 << 64) - (1 << 64) % d:
        return False
    return hi == 0 if u % d == d - 1 else lo == d


def outputs_between(state: int, after: int) -> int:
    """How many ``next64`` outputs lead from ``state`` to ``after``."""
    return (after - state) * pow(_GOLDEN, -1, 1 << 64) & _MASK


def conjugate(s: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """g s g^-1 for a total permutation g."""
    if g.dom_size != g.degree:
        raise ValueError("conjugator must be a total permutation")
    return compose(compose(g, s), inverse(g))


def one_arrow_context() -> LemmaContext:
    """The 3-point relation with the single arrow 0 -> 1 at radius 2:
    model-ball positions 3, 4 and 5 are hypothesis positions 5, 3 and 4."""
    g = transitive_groupoid(3)
    return LemmaContext(g, [PartialBisection(g, frozenset(
        a for a in range(g.n_arrows) if (g.source[a], g.range_[a]) == (0, 1)))], 2)


def uneven_groupoid() -> FiniteGroupoid:
    """Units 0 and 1 of weight 1/6, joined by the arrows 0 -> 1 and 1 -> 0,
    and a lone unit 2 of weight 2/3: the swap of 0 and 1 has trace 2/3,
    and the unit weights have denominators 6 and 3."""
    joined = transitive_groupoid(2)
    comp = dict(joined.comp)
    comp[(4, 4)] = 4
    return FiniteGroupoid([Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)],
                          joined.source + (2,), joined.range_ + (2,),
                          joined.inverse + (4,), joined.unit_arrow + (4,), comp)


def groupoid_params(g, F, n: int, delta, d: int, mode: str = "") -> SAParams:
    return SAParams(GroupoidSource(g, F, n), Fraction(delta), d, mode=mode)


def plain_count(plan, pools, positions) -> tuple[int, set]:
    """Member count and the set of members' restrictions to
    ``positions`` (tuples of padded image tuples) over
    ``plan.search(pools)``."""
    count = 0
    restrictions = set()
    for slots in plan.search(pools):
        count += 1
        restrictions.add(tuple(slots[i] for i in positions))
    return count, restrictions


def block_candidate(source, d: int) -> SoficCandidate:
    """Exact member for a principal groupoid source by block dilation.

    Unit e becomes a block of d * weight(e) consecutive points (the
    products must be integers); a bisection maps blocks index-aligned.
    For principal groupoids this candidate has zero gaps.
    """
    if source.is_group:
        raise ValueError("block candidates need a groupoid source")
    g = source.groupoid
    starts = []
    acc = 0
    for e in range(g.n_units):
        size = d * g.unit_weights[e]
        if size.denominator != 1:
            raise ValueError(f"degree {d} does not split unit {e} into a block")
        starts.append(acc)
        acc += int(size)
    if acc != d:
        raise ValueError("block sizes do not fill the degree")

    def image(bis) -> PartialPermutation:
        images = [0] * d
        for a in bis.arrows:
            e, f = g.source[a], g.range_[a]
            size = int(d * g.unit_weights[e])
            for i in range(size):
                images[starts[e] + i] = starts[f] + i + 1
        return PartialPermutation(d, images)

    return SoficCandidate(d, [image(b) for b in source.ball_elements])


def reference_translates(model) -> dict:
    """(b, letter) -> the points a.y for an arrow a of ball element b and
    a point y of the letter set, read from the action table."""
    act = model.action.act
    return {(b, c): frozenset(act[a, y] for a in s.arrows for y in letters
                              if (a, y) in act)
            for b, s in enumerate(model.ball)
            for c, letters in enumerate(model.letter_sets)}


def reference_cylinders(model) -> list:
    """Each psi's cylinder, point by point: the model points that lie in
    the translate of every entry of psi (``reference_translates``)."""
    translates = reference_translates(model)
    return [frozenset(x for x in range(model.action.n_points)
                      if all(x in translates[entry] for entry in psi))
            for psi in model.psis]


def mu_points(model, points) -> Fraction:
    """The exact measure of a set of model points, summed as Fractions
    over their weights."""
    return sum((model.action.weight[x] for x in points), Fraction(0))


def mu_cylinder(model, psi) -> Fraction:
    """The exact measure of psi's cylinder (``reference_cylinders``)."""
    return mu_points(model, reference_cylinders(model)[model.psis.index(psi)])


def reference_image_cylinder(psi, images, partition) -> frozenset:
    """psi's image-side cylinder A_psi: the points of {1..d} that, for
    each entry (b, letter) of psi, the image of ball position b sends
    some point of the letter's block to, the block read from
    ``block_of``."""
    pts = set(range(1, partition.d + 1))
    for ball_idx, letter in psi:
        s = images[ball_idx]
        block = frozenset(x for x, b in enumerate(partition.block_of, start=1)
                          if b == letter)
        pts &= {s.images[x - 1] for x in block if s.images[x - 1]}
    return frozenset(pts)


def exact_partition(blocks) -> RandomPartition:
    """Partition of {1..d} given explicitly by blocks."""
    d = sum(len(b) for b in blocks)
    block_of = [None] * d
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x - 1] = i
    if any(b is None for b in block_of):
        raise ValueError("blocks do not cover {1..d}")
    return RandomPartition(d, len(blocks), tuple(block_of))


def regular_model_candidate(model) -> tuple[SoficCandidate, RandomPartition]:
    """The exact instance: the model acting on its own points.

    The candidate maps each ball element of the hypothesis source to
    its action on the point set, and the partition is the letter
    partition itself.  For principal groupoids with equal fiber sizes
    and a fair alphabet every gap vanishes.
    """
    action = model.action
    g = action.groupoid
    d = action.n_points
    images = []
    for b in model.context.hypothesis_source.ball_elements:
        amap = {x: action.act[(a, x)] for a in b.arrows for x in action.fibers[g.source[a]]}
        images.append(PartialPermutation(
            d, tuple(amap[x] + 1 if x in amap else 0 for x in range(d))))
    blocks = [frozenset(x + 1 for x in s) for s in model.letter_sets]
    return SoficCandidate(d, images), exact_partition(blocks)


def scaling_suite_every_instance(g, d: int, delta, seed: int, instances: int) -> dict:
    """The scaling suite's dict with a full round trip for every instance,
    repeated corner candidates included."""
    cd = scaling.standard_corner(g, [0])
    src = cd.expansion_source
    all_pass = True
    worst_round = 0.0
    base = cli.binding_degree(cd, delta, d)
    for i in range(instances):
        rng = SplitMix64(seed).spawn(i)
        drop = rng.below(max(1, min(int(delta * base), base + 1)))
        keep = sorted(set(range(1, base + 1)) - set(
            x + 1 for x in rng.choose_sorted(base, drop)))
        images = [PartialPermutation.projection(base, keep) if b.arrows
                  else PartialPermutation.empty(base) for b in src.ball_elements]
        sigma = SoficCandidate(base, images)
        res = scaling.expand_sigma(sigma, cd, delta=delta, seed=seed + i)
        rr = scaling.restrict_sigma(res.candidate, cd, delta=delta)
        all_pass &= res.report.is_member and rr.report.is_member
        worst = max(pperm.uniform_distance(sigma.images[src.position[b]],
                                           rr.candidate.images[j])
                    for j, b in enumerate(rr.params.source.ball_elements))
        all_pass &= worst <= 3 * rr.params.delta
        worst_round = max(worst_round, float(worst))
    return {"instances": instances, "passed": bool(all_pass),
            "worst_round_trip": worst_round,
            "round_trip_bound": float(3 * (20 * delta / cd.h_p))}


class IntegerLine(GeneratingSystem):
    """The infinite cyclic group; canonical form is a single power of
    the generator."""

    def __init__(self, name: str = "a"):
        super().__init__((name,))

    def reduce_word(self, word):
        k = sum(e for _, e in word)
        return (((self.generators[0], k),) if k else ())


class CyclicGroup(GeneratingSystem):
    """Cyclic group of order m, exponents reduced into 1..m-1."""

    def __init__(self, m: int, name: str = "a"):
        if m < 1:
            raise ValueError("order must be >= 1")
        self.order = m
        super().__init__((name,))

    def reduce_word(self, word):
        k = sum(e for _, e in word) % self.order
        return (((self.generators[0], k),) if k else ())


class FreeProductOfFinite(GeneratingSystem):
    """Free product of one-generator factors, canonical alternating
    syllables: canonical words never have two consecutive syllables
    from the same factor and never contain a factor identity."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        gens = []
        self._factor_of = {}
        for idx, fac in enumerate(self.factors):
            for g in fac.generators:
                if g in self._factor_of:
                    raise ValueError(f"generator {g!r} used by two factors")
                self._factor_of[g] = idx
                gens.append(g)
        super().__init__(gens)

    def reduce_word(self, word):
        stack = []  # (factor index, canonical factor word)
        for g, e in word:
            idx = self._factor_of[g]
            syl = self.factors[idx].reduce_word(((g, e),))
            stack.append((idx, syl))
            while True:
                if stack and not stack[-1][1]:
                    stack.pop()
                    continue
                if len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
                    i, u = stack[-2]
                    _, v = stack[-1]
                    stack[-2:] = [(i, self.factors[i].reduce_word(u + v))]
                    continue
                break
        out = []
        for _, syl in stack:
            out.extend(syl)
        return tuple(out)


def reference_system(orders: dict) -> GeneratingSystem:
    """The free product of cyclic groups with ``orders`` (generator to
    order, 0 for the integers), one factor standing alone."""
    factors = [IntegerLine(g) if m == 0 else CyclicGroup(m, g) for g, m in orders.items()]
    return factors[0] if len(factors) == 1 else FreeProductOfFinite(factors)
