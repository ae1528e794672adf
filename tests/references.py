"""Reference routes that more than one test module compares the library against.

Each builds an exact object by a route of its own: a candidate by block
dilation or from the Bernoulli model acting on its own points, and the
conjugate of a partial permutation by composition.
"""

from soficdim.partitions import RandomPartition
from soficdim.pperm import PartialPermutation, compose, inverse
from soficdim.sofic import SoficCandidate


def conjugate(s: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """g s g^-1 for a total permutation g."""
    if g.dom_size != g.degree:
        raise ValueError("conjugator must be a total permutation")
    return compose(compose(g, s), inverse(g))


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


def exact_partition(blocks) -> RandomPartition:
    """Partition of {1..d} given explicitly by blocks (seed recorded as -1)."""
    d = sum(len(b) for b in blocks)
    block_of = [None] * d
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x - 1] = i
    if any(b is None for b in block_of):
        raise ValueError("blocks do not cover {1..d}")
    return RandomPartition(d, len(blocks), -1, tuple(block_of))


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
