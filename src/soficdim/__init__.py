"""Exact workbench for sofic approximation counting over finite pmp groupoids.

Layers, bottom up: partial permutation algebra (:mod:`soficdim.pperm`),
finite groupoids with Bernoulli actions
(:mod:`soficdim.groupoid`), symbolic word balls
(:mod:`soficdim.wordball`), membership/counting of approximation sets
(:mod:`soficdim.sofic`), profile/cylinder bound certification
(:mod:`soficdim.partitions`), action-pair construction
(:mod:`soficdim.crossed`), corner dilation/compression
(:mod:`soficdim.scaling`), the closed-form value calculator
(:mod:`soficdim.calculator`) and the batch CLI (:mod:`soficdim.cli`).
"""

from .pperm import (
    OverlapError,
    PartialPermutation,
    compose,
    distances,
    inverse,
    orthogonal_sum,
    parse_pperm,
    trace,
    uniform_distance,
)
from .groupoid import (
    FibredAction,
    FiniteGroupoid,
    PartialBisection,
    corner,
    finite_part_measure,
    tau,
    transitive_groupoid,
    validate_pmp,
)
from .wordball import Ball, GeneratingSystem, ball, parse_descriptor
from .sofic import (
    InfeasibleError,
    MembershipReport,
    SAParams,
    SoficCandidate,
    closed_form_count,
    count_SA,
    monte_carlo_count,
    restricted_statistic,
    verify_membership,
)
from .partitions import (
    BoundReport,
    CylinderModel,
    LemmaContext,
    RandomPartition,
    SpanBasis,
    lemma_constants,
    random_partition,
    span_basis,
    verify_lemma_c1,
    verify_lemma_c2,
    verify_lemma_c3_sweep,
)
from .crossed import (
    HACandidate,
    HAParams,
    approx_sum_check,
    build_phi,
    build_phi0,
    ha_statistic,
    verify_HA,
)
from .scaling import (
    CornerData,
    expand_sigma,
    make_corner_data,
    restrict_sigma,
    scaling_value,
    scaling_value_inverse,
)
from .calculator import SExpression, SValue, evaluate_s, parse_expr

__version__ = "0.1.0"

__all__ = [
    "OverlapError", "PartialPermutation", "compose", "distances", "inverse",
    "orthogonal_sum", "parse_pperm", "trace", "uniform_distance",
    "FibredAction", "FiniteGroupoid", "PartialBisection", "corner",
    "finite_part_measure", "tau", "transitive_groupoid", "validate_pmp",
    "Ball", "GeneratingSystem", "ball", "parse_descriptor",
    "InfeasibleError", "MembershipReport", "SAParams", "SoficCandidate",
    "closed_form_count", "count_SA", "monte_carlo_count",
    "restricted_statistic", "verify_membership",
    "BoundReport", "CylinderModel", "LemmaContext", "RandomPartition",
    "SpanBasis", "lemma_constants", "random_partition", "span_basis",
    "verify_lemma_c1", "verify_lemma_c2", "verify_lemma_c3_sweep",
    "HACandidate", "HAParams", "approx_sum_check", "build_phi", "build_phi0",
    "ha_statistic", "verify_HA",
    "CornerData", "expand_sigma", "make_corner_data", "restrict_sigma",
    "scaling_value", "scaling_value_inverse",
    "SExpression", "SValue", "evaluate_s", "parse_expr",
]
