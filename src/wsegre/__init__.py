"""Exact Segre-class calculus for weighted projective bundles and volume
lower bounds for jet differentials on compactified ball quotients."""

from .chow import (
    TotalClass,
    WeightedSummand,
    projective_tangent_segre,
    segre_of_weighted_summand,
    segre_of_weighted_sum,
    weighted_tangent_top_segre,
)
from .combinatorics import (
    harmonic,
    sum_nondecreasing,
    sum_repeated,
    weighted_partitions,
)
from .jets import (
    BoundaryData,
    boundary_coeff,
    boundary_jet_sections,
    jet_rank,
)
from .bounds import (
    GAMMA,
    PI,
    GeometryInput,
    ThresholdRow,
    boundary_factor,
    find_min_k,
    logarithmic_volume,
    simple_lower_bound,
    threshold_logk,
    threshold_table,
    volume_lower_bound,
)
from .oracles import VerificationReport

__all__ = [
    "TotalClass",
    "WeightedSummand",
    "projective_tangent_segre",
    "segre_of_weighted_summand",
    "segre_of_weighted_sum",
    "weighted_tangent_top_segre",
    "harmonic",
    "sum_nondecreasing",
    "sum_repeated",
    "weighted_partitions",
    "BoundaryData",
    "boundary_coeff",
    "boundary_jet_sections",
    "jet_rank",
    "GAMMA",
    "PI",
    "GeometryInput",
    "ThresholdRow",
    "boundary_factor",
    "find_min_k",
    "logarithmic_volume",
    "simple_lower_bound",
    "threshold_logk",
    "threshold_table",
    "volume_lower_bound",
    "VerificationReport",
]

__version__ = "0.1.0"
