"""Core algorithm: the augmented matrix, variance learning, and LIA."""

from repro.core.augmented import (
    IntersectingPairs,
    augmented_matrix,
    augmented_rank,
    has_identifiable_variances,
    intersecting_pairs,
    num_pair_rows,
    pair_from_row_index,
    pair_row_index,
)
from repro.core.engine import (
    FactorizationCache,
    InferenceEngine,
    LIAResult,
    LossInferenceAlgorithm,
    infer_many,
)
from repro.core.identifiability import (
    IdentifiabilityReport,
    audit_identifiability,
    verify_theorem1,
)
from repro.core.reduction import ReductionResult, reduce_to_full_rank
from repro.core.variance import (
    VARIANCE_METHODS,
    VarianceEstimate,
    estimate_link_variances,
    variance_recovery_error,
)

__all__ = [
    "FactorizationCache",
    "IdentifiabilityReport",
    "InferenceEngine",
    "IntersectingPairs",
    "LIAResult",
    "LossInferenceAlgorithm",
    "ReductionResult",
    "VARIANCE_METHODS",
    "VarianceEstimate",
    "audit_identifiability",
    "augmented_matrix",
    "augmented_rank",
    "estimate_link_variances",
    "has_identifiable_variances",
    "infer_many",
    "intersecting_pairs",
    "num_pair_rows",
    "pair_from_row_index",
    "pair_row_index",
    "reduce_to_full_rank",
    "variance_recovery_error",
    "verify_theorem1",
]
