"""Indirect cross-validation of inferred link rates (Section 7.2).

On the real Internet the true link rates are unknown, so the paper
validates indirectly: split the measured paths randomly into an
*inference set* and a *validation set* of equal size, run LIA on the
inference half, and declare a validation path consistent when

    | phi_hat_i  -  prod_{e_k in P_i ∩ E_inf} phi_hat_{e_k} |  <=  epsilon

with ``epsilon = 0.005``.  ``E_inf`` is the set of physical links covered
by the inference topology; links of the validation path outside ``E_inf``
contribute nothing (their factor is treated as 1, exactly as in the
paper's product over ``P_i ∩ E_inf``).

A virtual column groups alias physical links; when a validation path
traverses only part of a group we attribute the column's log rate
uniformly across members — the only consistent disaggregation available
to an end-to-end method, and an explicit modelling choice recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.engine import LIAResult
from repro.topology.graph import Path
from repro.topology.routing import RoutingMatrix

DEFAULT_EPSILON = 0.005


def physical_log_rates(
    result_rates: np.ndarray, inference_routing: RoutingMatrix
) -> Dict[int, float]:
    """Per-physical-link log transmission rates from per-column estimates.

    Column log rates are split uniformly across alias members.
    """
    rates = np.asarray(result_rates, dtype=np.float64)
    if rates.shape != (inference_routing.num_links,):
        raise ValueError("one rate per routing-matrix column required")
    log_rates = np.log(np.clip(rates, 1e-12, 1.0))
    out: Dict[int, float] = {}
    for vlink in inference_routing.virtual_links:
        share = log_rates[vlink.column] / vlink.size
        for member_index in vlink.member_indices():
            out[member_index] = share
    return out


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of the Section 7.2 consistency test."""

    num_paths: int
    num_consistent: int
    epsilon: float

    @property
    def consistency_rate(self) -> float:
        if self.num_paths == 0:
            return 1.0
        return self.num_consistent / self.num_paths


def validate_against_paths(
    result: LIAResult,
    inference_routing: RoutingMatrix,
    validation_paths: Sequence[Path],
    validation_transmission: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
) -> ConsistencyResult:
    """Run the consistency test on withheld paths.

    Parameters
    ----------
    result:
        LIA output on the inference half.
    inference_routing:
        The routing matrix of the inference half (defines ``E_inf``).
    validation_paths, validation_transmission:
        The withheld paths and their measured transmission rates, aligned.
    """
    measured = np.asarray(validation_transmission, dtype=np.float64)
    if measured.shape != (len(validation_paths),):
        raise ValueError("one measured rate per validation path required")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    link_log = physical_log_rates(result.transmission_rates, inference_routing)
    consistent = 0
    for path, phi in zip(validation_paths, measured):
        predicted_log = sum(
            link_log.get(link_index, 0.0) for link_index in path.link_indices()
        )
        if abs(phi - float(np.exp(predicted_log))) <= epsilon:
            consistent += 1
    return ConsistencyResult(
        num_paths=len(validation_paths),
        num_consistent=consistent,
        epsilon=epsilon,
    )
