"""The Loss Inference Algorithm (LIA), Section 5.3.

Ties the two phases together::

    Input:  reduced routing matrix R and m + 1 snapshots
    Phase 1: solve Sigma_hat* = A v for the link variances v
    Phase 2: sort links by variance; drop lowest-variance columns until
             R* has full column rank; solve Y = R* X* on the (m+1)-th
             snapshot; removed links get transmission rate ~ 1

The heavy lifting lives in :class:`repro.core.engine.InferenceEngine`,
which caches everything reusable across snapshots: the intersecting-pairs
structure (the expensive once-per-network computation of A), the phase-2
reduction per variance estimate, and the QR factorization of ``R*`` per
kept-column set.  This class is the user-facing binding of one engine to
one routing matrix, mirroring the paper's presentation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.augmented import IntersectingPairs
from repro.core.engine import InferenceEngine, LIAResult
from repro.core.variance import VarianceEstimate
from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.routing import RoutingMatrix

__all__ = ["LIAResult", "LossInferenceAlgorithm"]


class LossInferenceAlgorithm:
    """LIA bound to one routing matrix.

    Parameters
    ----------
    routing:
        The reduced routing matrix (Section 3.1 object).
    variance_method:
        Phase-1 solver, see :data:`repro.core.variance.VARIANCE_METHODS`.
    reduction_strategy:
        Phase-2 column selection: ``"threshold"`` (default), ``"gap"``,
        ``"paper"`` or ``"greedy"`` — see :mod:`repro.core.reduction`.
    congestion_threshold, cutoff_scale:
        Parameters of the default ``"threshold"`` reduction: the loss
        rate ``t_l`` separating good from congested links and the safety
        factor on the implied variance cutoff ``cutoff_scale * t_l / S``
        (S is read off each snapshot).  The default scale of 16 sits well
        above the good-link variance band (~2 t_l / S with burstiness)
        yet a factor of ~5 below the variance of the mildest congested
        link the LLRD models produce, and is validated across scales in
        the ablation benchmarks.
    drop_negative:
        Drop negative sample-covariance equations (paper behaviour).
    floor:
        Continuity floor for log transforms (default ``0.5 / S``).
    downdate_limit, update_limit, reduction_reuse_limit, max_cache_bytes:
        Incremental-cache knobs forwarded to
        :class:`~repro.core.engine.InferenceEngine`; all off by default
        so batch pipelines stay bit-identical (the online monitor opts
        in).
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        variance_method: str = "wls",
        reduction_strategy: str = "threshold",
        drop_negative: bool = True,
        floor: Optional[float] = None,
        congestion_threshold: float = 0.002,
        cutoff_scale: float = 16.0,
        downdate_limit: int = 0,
        update_limit: int = 0,
        reduction_reuse_limit: int = 0,
        max_cache_bytes: Optional[int] = None,
    ) -> None:
        self.engine = InferenceEngine(
            routing,
            variance_method=variance_method,
            reduction_strategy=reduction_strategy,
            drop_negative=drop_negative,
            floor=floor,
            congestion_threshold=congestion_threshold,
            cutoff_scale=cutoff_scale,
            downdate_limit=downdate_limit,
            update_limit=update_limit,
            reduction_reuse_limit=reduction_reuse_limit,
            max_cache_bytes=max_cache_bytes,
        )

    # The statistical knobs stay readable on the wrapper.
    @property
    def routing(self) -> RoutingMatrix:
        return self.engine.routing

    @property
    def variance_method(self) -> str:
        return self.engine.variance_method

    @property
    def reduction_strategy(self) -> str:
        return self.engine.reduction_strategy

    @property
    def drop_negative(self) -> bool:
        return self.engine.drop_negative

    @property
    def floor(self) -> Optional[float]:
        return self.engine.floor

    @property
    def congestion_threshold(self) -> float:
        return self.engine.congestion_threshold

    @property
    def cutoff_scale(self) -> float:
        return self.engine.cutoff_scale

    @property
    def pairs(self) -> IntersectingPairs:
        """The (cached) non-zero rows of the augmented matrix A."""
        return self.engine.pairs

    # -- phase 1 ---------------------------------------------------------------

    def learn_variances(self, training: MeasurementCampaign) -> VarianceEstimate:
        """Estimate link variances from the m training snapshots."""
        return self.engine.learn_variances(training)

    # -- phase 2 ---------------------------------------------------------------

    def infer(
        self, snapshot: Snapshot, variance_estimate: VarianceEstimate
    ) -> LIAResult:
        """Infer link loss rates on one snapshot using learned variances."""
        return self.engine.infer(snapshot, variance_estimate)

    def infer_batch(
        self,
        snapshots: Sequence[Snapshot],
        variance_estimate: VarianceEstimate,
    ) -> List[LIAResult]:
        """Infer many snapshots with one factorization per kept-column set."""
        return self.engine.infer_batch(snapshots, variance_estimate)

    # -- end-to-end -------------------------------------------------------------

    def run(
        self,
        campaign: MeasurementCampaign,
        num_training: Optional[int] = None,
    ) -> LIAResult:
        """Learn on the first ``m`` snapshots, infer on the last one."""
        return self.engine.run(campaign, num_training)
