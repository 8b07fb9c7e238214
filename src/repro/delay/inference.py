"""Delay tomography: the LIA recipe applied to link delays.

Identical skeleton to the loss algorithm, with two simplifications the
additive delay system allows:

* no log transform — ``Y = R D`` holds in delay units directly;
* phase 2 works on *centered* measurements: only delay *deviations* from
  each path's training mean are attributed to links.  Means of link
  delays are not identifiable (same Figure 1 argument), but deviations
  of the high-variance (congested) links are — removed links deviate
  ~0 by construction, exactly the "loss rates of removed links ~ 0"
  approximation transplanted to delays.

Every stage runs the loss layer's one body: phase 1 is
:func:`repro.core.variance.estimate_link_variances_from_moments` on the
moments of raw delays, the column selection is the engine's
:class:`~repro.core.engine.ReductionCache` (``"threshold"`` strategy),
and the reduced solve is :meth:`~repro.core.engine.FactorizationCache.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.augmented import IntersectingPairs, intersecting_pairs
from repro.core.covariance import sample_covariance_pairs
from repro.core.engine import FactorizationCache, ReductionCache
from repro.core.variance import (
    VARIANCE_METHODS,
    estimate_link_variances_from_moments,
)
from repro.delay.prober import DelayCampaign, DelaySnapshot
from repro.topology.routing import RoutingMatrix


@dataclass(frozen=True)
class DelayVarianceEstimate:
    """Per-column delay variances learned from a training campaign."""

    variances: np.ndarray
    num_snapshots: int
    path_means: np.ndarray  # training-mean delay per path (for centering)

    @property
    def num_links(self) -> int:
        return int(self.variances.shape[0])


@dataclass(frozen=True)
class DelayInferenceResult:
    """Per-column delay deviations inferred for one snapshot."""

    delay_deviations: np.ndarray  # vs the training mean, ms
    variance_estimate: DelayVarianceEstimate
    kept_columns: np.ndarray

    def high_delay_links(self, threshold_ms: float) -> np.ndarray:
        """Columns whose inferred deviation exceeds *threshold_ms*."""
        return self.delay_deviations > threshold_ms


class DelayInferenceAlgorithm:
    """Two-phase delay tomography bound to one routing matrix.

    Parameters
    ----------
    routing:
        The reduced routing matrix.
    variance_cutoff_ms2:
        Phase-2 keep threshold on the learned delay variances (ms^2).
        Links below it are treated as queueing-free; the default of 1.0
        sits far above jitter-induced estimation noise for S >= 100 yet
        two orders below the mildest Gamma queue of the default model.
    variance_method:
        Phase-1 solver, see :data:`repro.core.variance.VARIANCE_METHODS`
        — the delay layer solves the same ``Sigma_hat* = A v`` system
        through the same back end as the loss layer, so every loss-layer
        solver (``"wls"``, ``"normal"``, ``"nnls"``) applies here too.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        variance_cutoff_ms2: float = 1.0,
        variance_method: str = "wls",
    ) -> None:
        if variance_cutoff_ms2 <= 0:
            raise ValueError("variance_cutoff_ms2 must be positive")
        if variance_method not in VARIANCE_METHODS:
            raise ValueError(
                f"unknown variance method {variance_method!r}, "
                f"want one of {VARIANCE_METHODS}"
            )
        self.routing = routing
        self.variance_cutoff_ms2 = variance_cutoff_ms2
        self.variance_method = variance_method
        self._pairs: Optional[IntersectingPairs] = None
        self._factorizations = FactorizationCache(routing.matrix)
        self._reductions = ReductionCache(routing.matrix)

    @property
    def pairs(self) -> IntersectingPairs:
        if self._pairs is None:
            self._pairs = intersecting_pairs(self.routing.matrix)
        return self._pairs

    # -- phase 1 -----------------------------------------------------------

    def learn_variances(self, training: DelayCampaign) -> DelayVarianceEstimate:
        """Solve ``Sigma_hat* = A v`` for delay variances.

        Runs the loss layer's phase-1 body,
        :func:`repro.core.variance.estimate_link_variances_from_moments`,
        on the moments of raw delays in place of log rates: the same
        negative-equation filter, WLS weighting, underdetermined-system
        guard and solvers.  A campaign whose surviving equations cannot
        determine ``v`` (e.g. every cross-path covariance negative)
        raises the same clear ``ValueError`` the loss layer does.
        """
        if len(training) < 2:
            raise ValueError("need at least two training snapshots")
        Y = training.delay_matrix()
        pairs = self.pairs
        estimate = estimate_link_variances_from_moments(
            pairs,
            sample_covariance_pairs(Y, pairs.pair_i, pairs.pair_j),
            Y.var(axis=0, ddof=1),
            len(training),
            self.variance_method,
        )
        return DelayVarianceEstimate(
            variances=estimate.variances,
            num_snapshots=len(training),
            path_means=Y.mean(axis=0),
        )

    # -- phase 2 -----------------------------------------------------------

    def infer(
        self, snapshot: DelaySnapshot, estimate: DelayVarianceEstimate
    ) -> DelayInferenceResult:
        """Attribute this snapshot's path-delay deviations to links."""
        if estimate.num_links != self.routing.num_links:
            raise ValueError("estimate does not match routing matrix")
        kept = self._kept_columns(estimate)
        deviations = np.zeros(self.routing.num_links)
        if len(kept):
            deviations[kept] = self._factorizations.solve(
                kept, snapshot.path_delays - estimate.path_means
            )
        return DelayInferenceResult(
            delay_deviations=deviations,
            variance_estimate=estimate,
            kept_columns=kept,
        )

    def _kept_columns(self, estimate: DelayVarianceEstimate) -> np.ndarray:
        """Memoized phase-2 column selection for one variance estimate.

        Delegates to the shared :class:`repro.core.engine.ReductionCache`
        (the ``"threshold"`` strategy with the delay cutoff), the same
        helper the loss engine memoizes through.  The kept set (and
        therefore the ``R*`` factorization the cache hands back) is fixed
        per estimate, so repeated inference against one training window —
        the monitoring pattern — reduces once and factorizes once.
        """
        return self._reductions.reduce(
            estimate.variances, "threshold", self.variance_cutoff_ms2
        ).kept_columns

    def run(self, campaign: DelayCampaign) -> DelayInferenceResult:
        """Learn on all but the last snapshot; infer on the last."""
        training, target = campaign.split_training_target()
        estimate = self.learn_variances(training)
        return self.infer(target, estimate)
