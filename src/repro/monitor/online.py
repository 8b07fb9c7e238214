"""Online monitoring and anomaly detection — the paper's second extension.

"A second extension is the detection of anomalies in the network, from a
few vantage points.  The inference method is fast and so could have
potential for such problems."  This module packages LIA as the long-
running service that sentence implies:

* a **rolling window** of the last ``window`` snapshots feeds phase 1
  through **running sufficient statistics**: per-path and per-equation
  sums maintained in O(pairs) per snapshot (:class:`_RollingMoments`),
  so a variance refresh — once every ``refresh_interval + 1`` snapshots —
  hands :func:`~repro.core.variance.estimate_link_variances_from_moments`
  ready-made moments instead of re-reading the whole window, and skips
  the solve outright when no covariance equation went dirty.  Each push
  also re-sums one fixed slice of the sums from the window, so every sum
  is exact again once per :data:`MOMENTS_REBASE_INTERVAL` pushes;
* the expensive intersecting-pairs structure is built once, and the
  :class:`~repro.core.engine.InferenceEngine` underneath memoizes the
  phase-2 reduction per estimate and the ``R*`` factorization per
  kept-column set, so between variance refreshes each localisation is a
  pair of triangular solves.  A refresh that changes the kept set by at
  most ``incremental_limit`` columns never refactorizes from scratch:
  a shrink — a watched link clearing — Givens-downdates the cached
  factorization
  (:meth:`~repro.core.linalg.QRFactorization.remove_column`); a growth
  — congestion churn re-flagging links — CGS2-updates it
  (:meth:`~repro.core.linalg.QRFactorization.add_column`) and reuses
  the phase-2 basis sweep (see :meth:`OnlineLossMonitor.cache_info`);
* every arriving snapshot is screened by a cheap **path-level z-score**
  against the window's running statistics; snapshots with anomalous
  paths trigger full LIA localisation;
* per-link congestion state is tracked across snapshots, emitting
  ``onset`` / ``cleared`` events with durations — the Section 7.2.2
  run-length analysis as a live signal.

The engine caches hold a fixed number of entries
(:data:`~repro.core.engine.CACHE_ENTRIES`), so monitor state stays
bounded over days of traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.engine import CacheInfo, InferenceEngine
from repro.core.variance import (
    VarianceEstimate,
    estimate_link_variances_from_moments,
)
from repro.probing.snapshot import Snapshot
from repro.topology.routing import RoutingMatrix


#: Every :class:`_RollingMoments` sum is re-summed from the stored window
#: once per this many pushes: rolling add/subtract accumulates float
#: drift, so each push re-sums one of this many fixed slices of the sums,
#: which bounds the drift without any push doing O(window * pairs) work.
MOMENTS_REBASE_INTERVAL = 64


class _RollingMoments:
    """Running per-path and per-equation sufficient statistics.

    Over the rolling window of log-rate vectors ``y_t`` — one
    zero-initialised path-major ring buffer ``(num_paths, window)`` — it
    maintains ``sum_t y``, ``sum_t y^2`` and ``sum_t y_i y_j`` for every
    intersecting path pair: enough to emit the exact sample covariances
    and path variances phase 1 consumes, in O(pairs) per snapshot
    instead of O(window x pairs) per refresh:

    ``cov_ij = (sum y_i y_j - m ybar_i ybar_j) / (m - 1)``

    which is algebraically the batch
    :func:`~repro.core.covariance.sample_covariance_pairs` formula (the
    batch path centers first, so the two agree to rounding, not to the
    byte — one reason the incremental path is monitor-only).
    """

    def __init__(self, pair_i: np.ndarray, pair_j: np.ndarray, num_paths: int, window: int):
        self._pair_i = pair_i
        self._pair_j = pair_j
        self._ring = np.zeros((num_paths, window), dtype=np.float64)
        self.sum_y = np.zeros(num_paths, dtype=np.float64)
        self.sum_sq = np.zeros(num_paths, dtype=np.float64)
        self.sum_pair = np.zeros(len(pair_i), dtype=np.float64)
        self.count = 0
        self._pushes = 0
        self._interval = MOMENTS_REBASE_INTERVAL
        # Reused pair re-sum gather buffers: fresh multi-megabyte temporaries
        # on every push cost more in page faults than the arithmetic.
        self._gather = np.empty((2, -(-len(pair_i) // self._interval), window))

    def push(self, y: np.ndarray) -> None:
        """Add one row, evict the column it overwrites (zeros until the
        window fills, which subtract exactly), then re-sum one slice."""
        i, j = self._pair_i, self._pair_j
        column = self._pushes % self._ring.shape[1]
        old = self._ring[:, column].copy()
        self._ring[:, column] = y
        self.sum_y += y - old
        self.sum_sq += y * y - old * old
        self.sum_pair += y[i] * y[j] - old[i] * old[j]
        self.count = min(self.count + 1, self._ring.shape[1])

        paths = self._stagger(len(self.sum_y))
        rows = self._ring[paths]
        self.sum_y[paths] = rows.sum(axis=1)
        self.sum_sq[paths] = np.einsum("pw,pw->p", rows, rows)
        pairs = self._stagger(len(self.sum_pair))
        left, right = self._gather[:, : pairs.stop - pairs.start]
        # mode="clip" lets take write straight into the buffers.
        np.take(self._ring, i[pairs], axis=0, out=left, mode="clip")
        np.take(self._ring, j[pairs], axis=0, out=right, mode="clip")
        self.sum_pair[pairs] = np.einsum("pw,pw->p", left, right)
        self._pushes += 1

    def _stagger(self, n: int) -> slice:
        """The fixed slice of ``n`` sums this push re-sums."""
        k, step = self._interval, self._pushes % self._interval
        return slice(n * step // k, n * (step + 1) // k)

    def path_means(self) -> np.ndarray:
        return self.sum_y / self.count

    def path_variances(self) -> np.ndarray:
        m = self.count
        var = (self.sum_sq - self.sum_y * self.sum_y / m) / (m - 1)
        # Rolling subtraction can push an exactly-constant path a few
        # ulps negative; variances are non-negative by definition.
        return np.maximum(var, 0.0)

    def pair_covariances(self) -> np.ndarray:
        m = self.count
        mean = self.sum_y / m
        return (
            self.sum_pair - m * mean[self._pair_i] * mean[self._pair_j]
        ) / (m - 1)


@dataclass(frozen=True)
class AnomalyEvent:
    """A state change of one link's congestion status."""

    time_index: int
    column: int
    kind: str  # "onset" | "cleared"
    inferred_loss_rate: float
    duration_snapshots: Optional[int] = None  # set on "cleared"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = (
            f" after {self.duration_snapshots} snapshots"
            if self.duration_snapshots is not None
            else ""
        )
        return (
            f"t={self.time_index}: link {self.column} {self.kind}"
            f" (loss {self.inferred_loss_rate:.4f}){extra}"
        )


@dataclass
class MonitorReport:
    """Outcome of feeding one snapshot to the monitor."""

    time_index: int
    screened_anomalous: bool
    anomalous_paths: np.ndarray
    events: List[AnomalyEvent] = field(default_factory=list)
    loss_rates: Optional[np.ndarray] = None


class OnlineLossMonitor:
    """Streaming LIA with path screening and link-state tracking.

    Parameters
    ----------
    routing:
        The (fixed) reduced routing matrix of the deployment.
    window:
        Rolling training-window length (the paper's m).
    refresh_interval:
        How many snapshots pass between variance refreshes once warm:
        the first warm snapshot re-learns variances, then one in every
        ``refresh_interval + 1`` (window 4 and 1 refresh at t = 3, 5,
        7, ...).
    congestion_threshold:
        Loss rate above which a link counts as congested (``t_l``).
    z_threshold:
        Path screening sensitivity: a path is anomalous when its log
        rate sits more than this many rolling standard deviations below
        its rolling mean.
    localize_always:
        Run LIA on every snapshot instead of only on screened ones
        (costlier, catches sub-threshold drift).
    incremental_limit:
        How many kept-set columns a variance refresh may remove or add
        while still reusing the cached ``R*`` factorization (Givens
        downdates / CGS2 column adds) and the phase-2 basis sweep.
        Larger limits absorb heavier congestion churn at the cost of
        longer update chains; 0 refactorizes on every kept-set change.

    Variance refreshes re-solve from the rolling sufficient statistics
    (and skip the solve when no equation went dirty).  The moments match
    the batch :meth:`InferenceEngine.learn_variances` over the same
    window to rounding, not to the byte.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        window: int = 50,
        refresh_interval: int = 10,
        congestion_threshold: float = 0.002,
        z_threshold: float = 4.0,
        localize_always: bool = False,
        incremental_limit: int = 2,
    ) -> None:
        if window < 2:
            raise ValueError("window must be at least 2")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be at least 1")
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        self.routing = routing
        self.window = window
        self.refresh_interval = refresh_interval
        self.congestion_threshold = congestion_threshold
        self.z_threshold = z_threshold
        self.localize_always = localize_always

        # Long-lived monitors opt into the incremental cache paths: a
        # refresh that exonerates or re-flags a link or two reuses the
        # cached R* factorization (and the phase-2 basis sweep) instead
        # of refactorizing.  (Off by default in the engine so batch
        # pipelines stay bit-identical.)
        self.engine = InferenceEngine(
            routing,
            congestion_threshold=congestion_threshold,
            incremental_limit=incremental_limit,
        )
        self._moments: Optional[_RollingMoments] = None
        self._estimate: Optional[VarianceEstimate] = None
        self._last_sigma: Optional[np.ndarray] = None
        self.variance_refreshes = 0
        self.variance_solves_skipped = 0
        self._since_refresh = 0
        self._time = -1
        self._congested_since: Dict[int, int] = {}

    # -- state queries -------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """True once the training window is full."""
        return self._moments is not None and self._moments.count >= self.window

    @property
    def factorization_downdates(self) -> int:
        """Refreshes absorbed by a Givens downdate instead of a fresh QR.

        Incremented when a variance refresh shrank the kept-column set
        within ``incremental_limit`` and the engine reused the previous
        ``R*`` factorization via column-removal downdates.  (One counter
        of the fuller :meth:`cache_info` picture.)
        """
        return self.engine.factorization_cache.downdates

    @property
    def factorization_updates(self) -> int:
        """Refreshes absorbed by CGS2 column adds instead of a fresh QR."""
        return self.engine.factorization_cache.updates

    def cache_info(self) -> Dict[str, CacheInfo]:
        """Hit/miss/update/downdate/eviction counters of both engine caches."""
        return self.engine.cache_info()

    def currently_congested(self) -> List[int]:
        return sorted(self._congested_since)

    def congestion_age(self, column: int) -> Optional[int]:
        """Snapshots since this link's current congestion onset."""
        onset = self._congested_since.get(column)
        if onset is None:
            return None
        return self._time - onset + 1

    # -- ingestion -------------------------------------------------------------

    def observe(self, snapshot: Snapshot) -> MonitorReport:
        """Feed one snapshot; returns screening + localisation outcome."""
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError("snapshot does not match routing matrix")
        self._time += 1
        anomalous = self._screen(snapshot)
        report = MonitorReport(
            time_index=self._time,
            screened_anomalous=bool(anomalous.any()),
            anomalous_paths=np.flatnonzero(anomalous),
        )

        if self._moments is None:
            self._moments = _RollingMoments(
                self.engine.pairs.pair_i,
                self.engine.pairs.pair_j,
                self.routing.num_paths,
                self.window,
            )
        self._moments.push(snapshot.path_log_rates())
        if not self.is_warm:
            return report

        if self._estimate is None or self._since_refresh >= self.refresh_interval:
            self._refresh_estimate()
            self._since_refresh = 0
        else:
            self._since_refresh += 1

        if self.localize_always or report.screened_anomalous or self._congested_since:
            # The engine's reduction memo and factorization cache make
            # this a pair of triangular solves between variance refreshes.
            result = self.engine.infer(snapshot, self._estimate)
            report.loss_rates = result.loss_rates
            report.events = self._update_states(result.loss_rates)
        return report

    def _refresh_estimate(self) -> None:
        """Re-learn link variances from the current window."""
        self.variance_refreshes += 1
        sigma = self._moments.pair_covariances()
        if self._last_sigma is not None and np.array_equal(sigma, self._last_sigma):
            # No covariance equation went dirty since the last
            # solve; the estimate is still exact.
            self.variance_solves_skipped += 1
            return
        self._estimate = estimate_link_variances_from_moments(
            self.engine.pairs,
            sigma,
            self._moments.path_variances(),
            self._moments.count,
            method=self.engine.variance_method,
            drop_negative=self.engine.drop_negative,
        )
        self._last_sigma = sigma

    def _screen(self, snapshot: Snapshot) -> np.ndarray:
        """Cheap per-path z-score against the rolling window."""
        if self._moments is None or self._moments.count < 2:
            return np.zeros(snapshot.num_paths, dtype=bool)
        mean = self._moments.path_means()
        std = np.maximum(np.sqrt(self._moments.path_variances()), 1e-6)
        z = (snapshot.path_log_rates() - mean) / std
        return z < -self.z_threshold

    def _update_states(self, loss_rates: np.ndarray) -> List[AnomalyEvent]:
        events: List[AnomalyEvent] = []
        congested_now = set(
            int(c) for c in np.flatnonzero(loss_rates > self.congestion_threshold)
        )
        for column in sorted(congested_now - set(self._congested_since)):
            self._congested_since[column] = self._time
            events.append(
                AnomalyEvent(
                    time_index=self._time,
                    column=column,
                    kind="onset",
                    inferred_loss_rate=float(loss_rates[column]),
                )
            )
        for column in sorted(set(self._congested_since) - congested_now):
            onset = self._congested_since.pop(column)
            events.append(
                AnomalyEvent(
                    time_index=self._time,
                    column=column,
                    kind="cleared",
                    inferred_loss_rate=float(loss_rates[column]),
                    duration_snapshots=self._time - onset,
                )
            )
        return events
