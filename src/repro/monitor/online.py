"""Online monitoring and anomaly detection — the paper's second extension.

"A second extension is the detection of anomalies in the network, from a
few vantage points.  The inference method is fast and so could have
potential for such problems."  This module packages LIA as the long-
running service that sentence implies:

* a **rolling window** of the last ``window`` snapshots, one path-major
  ring buffer (:class:`_RollingMoments`), with per-path running sums
  kept in O(paths) per snapshot for screening.  Each push also re-sums
  one fixed slice of those sums from the ring, so every sum is exact
  again once per :data:`MOMENTS_REBASE_INTERVAL` pushes.  A variance
  refresh — once every ``refresh_interval + 1`` snapshots — computes
  every intersecting pair's covariance from the ring, from link-group
  Gram blocks kept per quarter of the ring (a quarter's are computed
  once, when its last column is written), and hands them to
  :func:`~repro.core.variance.estimate_link_variances_from_moments`;
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
  (:meth:`~repro.core.linalg.QRFactorization.add_column`).  The phase-2
  basis sweep is reused across both: a cached basis keeps covering the
  columns a shrink dropped, so a later growth offers only the columns
  it has never spanned (see :meth:`OnlineLossMonitor.cache_info`);
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

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.augmented import IntersectingPairs
from repro.core.engine import CacheInfo, InferenceEngine
from repro.core.variance import (
    VarianceEstimate,
    estimate_link_variances_from_moments,
)
from repro.probing.snapshot import Snapshot
from repro.topology.routing import RoutingMatrix


#: Every :class:`_RollingMoments` path sum is re-summed from the stored
#: window once per this many pushes: rolling add/subtract accumulates
#: float drift, so each push re-sums one of this many fixed slices of the
#: sums, which bounds the drift without any push re-reading the window.
MOMENTS_REBASE_INTERVAL = 64

#: The ring's columns fall into this many chunks.  A chunk's Gram blocks
#: are computed when its last column is written, so a refresh recomputes
#: only the newest chunk; a push that completes a chunk pays
#: 1 / _GRAM_CHUNKS of a full Gram.
_GRAM_CHUNKS = 4


class _RollingMoments:
    """The rolling window, its running path sums and its pair covariances.

    The last ``window`` log-rate vectors live in one zero-initialised
    path-major ring buffer, split into column chunks of shape
    ``(num_paths, chunk)``, each path stored as ``y = y_t - y_0``,
    relative to its first observation: the shift leaves covariances
    unchanged, stores a constant path as exact zeros and keeps the
    raw-sum formulas below from cancelling.  ``sum y`` and ``sum y^2``
    are kept per path in O(paths) per push for screening.

    Pair covariances, read only at a variance refresh, are computed from
    the ring: ``cov_ij = (sum y_i y_j - m ybar_i ybar_j) / (m - 1)``.
    Every intersecting pair has a first shared link ``l`` (the first
    column of its row of ``pairs``), so ``sum y_i y_j`` is an
    entry of the Gram block ``Y[g] Y[g]^T`` over the paths ``g`` through
    ``l``: one batched product per group size, scattered to the pair
    rows by an index plan built once.  The blocks are summed over the
    :data:`_GRAM_CHUNKS` chunks, each recomputed in full when its last
    column is written (the newest also at a refresh): never updated by
    rolling add/subtract, so they carry no drift.  The batch
    :func:`~repro.core.covariance.sample_covariance_pairs` sums in
    another order, so the two agree to rounding, not to the byte.
    """

    def __init__(
        self, routing_matrix: np.ndarray, pairs: IntersectingPairs, window: int
    ) -> None:
        num_paths, num_links = routing_matrix.shape
        self._window = window
        # Ring column c lives in chunk c // self._chunk, each chunk its own
        # contiguous (num_paths, chunk) block.
        self._chunk = -(-window // _GRAM_CHUNKS)
        chunks = -(-window // self._chunk)
        self._ring = np.zeros((chunks, num_paths, self._chunk), dtype=np.float64)
        self._origin: Optional[np.ndarray] = None
        self.sum_y = np.zeros(num_paths, dtype=np.float64)
        self.sum_sq = np.zeros(num_paths, dtype=np.float64)
        self.count = 0
        self._pushes = 0
        self._interval = MOMENTS_REBASE_INTERVAL

        # Incidences grouped by link, paths ascending within each group.
        links, paths = np.nonzero(routing_matrix.T)
        sizes = np.bincount(links, minlength=num_links)
        starts = np.cumsum(sizes) - sizes
        # Per group size: the (links, size) path indices and the offset of
        # its (links, size, size) Gram stack in one flat buffer.
        self._blocks, offset = [], 0
        block_start = np.zeros(num_links, dtype=np.int64)
        for size in np.unique(sizes[sizes > 0]):
            members = np.flatnonzero(sizes == size)
            self._blocks.append((paths[starts[members, None] + np.arange(size)], offset))
            block_start[members] = offset + size * size * np.arange(members.size)
            offset += members.size * size * size
        self._chunk_grams = np.zeros((chunks, offset))
        # Reused gather buffer: fresh multi-megabyte temporaries cost more
        # in page faults than the arithmetic.
        self._stack = np.empty(max(p.size for p, _ in self._blocks) * self._chunk)
        # Each pair's entry (position of i, position of j) in the Gram
        # block of its first shared link.
        self._pair_i, self._pair_j = pairs.pair_i, pairs.pair_j
        first = pairs.indices[pairs.indptr[:-1]]
        incidence = links * num_paths + paths
        row_i, row_j = (
            np.searchsorted(incidence, first * num_paths + p) - starts[first]
            for p in (pairs.pair_i, pairs.pair_j)
        )
        self._pair_entry = block_start[first] + row_i * sizes[first] + row_j

    def push(self, y: np.ndarray) -> None:
        """Add one row, evict the column it overwrites (zeros until the
        window fills, which subtract exactly), then re-sum one slice."""
        if self._origin is None:
            self._origin = np.array(y, dtype=np.float64)
        y = y - self._origin
        column = self._pushes % self._window
        chunk, position = divmod(column, self._chunk)
        old = self._ring[chunk, :, position].copy()
        self._ring[chunk, :, position] = y
        self.sum_y += y - old
        self.sum_sq += y * y - old * old
        self.count = min(self.count + 1, self._window)
        if position == self._chunk - 1 or column == self._window - 1:
            self._chunk_gram(chunk)

        k, step = self._interval, self._pushes % self._interval
        n = len(self.sum_y)
        paths = slice(n * step // k, n * (step + 1) // k)
        rows = self._ring[:, paths]
        self.sum_y[paths] = rows.sum(axis=(0, 2))
        self.sum_sq[paths] = np.einsum("cpw,cpw->p", rows, rows)
        self._pushes += 1

    def path_means(self) -> np.ndarray:
        return self._origin + self.sum_y / self.count

    def path_variances(self) -> np.ndarray:
        m = self.count
        var = (self.sum_sq - self.sum_y * self.sum_y / m) / (m - 1)
        # Rolling subtraction can push a near-constant path a few ulps
        # negative; variances are non-negative by definition.
        return np.maximum(var, 0.0)

    def _chunk_gram(self, chunk: int) -> None:
        """Recompute one chunk's Gram blocks from its ring columns."""
        for paths, offset in self._blocks:
            links, size = paths.shape
            block = self._stack[: paths.size * self._chunk].reshape(links, size, -1)
            np.take(self._ring[chunk], paths, axis=0, out=block, mode="clip")
            gram = self._chunk_grams[chunk, offset : offset + links * size * size]
            np.matmul(
                block, block.transpose(0, 2, 1), out=gram.reshape(links, size, size)
            )

    def pair_covariances(self) -> np.ndarray:
        """Every intersecting pair's sample covariance over the window."""
        # Every chunk but the newest was computed when it filled up.
        self._chunk_gram((self._pushes - 1) % self._window // self._chunk)
        # Columns not yet pushed are zeros and add nothing.
        sums = self._chunk_grams.sum(axis=0)[self._pair_entry]
        m = self.count
        mean = self.sum_y / m
        return (sums - m * mean[self._pair_i] * mean[self._pair_j]) / (m - 1)


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
        downdates / CGS2 column adds), and how many columns outside a
        cached phase-2 basis's span it may offer instead of re-running
        the sweep.  Larger limits absorb heavier congestion churn at the
        cost of longer update chains; 0 refactorizes on every kept-set
        change.

    Each variance refresh computes the pair covariances from the window
    and re-solves phase 1.  The moments match the batch
    :meth:`InferenceEngine.learn_variances` over the same window to
    rounding, not to the byte.
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
        for name, value in (("window", window), ("refresh_interval", refresh_interval)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if window < 2:
            raise ValueError("window must be at least 2")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be at least 1")
        if not (math.isfinite(z_threshold) and z_threshold > 0):
            raise ValueError(
                f"z_threshold must be finite and positive, got {z_threshold!r}"
            )
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
        self._moments = _RollingMoments(routing.matrix, self.engine.pairs, window)
        self._estimate: Optional[VarianceEstimate] = None
        self.variance_refreshes = 0
        self._since_refresh = 0
        self._time = -1
        # Per link: the time index of its current congestion onset, or -1.
        self._onset = np.full(routing.num_links, -1, dtype=np.int64)

    # -- state queries -------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """True once the training window is full."""
        return self._moments.count >= self.window

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
        return np.flatnonzero(self._onset >= 0).tolist()

    def congestion_age(self, column: int) -> Optional[int]:
        """Snapshots since this link's current congestion onset."""
        onset = int(self._onset[column])
        if onset < 0:
            return None
        return self._time - onset + 1

    # -- ingestion -------------------------------------------------------------

    def observe(self, snapshot: Snapshot) -> MonitorReport:
        """Feed one snapshot; returns screening + localisation outcome."""
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError("snapshot does not match routing matrix")
        self._time += 1
        y = snapshot.path_log_rates()
        anomalous = self._screen(y)
        report = MonitorReport(
            time_index=self._time,
            screened_anomalous=bool(anomalous.any()),
            anomalous_paths=np.flatnonzero(anomalous),
        )
        self._moments.push(y)
        if not self.is_warm:
            return report

        if self._estimate is None or self._since_refresh >= self.refresh_interval:
            self._refresh_estimate()
            self._since_refresh = 0
        else:
            self._since_refresh += 1

        if self.localize_always or report.screened_anomalous or (self._onset >= 0).any():
            # The engine's reduction memo and factorization cache make
            # this a pair of triangular solves between variance refreshes.
            result = self.engine.infer(snapshot, self._estimate)
            report.loss_rates = result.loss_rates
            report.events = self._update_states(result.loss_rates)
        return report

    def _refresh_estimate(self) -> None:
        """Re-learn link variances from the current window."""
        self.variance_refreshes += 1
        self._estimate = estimate_link_variances_from_moments(
            self.engine.pairs,
            self._moments.pair_covariances(),
            self._moments.path_variances(),
            self._moments.count,
            method=self.engine.variance_method,
            drop_negative=self.engine.drop_negative,
        )

    def _screen(self, y: np.ndarray) -> np.ndarray:
        """Cheap per-path z-score of log rates *y* against the rolling window."""
        if self._moments.count < 2:
            return np.zeros(len(y), dtype=bool)
        mean = self._moments.path_means()
        std = np.maximum(np.sqrt(self._moments.path_variances()), 1e-6)
        return (y - mean) / std < -self.z_threshold

    def _update_states(self, loss_rates: np.ndarray) -> List[AnomalyEvent]:
        congested = loss_rates > self.congestion_threshold
        was = self._onset >= 0
        onsets = np.flatnonzero(congested & ~was)
        cleared = np.flatnonzero(was & ~congested)
        self._onset[onsets] = self._time
        events = [
            AnomalyEvent(
                time_index=self._time,
                column=int(column),
                kind="onset",
                inferred_loss_rate=float(loss_rates[column]),
            )
            for column in onsets
        ]
        events.extend(
            AnomalyEvent(
                time_index=self._time,
                column=int(column),
                kind="cleared",
                inferred_loss_rate=float(loss_rates[column]),
                duration_snapshots=self._time - int(self._onset[column]),
            )
            for column in cleared
        )
        self._onset[cleared] = -1
        return events
