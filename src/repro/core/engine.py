"""The Loss Inference Algorithm (LIA), Section 5.3, and its caches.

LIA is two phases over one routing matrix::

    Input:  reduced routing matrix R and m + 1 snapshots
    Phase 1: solve Sigma_hat* = A v for the link variances v
    Phase 2: sort links by variance; drop lowest-variance columns until
             R* has full column rank; solve Y = R* X* on the (m+1)-th
             snapshot; removed links get transmission rate ~ 1

The paper stresses that "the inference method is fast": after the
augmented matrix ``A`` is built once per network, per-snapshot inference
should cost little more than a pair of triangular solves.
:class:`InferenceEngine` (exported under the paper's name as
``LossInferenceAlgorithm`` too) owns the cached
:class:`~repro.core.augmented.IntersectingPairs` and remembers two
things, one entry each: the last phase-2 reduction, keyed by (variance
vector, cutoff) (:class:`ReductionCache`), and the last thin QR
factorization of ``R*``, keyed by the kept-column set
(:class:`FactorizationCache`).  The reduced system is
solved in one place, :meth:`FactorizationCache.solve`: single
snapshots, :meth:`InferenceEngine.infer_batch` (a whole window as one
multi-RHS triangular solve) and :func:`infer_many` (many independent
trees in one pass) all call it.  An engine with ``incremental_limit >
0`` (the online monitor's) already answers only to working precision,
so its solve uses corrected semi-normal equations on ``R`` and the kept
block's nonzeros instead of the ``Q^T`` product; every other engine
solves through ``Q``.  The delay and monitoring layers reuse the same
caches.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as scipy_linalg

from repro.core.augmented import IntersectingPairs, intersecting_pairs
from repro.core.linalg import (
    IncrementalColumnBasis,
    QRFactorization,
    basis_sweep,
    column_source,
    dense_column,
    solve_upper_triangular,
)
from repro.core.reduction import (
    REDUCTION_STRATEGIES,
    ReductionResult,
    reduce_to_full_rank,
    threshold_candidates,
)
from repro.core.variance import (
    VARIANCE_METHODS,
    VarianceEstimate,
    estimate_link_variances,
)
from repro.probing.snapshot import MeasurementCampaign, Snapshot, continuity_floor
from repro.topology.routing import RoutingMatrix
from repro.utils import check_count, check_real

#: Below this reciprocal condition estimate of ``R``
#: (:attr:`~repro.core.linalg.QRFactorization.rcond`) an incremental
#: engine solves through ``Q`` instead of by corrected semi-normal
#: equations.  After one correction step the CSNE error tracks QR's on a
#: consistent system and grows like ``u cond(R*)^2`` with a residual
#: (Björck 1987), so it stays small while that product is well below 1:
#: at this floor it is about 1e-4.  ``tests/test_monitor_solve.py`` pins
#: both sides of the line.
CSNE_MIN_RCOND = 1e-6


@dataclass(frozen=True)
class LIAResult:
    """Inferred link performance for one snapshot."""

    transmission_rates: np.ndarray  # per routing-matrix column, in (0, 1]
    variance_estimate: VarianceEstimate
    reduction: ReductionResult

    @property
    def loss_rates(self) -> np.ndarray:
        return 1.0 - self.transmission_rates

    @property
    def num_links(self) -> int:
        return int(self.transmission_rates.shape[0])

    def congested_links(self, threshold: float) -> np.ndarray:
        """Boolean mask of links whose inferred loss rate exceeds *threshold*."""
        return self.loss_rates > threshold


@dataclass(frozen=True)
class CacheInfo:
    """One engine cache's counters, in ``functools``-style spirit.

    ``updates`` counts requests absorbed by an incremental update
    (column adds for the factorization cache, sweep-free reuse for the
    reduction cache), ``downdates`` by Givens column removals;
    ``misses`` are the requests that paid full price.
    """

    hits: int
    misses: int
    updates: int
    downdates: int

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class _LastEntryCache:
    """The one-entry store and the counters both engine caches share.

    Holds the routing matrix as given (uint8 for a
    :class:`~repro.topology.routing.RoutingMatrix`), reading float64
    columns out of it on demand, and the last request's key and entry:
    a request is a hit only when it repeats the last one, and every
    other request replaces it.  *incremental_limit* is how many columns
    a request may differ from the last entry and still be served from it
    incrementally; 0 turns incremental reuse off.
    """

    def __init__(self, matrix, incremental_limit: int = 0) -> None:
        if check_count("incremental_limit", incremental_limit) < 0:
            raise ValueError("incremental_limit must be non-negative")
        self._matrix = column_source(matrix)
        self.incremental_limit = incremental_limit
        self._key = None
        self._entry = None
        self.hits = 0
        self.misses = 0
        self.updates = 0
        self.downdates = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            updates=self.updates,
            downdates=self.downdates,
        )

    def _lookup(self, key):
        """The last entry if *key* repeats its key (counted as a hit),
        or ``None``."""
        if key != self._key:
            return None
        self.hits += 1
        return self._entry

    def _store(self, key, entry) -> None:
        self._key, self._entry = key, entry


@dataclass
class _FactorizationEntry:
    """One cached factorization and, once a semi-normal solve has read
    them, the nonzeros of its kept block: path rows, positions in the
    kept set and values.  The two are replaced together."""

    factorization: QRFactorization
    nonzeros: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


class FactorizationCache(_LastEntryCache):
    """The thin QR factorization of the last kept-column block ``R*``.

    Hands out :class:`~repro.core.linalg.QRFactorization` objects keyed
    by the kept-column index set.  Consecutive inferences with the same
    kept set — rolling-window monitoring, consecutive-snapshot
    experiments, every batch — pay for one factorization total, and
    :meth:`solve` is the one solve of the reduced system ``Y = R* X*``.

    With ``incremental_limit > 0``, a request that differs from the last
    kept set by at most that many columns is served by revising the last
    factorization (:meth:`_revise`) instead of refactorizing from
    scratch.  A subset — the rolling-monitor pattern where a variance
    refresh exonerates a link or two — is *downdated* with Givens
    rotations (:meth:`~repro.core.linalg.QRFactorization.remove_column`):
    O(m k) per removed column versus O(m k^2) for a fresh QR.  A superset
    — congestion churn, where links re-enter the kept set — is grown by
    CGS2 column adds (:meth:`~repro.core.linalg.QRFactorization.add_column`).
    Updated/downdated factors equal a fresh QR only to working
    precision, and so does the solve of such an engine: with the limit
    above 0 it never reads ``Q`` for a well-conditioned ``R*`` (see
    :meth:`solve`).  Batch experiment pipelines keep the limit at 0 and
    stay bit-identical to a cold engine.
    """

    def __init__(self, matrix, incremental_limit: int = 0) -> None:
        super().__init__(matrix, incremental_limit)
        # (columns, rows, values) of every nonzero, column-major; read
        # on the first semi-normal solve.
        self._nonzeros: Optional[Tuple[np.ndarray, ...]] = None

    def block(self, kept: np.ndarray) -> np.ndarray:
        """The float64 kept-column block ``R*`` in Fortran order (LAPACK's
        layout), gathered from the matrix's transpose in one fancy index;
        the full matrix is never converted."""
        return self._matrix.T[np.asarray(kept, dtype=np.int64)].astype(np.float64).T

    def solve(self, kept: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Least-squares ``R* x = rhs`` for this kept-column set.

        *rhs* is one vector ``(n_p,)`` or a multi-RHS block ``(n_p, s)``.
        A full-rank ``R*`` is solved through its cached factorization.
        With ``incremental_limit`` at 0 that is one ``Q^T`` product and
        one triangular solve.  Above 0, and while ``R`` is no worse
        conditioned than :data:`CSNE_MIN_RCOND` allows, it is the
        corrected semi-normal equations instead, which read ``R`` and
        the kept block's nonzeros but not the ``n_p x k`` ``Q``::

            x0 = R^-1 R^-T (R*^T y)
            x  = x0 + R^-1 R^-T (R*^T (y - R* x0))

        A rank-deficient kept set (only a hand-built reduction has one,
        possibly with more columns than rows) gets the minimum-norm
        ``lstsq`` answer on the dense block instead.
        """
        if rhs.shape[0] != self._matrix.shape[0]:
            raise ValueError(
                f"rhs has {rhs.shape[0]} rows; R* has {self._matrix.shape[0]}"
            )
        kept = np.asarray(kept, dtype=np.int64)
        if len(kept) == 0:
            return np.zeros((0,) + rhs.shape[1:], dtype=np.float64)
        if len(kept) <= rhs.shape[0]:
            factorization = self.factorization(kept)
            if factorization.full_rank:
                if (
                    self.incremental_limit
                    and factorization.rcond >= CSNE_MIN_RCOND
                ):
                    return self._solve_seminormal(kept, factorization, rhs)
                return solve_upper_triangular(
                    factorization.r, factorization.q.T @ rhs
                )
        x, *_ = np.linalg.lstsq(self.block(kept), rhs, rcond=None)
        return x

    def _solve_seminormal(
        self, kept: np.ndarray, factorization: QRFactorization, rhs: np.ndarray
    ) -> np.ndarray:
        """:meth:`solve`'s corrected semi-normal equations, for a 1-D or
        2-D *rhs*: each product with ``R*`` or ``R*^T`` is one
        ``bincount`` over the kept block's nonzeros, each ``R^-T`` and
        ``R^-1`` one ``trtrs``."""
        rows, positions, values = self._kept_nonzeros(kept)
        r = factorization.r
        num_rows, k = rhs.shape[0], factorization.num_columns
        y = rhs.reshape(num_rows, -1)
        lanes = y.shape[1]
        if lanes == 1:
            row_bins, column_bins = rows, positions
        else:
            offsets = np.arange(lanes)
            row_bins = (rows[:, None] * lanes + offsets).ravel()
            column_bins = (positions[:, None] * lanes + offsets).ravel()
            values = np.repeat(values, lanes)

        def normal_solve(residual: np.ndarray) -> np.ndarray:
            # R^-1 R^-T (R*^T residual)
            g = np.bincount(
                column_bins,
                weights=values * residual[rows].ravel(),
                minlength=k * lanes,
            ).reshape(k, lanes)
            return solve_upper_triangular(
                r, solve_upper_triangular(r, g, transpose=True)
            )

        x = normal_solve(y)
        fitted = np.bincount(
            row_bins, weights=values * x[positions].ravel(), minlength=y.size
        ).reshape(y.shape)
        x += normal_solve(y - fitted)
        return x.reshape((k,) + rhs.shape[1:])

    def _kept_nonzeros(
        self, kept: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept block's nonzeros, stored with the entry
        :meth:`factorization` just returned for *kept*: the matrix's
        nonzeros (read once per cache) masked through a
        column-to-kept-position map, never a scan of the block."""
        entry = self._entry
        if entry.nonzeros is None:
            if self._nonzeros is None:
                columns, rows = np.nonzero(self._matrix.T)
                values = np.asarray(
                    self._matrix[rows, columns], dtype=np.float64
                ).reshape(-1)
                self._nonzeros = (columns, rows, values)
            columns, rows, values = self._nonzeros
            position = np.full(self._matrix.shape[1], -1, dtype=np.int64)
            position[kept] = np.arange(len(kept))
            local = position[columns]
            mask = local >= 0
            entry.nonzeros = (rows[mask], local[mask], values[mask])
        return entry.nonzeros

    def factorization(self, kept: np.ndarray) -> QRFactorization:
        """The (cached) thin QR of ``R*`` for this kept-column set."""
        kept = np.asarray(kept, dtype=np.int64)
        key = kept.tobytes()
        cached = self._lookup(key)
        if cached is not None:
            return cached.factorization
        factorization = self._revise(kept)
        if factorization is None:
            self.misses += 1
            factorization = QRFactorization.factorize(
                self.block(kept), columns=kept
            )
        self._store(key, _FactorizationEntry(factorization))
        return factorization

    def _revise(self, kept: np.ndarray) -> Optional[QRFactorization]:
        """Revise the last factorization into *kept*'s, if it is close.

        *kept* may drop at most ``incremental_limit`` of the last
        full-rank factorization's columns, which are Givens-downdated
        out, or add at most that many, which are offered one CGS2 column
        add at a time in sorted position.  Returns ``None`` — the caller
        then refactorizes from scratch — for any other request, on a
        (numerically) dependent added column, when the revised column
        order is not *kept*'s (the engine's kept arrays are sorted; a
        hand-built unsorted request is not), or when the revised
        factorization lost full rank.
        """
        if not self.incremental_limit or self._entry is None:
            return None
        factorization = self._entry.factorization
        wanted = tuple(int(c) for c in kept)
        dropped = set(factorization.columns).difference(wanted)
        added = set(wanted).difference(factorization.columns)
        if (
            bool(dropped) == bool(added)  # not purely a shrink or a growth
            or len(dropped) + len(added) > self.incremental_limit
            or not factorization.full_rank
        ):
            return None
        for position in reversed(
            [i for i, c in enumerate(factorization.columns) if c in dropped]
        ):
            factorization = factorization.remove_column(position)
        for column in sorted(added):
            position = int(
                np.searchsorted(
                    np.asarray(factorization.columns, dtype=np.int64), column
                )
            )
            try:
                factorization = factorization.add_column(
                    dense_column(self._matrix, column), column, position
                )
            except scipy_linalg.LinAlgError:
                return None
        if factorization.columns != wanted or not factorization.full_rank:
            return None
        if dropped:
            self.downdates += 1
        else:
            self.updates += 1
        return factorization


@dataclass
class _ReductionEntry:
    """One memoized reduction plus the state incremental reuse needs.

    ``candidates`` is the threshold strategy's descending-variance scan
    order (``None`` for other strategies or when incremental reuse is
    off).  When the sweep kept every candidate, ``basis`` is an
    orthonormal basis of the columns in ``span``: the kept columns plus,
    after a shrink, the columns the shrink dropped (an entry shares its
    parent's basis then, and no basis is mutated once stored).
    Otherwise both are ``None``.
    """

    result: ReductionResult
    candidates: Optional[np.ndarray] = None
    basis: Optional[IncrementalColumnBasis] = None
    span: Optional[frozenset] = None


class ReductionCache(_LastEntryCache):
    """The last phase-2 column reduction for one routing matrix.

    Keyed by (strategy, variance vector, cutoff): a rolling monitor — or
    any consumer re-inferring against one variance estimate — re-reduces
    only when the estimate or a reduction knob actually changes.  Shared
    by :class:`InferenceEngine` and the delay layer
    (:class:`repro.delay.inference.DelayInferenceAlgorithm`).

    With ``incremental_limit > 0`` the ``"threshold"`` strategy also
    reuses *across* variance vectors.  It then runs the strategy's two
    steps itself —
    :func:`~repro.core.reduction.threshold_candidates` and
    :func:`~repro.core.linalg.basis_sweep`, the bodies
    :func:`~repro.core.reduction.reduce_to_full_rank` runs — and keeps
    the candidates and the sweep's basis.  A refresh whose above-cutoff
    candidate set matches the last one reuses its sweep outright, and
    one with at most ``incremental_limit`` columns outside the last
    all-accepted entry's span offers only those columns against a copy
    of its orthonormal basis — O(n_p k) per column instead of the
    O(n_p k^2) full basis sweep.  A shrink offers nothing and keeps the
    parent's basis, so the next growth back does not sweep either.  Near
    the 1e-9 independence tolerance the offer order can differ from a
    cold sweep's, so batch pipelines keep the limit at 0 and stay
    bit-identical.
    """

    def reduce(
        self,
        variances: np.ndarray,
        strategy: str,
        variance_cutoff: Optional[float] = None,
    ) -> ReductionResult:
        """The (memoized) reduction for one variance vector."""
        variances = np.asarray(variances, dtype=np.float64)
        key = (strategy, variances.tobytes(), variance_cutoff)
        cached = self._lookup(key)
        if cached is not None:
            return cached.result
        entry = None
        if (
            self.incremental_limit
            and strategy == "threshold"
            and variance_cutoff is not None
            and variance_cutoff > 0
        ):
            candidates = threshold_candidates(variances, variance_cutoff)
            entry = self._reuse(candidates)
            if entry is not None:
                self.updates += 1
            else:
                self.misses += 1
                kept, basis = basis_sweep(self._matrix, candidates)
                entry = _ReductionEntry(
                    result=ReductionResult.from_kept(
                        kept, self._matrix.shape[1], "threshold"
                    ),
                    candidates=candidates,
                )
                if len(kept) == len(candidates):
                    entry.basis, entry.span = basis, frozenset(kept)
        if entry is None:
            self.misses += 1
            entry = _ReductionEntry(
                result=reduce_to_full_rank(
                    self._matrix,
                    variances,
                    strategy=strategy,
                    variance_cutoff=variance_cutoff,
                )
            )
        self._store(key, entry)
        return entry.result

    # -- threshold-strategy incremental reuse --------------------------------

    def _reuse(self, candidates: np.ndarray) -> Optional[_ReductionEntry]:
        """Serve a new candidate set from the last sweep, if it covers it.

        The last entry covers *candidates* when at most
        ``incremental_limit`` of them lie outside its span.  Those are
        offered against a copy of its basis; if each enlarges the span,
        the candidates are a subset of an independent set and a cold
        sweep — in any scan order — would keep all of them.  A rejection
        means the cold sweep could keep a different subset, so the
        caller runs the sweep.
        """
        entry = self._entry
        if entry is None or entry.candidates is None:
            return None
        if entry.candidates.tobytes() == candidates.tobytes():
            # Identical scan — identical sweep, basis and all.
            return entry
        if entry.basis is None:
            return None
        cand_set = frozenset(int(c) for c in candidates)
        outside = sorted(cand_set - entry.span)
        if len(outside) > self.incremental_limit:
            return None
        basis = entry.basis
        if outside:
            basis = copy.deepcopy(basis)
            if not all(
                basis.try_add(dense_column(self._matrix, c)) for c in outside
            ):
                return None
        return _ReductionEntry(
            result=ReductionResult.from_kept(
                cand_set, self._matrix.shape[1], "threshold"
            ),
            candidates=candidates,
            basis=basis,
            span=entry.span.union(outside),
        )


class InferenceEngine:
    """LIA bound to one routing matrix, every reusable intermediate cached.

    Parameters
    ----------
    routing:
        The reduced routing matrix (Section 3.1 object).
    variance_method:
        Phase-1 solver, see :data:`repro.core.variance.VARIANCE_METHODS`.
    reduction_strategy:
        Phase-2 column selection: ``"threshold"`` (default), ``"gap"``,
        ``"paper"`` or ``"greedy"`` — see :mod:`repro.core.reduction`.
    drop_negative:
        Drop negative sample-covariance equations (paper behaviour).
    floor:
        Continuity floor for log transforms (default ``0.5 / S``).
    congestion_threshold, cutoff_scale:
        Parameters of the default ``"threshold"`` reduction: the loss
        rate ``t_l`` separating good from congested links and the safety
        factor on the implied variance cutoff ``cutoff_scale * t_l / S``
        (S is read off each snapshot).  The default scale of 16 sits well
        above the good-link variance band (~2 t_l / S with burstiness)
        yet a factor of ~5 below the variance of the mildest congested
        link the LLRD models produce, and is validated across scales in
        the ablation benchmarks.
    incremental_limit:
        How many columns a kept set may differ from the last one and
        still be served incrementally: Givens downdates and CGS2 column
        adds of the cached ``R*`` factorization, and sweep-free reuse of
        the phase-2 reduction.  Above 0 the reduced system is also
        solved by corrected semi-normal equations
        (:meth:`FactorizationCache.solve`).  Incremental answers equal a
        fresh computation only to working precision, so the default 0
        keeps batch pipelines bit-identical;
        :class:`repro.monitor.OnlineLossMonitor` sets 2.
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
        incremental_limit: int = 0,
    ) -> None:
        if variance_method not in VARIANCE_METHODS:
            raise ValueError(f"unknown variance method {variance_method!r}")
        if reduction_strategy not in REDUCTION_STRATEGIES:
            raise ValueError(f"unknown reduction strategy {reduction_strategy!r}")
        if not 0 < congestion_threshold < 1:
            raise ValueError("congestion_threshold must be in (0, 1)")
        if check_real("cutoff_scale", cutoff_scale) <= 0:
            raise ValueError("cutoff_scale must be positive")
        self.routing = routing
        self.variance_method = variance_method
        self.reduction_strategy = reduction_strategy
        self.drop_negative = drop_negative
        self.floor = floor
        self.congestion_threshold = congestion_threshold
        self.cutoff_scale = cutoff_scale
        self._pairs: Optional[IntersectingPairs] = None
        self._factorizations = FactorizationCache(
            routing.matrix, incremental_limit
        )
        self._reductions = ReductionCache(routing.matrix, incremental_limit)

    # -- cached structures ----------------------------------------------------

    @property
    def pairs(self) -> IntersectingPairs:
        """The (cached) non-zero rows of the augmented matrix A."""
        if self._pairs is None:
            self._pairs = intersecting_pairs(self.routing.matrix)
        return self._pairs

    @pairs.setter
    def pairs(self, value: IntersectingPairs) -> None:
        """Adopt a pre-built structure (a monitoring service hands it down)."""
        if value.num_links != self.routing.num_links:
            raise ValueError("pairs do not match the routing matrix")
        self._pairs = value

    @property
    def factorization_cache(self) -> FactorizationCache:
        return self._factorizations

    def cache_info(self) -> Dict[str, CacheInfo]:
        """Counters of both engine caches, keyed by cache name."""
        return {
            "factorization": self._factorizations.cache_info(),
            "reduction": self._reductions.cache_info(),
        }

    # -- phase 1 ----------------------------------------------------------------

    def learn_variances(self, training: MeasurementCampaign) -> VarianceEstimate:
        """Estimate link variances from the m training snapshots."""
        if training.routing is not self.routing and not np.array_equal(
            training.routing.matrix, self.routing.matrix
        ):
            raise ValueError("campaign routing matrix differs from LIA's")
        return estimate_link_variances(
            training,
            method=self.variance_method,
            drop_negative=self.drop_negative,
            floor=self.floor,
            pairs=self.pairs,
        )

    # -- phase 2 ----------------------------------------------------------------

    def variance_cutoff(self, num_probes: int) -> Optional[float]:
        """The threshold strategy's physics cutoff for this probe count."""
        if self.reduction_strategy != "threshold":
            return None
        return self.cutoff_scale * self.congestion_threshold / num_probes

    def reduce(
        self, estimate: VarianceEstimate, num_probes: int
    ) -> ReductionResult:
        """Memoized phase-2 reduction for one variance estimate.

        Delegates to the shared :class:`ReductionCache`, so a rolling
        monitor re-reduces only when it re-learns variances (or the
        snapshot probe count or a reduction knob changes), not on every
        snapshot.
        """
        self._check_estimate(estimate)
        return self._reductions.reduce(
            estimate.variances,
            self.reduction_strategy,
            self.variance_cutoff(num_probes),
        )

    def _check_estimate(self, estimate: VarianceEstimate) -> None:
        if estimate.num_links != self.routing.num_links:
            raise ValueError("variance vector does not match routing matrix")

    def _check_snapshot(self, snapshot: Snapshot) -> None:
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError(
                f"snapshot has {snapshot.num_paths} paths but the routing "
                f"matrix has {self.routing.num_paths}"
            )

    def _solve_reduced(
        self, reduction: ReductionResult, y: np.ndarray
    ) -> np.ndarray:
        """Solve ``Y = R* X*`` via the cached factorization; re-embed and clip.

        *y* is one log-rate vector ``(n_p,)`` or a stack ``(s, n_p)``;
        the stacked form is a single multi-RHS triangular solve.
        """
        kept = reduction.kept_columns
        num_cols = self.routing.num_links
        shape = (num_cols,) if y.ndim == 1 else (y.shape[0], num_cols)
        x_full = np.zeros(shape, dtype=np.float64)
        if len(kept) == 0:
            return x_full
        rhs = y if y.ndim == 1 else y.T
        x_star = np.minimum(self._factorizations.solve(kept, rhs), 0.0)
        if y.ndim == 1:
            x_full[kept] = x_star
        else:
            x_full[:, kept] = x_star.T
        return x_full

    # -- inference ---------------------------------------------------------------

    def infer(
        self, snapshot: Snapshot, estimate: VarianceEstimate
    ) -> LIAResult:
        """Infer link loss rates on one snapshot using learned variances."""
        self._check_snapshot(snapshot)
        reduction = self.reduce(estimate, snapshot.num_probes)
        y = snapshot.path_log_rates(self.floor)
        x = self._solve_reduced(reduction, y)
        return LIAResult(
            transmission_rates=np.exp(x),
            variance_estimate=estimate,
            reduction=reduction,
        )

    def infer_batch(
        self, snapshots: Sequence[Snapshot], estimate: VarianceEstimate
    ) -> List[LIAResult]:
        """Infer many snapshots against one variance estimate.

        Snapshots sharing a kept-column set (all of them, in the common
        fixed-probe-count case) are solved as one multi-RHS system with
        one factorization.  Results match per-snapshot :meth:`infer` to
        machine precision (the multi-RHS triangular solve may reorder
        sums); order follows the input.
        """
        snapshots = list(snapshots)
        results: List[Optional[LIAResult]] = [None] * len(snapshots)
        groups: Dict[bytes, Tuple[ReductionResult, List[int]]] = {}
        for index, snapshot in enumerate(snapshots):
            self._check_snapshot(snapshot)
            reduction = self.reduce(estimate, snapshot.num_probes)
            entry = groups.setdefault(reduction.key(), (reduction, []))
            entry[1].append(index)
        for reduction, indices in groups.values():
            Y = np.vstack(
                [snapshots[i].path_log_rates(self.floor) for i in indices]
            )
            X = self._solve_reduced(reduction, Y)
            rates = np.exp(X)
            for row, index in enumerate(indices):
                results[index] = LIAResult(
                    transmission_rates=rates[row],
                    variance_estimate=estimate,
                    reduction=reduction,
                )
        return results  # type: ignore[return-value]

    # -- end-to-end ---------------------------------------------------------------

    def run(
        self,
        campaign: MeasurementCampaign,
        num_training: Optional[int] = None,
    ) -> LIAResult:
        """Learn on the first ``m`` snapshots, infer on the last one."""
        training, target = campaign.split_training_target(num_training)
        estimate = self.learn_variances(training)
        return self.infer(target, estimate)


#: The paper's name for the engine.
LossInferenceAlgorithm = InferenceEngine


def infer_many(
    runs: Sequence[Tuple[InferenceEngine, Snapshot, VarianceEstimate]],
) -> List[LIAResult]:
    """Infer many *independent trees* — (engine, snapshot, estimate)
    triples — in one packed pass.

    A campaign grid point often evaluates hundreds of small trees, each
    with its own :class:`InferenceEngine`; looping ``engine.infer`` pays
    Python dispatch, ufunc launch and small-allocation overhead per tree
    that dwarfs the tree's actual FLOPs.  This pass makes the identical
    per-tree :meth:`FactorizationCache.solve` call ``engine.infer`` makes,
    with everything batchable hoisted out of the loop: one clip+log over
    every tree's path rates, and one flat solution buffer so the
    negative-clip and the final ``exp`` run as one ufunc call each.  Elementwise ufuncs are batching-invariant,
    so the results equal ``[eng.infer(snap, est) for eng, snap, est in
    runs]`` **to the byte** (pinned by ``tests/test_engine.py``).

    Nothing outlives the call: reductions and factorizations come from
    each engine's own caches, which stay warm across calls.
    """
    runs = list(runs)
    if not runs:
        return []
    for eng, snap, _ in runs:
        eng._check_snapshot(snap)
    reductions = [eng.reduce(est, snap.num_probes) for eng, snap, est in runs]
    link_offsets = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(
        [eng.routing.num_links for eng, _, _ in runs], out=link_offsets[1:]
    )
    path_counts = [snap.path_transmission.shape[0] for _, snap, _ in runs]
    path_offsets = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(path_counts, out=path_offsets[1:])
    floors = np.array(
        [continuity_floor(snap.num_probes, eng.floor) for eng, snap, _ in runs],
        dtype=np.float64,
    )
    # Each slice is bit-identical to the tree's own snapshot.path_log_rates.
    log_rates = np.log(
        np.clip(
            np.concatenate([snap.path_transmission for _, snap, _ in runs]),
            np.repeat(floors, path_counts),
            1.0,
        )
    )

    flat = np.zeros(int(link_offsets[-1]), dtype=np.float64)
    for i, (eng, _, _) in enumerate(runs):
        kept = reductions[i].kept_columns
        if len(kept) == 0:
            continue
        y = log_rates[path_offsets[i] : path_offsets[i + 1]]
        flat[link_offsets[i] + kept] = eng.factorization_cache.solve(kept, y)
    np.minimum(flat, 0.0, out=flat)
    # The never-kept entries stay exp(0) = 1, as in engine.infer.
    rates = np.exp(flat)
    return [
        LIAResult(
            transmission_rates=rates[link_offsets[i] : link_offsets[i + 1]],
            variance_estimate=est,
            reduction=reductions[i],
        )
        for i, (_, _, est) in enumerate(runs)
    ]

