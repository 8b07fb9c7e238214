"""Phase 2 of LIA: eliminating good links to reach full column rank
(Section 5.2).

Links are sorted by increasing estimated variance; by Assumption S.3 this
is also increasing congestion order.  The lowest-variance columns are
removed from ``R`` until the remainder ``R*`` has full column rank; the
reduced system ``Y = R* X*`` is then solvable, and the removed (best
performing) links get loss rate ~ 0.

:func:`reduce_to_full_rank` accepts the routing matrix as a dense array
**or** a scipy sparse matrix (CSR/CSC) and extracts columns without ever
densifying the full matrix.  The reduced system ``Y = R* X*`` itself is
solved by :meth:`repro.core.engine.FactorizationCache.solve`, against a
cached factorization of ``R*``.

Four strategies (ablated against each other in the benchmarks), each
one :func:`~repro.core.linalg.basis_sweep` that differs only in the
candidate columns it offers and whether it stops at its first rejection:

``"threshold"`` (default)
    keep the columns whose estimated variance exceeds an explicit cutoff
    derived from measurement physics: a link whose loss rate sits at the
    congestion threshold ``t_l``, sampled with ``S`` probes per snapshot,
    has log-rate variance of roughly ``t_l / S`` (times a small
    burstiness factor); anything safely above that is congested, anything
    below is noise.  The operator knows both ``t_l`` and ``S``, so unlike
    the gap search this cutoff cannot be fooled by a smooth variance
    spectrum.  :meth:`repro.core.engine.InferenceEngine.variance_cutoff`
    computes the cutoff as ``cutoff_scale * t_l / S``.
``"gap"``
    implements the abstract's description — "remove the un-congested
    links with small variances" — literally: split the variance spectrum
    at its largest multiplicative gap (congested variances sit orders of
    magnitude above good ones under Assumption S.3), keep only the
    high side, then drop any linearly dependent stragglers.  Keeping few
    columns concentrates the removed links' (tiny) true losses onto few
    unknowns, which is what makes the paper's near-zero false-positive
    rates and ~1e-3 median absolute errors reachable.
``"paper"``
    the literal loop of the Section 5.3 algorithm box — repeatedly drop
    the currently smallest-variance column until full column rank.  The
    columns kept after ``t`` drops are exactly the length-``(n_c - t)``
    prefix of the *descending* variance order, and a prefix is
    independent iff an incremental Gram–Schmidt scan accepts every one of
    its columns; the first rejected column therefore marks the exact
    stopping point of the literal loop.  One sweep, no per-probe SVDs.
``"greedy"``
    scan columns from highest variance down and keep each column that is
    linearly independent of those kept so far (incremental
    Gram–Schmidt).  This keeps a *maximal* independent set — never fewer
    columns than the paper loop — at O(n_p n_c^2) total cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.core.linalg import basis_sweep

REDUCTION_STRATEGIES = ("threshold", "gap", "paper", "greedy")


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of the full-rank column reduction."""

    kept_columns: np.ndarray  # sorted column indices kept in R*
    removed_columns: np.ndarray  # sorted column indices removed
    strategy: str

    @property
    def num_kept(self) -> int:
        return int(self.kept_columns.shape[0])

    def key(self) -> bytes:
        """Hashable identity of the kept-column set (factorization cache key)."""
        return self.kept_columns.tobytes()

    @classmethod
    def from_kept(
        cls, kept: Sequence[int], num_columns: int, strategy: str
    ) -> "ReductionResult":
        """The result keeping *kept* (any order) out of *num_columns*."""
        kept_arr = np.array(sorted(int(c) for c in kept), dtype=np.int64)
        removed = np.setdiff1d(np.arange(num_columns, dtype=np.int64), kept_arr)
        return cls(kept_columns=kept_arr, removed_columns=removed, strategy=strategy)


def reduce_to_full_rank(
    routing_matrix,
    variances: np.ndarray,
    strategy: str = "threshold",
    variance_cutoff: Optional[float] = None,
) -> ReductionResult:
    """Select the columns of ``R*`` given per-column variances.

    *routing_matrix* may be dense or scipy sparse.  *variance_cutoff* is
    required by (and only used with) the ``"threshold"`` strategy.
    """
    if sparse.issparse(routing_matrix):
        R = routing_matrix
        num_cols = R.shape[1]
    else:
        R = np.asarray(routing_matrix, dtype=np.float64)
        if R.ndim != 2:
            raise ValueError("routing matrix must be two-dimensional")
        num_cols = R.shape[1]
    v = np.asarray(variances, dtype=np.float64)
    if v.shape != (num_cols,):
        raise ValueError(
            f"need one variance per column: {v.shape} vs {num_cols} columns"
        )
    if strategy not in REDUCTION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}, want one of {REDUCTION_STRATEGIES}"
        )
    prefix_only = False
    if strategy == "threshold":
        if variance_cutoff is None or variance_cutoff <= 0:
            raise ValueError(
                "the 'threshold' strategy needs a positive variance_cutoff"
            )
        candidates = threshold_candidates(v, variance_cutoff)
    else:
        # Decreasing variance; ties broken by column index for determinism.
        descending = np.lexsort((np.arange(len(v)), v))[::-1]
        gap = _gap_candidates(v, descending) if strategy == "gap" else None
        candidates = descending if gap is None else gap
        # The paper's drop-smallest loop (and the gap strategy without a
        # gap) keeps the prefix ``descending[:n_c - t]`` after ``t``
        # drops, and a superset of a dependent set is dependent, so the
        # loop stops at the longest independent prefix: the sweep up to
        # its first rejection.
        prefix_only = strategy != "greedy" and gap is None
    kept = basis_sweep(R, candidates, stop_at_rejection=prefix_only).kept
    return ReductionResult.from_kept(kept, num_cols, strategy)


def threshold_candidates(v: np.ndarray, variance_cutoff: float) -> np.ndarray:
    """The threshold strategy's scan order.

    The columns whose variance is strictly above *variance_cutoff*, in
    decreasing variance order: the reverse of the ascending order with
    ties broken by column index.  An empty set is legitimate: no link
    shows congestion-level variance, so every loss rate is approximated
    by zero.
    """
    descending = np.lexsort((np.arange(len(v)), v))[::-1]
    return descending[v[descending] > variance_cutoff]


#: Variances below ``GAP_NOISE_FLOOR_RATIO * max(v)`` are clamped before
#: the gap search: estimated good-link variances scatter over many orders
#: of magnitude down to ~0, and without the clamp a stray 1e-15 estimate
#: manufactures the largest log-gap at the *bottom* of the spectrum,
#: keeping nearly every column.
GAP_NOISE_FLOOR_RATIO = 1e-3


def _gap_candidates(v: np.ndarray, descending: np.ndarray) -> Optional[np.ndarray]:
    """The columns above the largest multiplicative variance gap.

    Under Assumption S.3 congested-link variances sit far above good-link
    variances, so the sorted positive spectrum (clamped at a relative
    noise floor) shows one dominant gap at the class boundary; the gap
    strategy keeps everything above it, less any dependent stragglers
    (congested links that form a linearly dependent family — rare, cf.
    Figure 7) dropped from the low-variance end.  ``None`` when the
    spectrum is too degenerate to show a gap: the strategy then falls
    back to the paper loop.
    """
    positive = descending[v[descending] > 0]
    if len(positive) < 2:
        # Fewer than two positive variances defeats the gap search.
        return None
    floor = v[positive[0]] * GAP_NOISE_FLOOR_RATIO
    sorted_pos = np.maximum(v[positive], floor)
    ratios = np.log(sorted_pos[:-1]) - np.log(sorted_pos[1:])
    split = int(np.argmax(ratios))
    if ratios[split] <= 0.0:
        # Flat spectrum (everything at the floor): no class boundary.
        return None
    return positive[: split + 1]
