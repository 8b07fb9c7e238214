"""Phase 1 of LIA: estimating the link variances (Section 5.1).

Solves the overdetermined system ``Sigma_hat* = A v`` for the vector of
link log-rate variances ``v``.  Theorem 1 guarantees ``A`` has full
column rank, so the least-squares solution is unique; the estimator is a
special case of the generalised method of moments (consistent, no
distributional assumption, no iterative MLE).

Three solvers, one per estimator that gives a different answer:

``"wls"`` (default)
    feasible generalised least squares: each covariance equation is
    weighted by the inverse of its sampling variance,
    ``var(Sigma_hat_ij) ~= (Sigma_ii Sigma_jj + Sigma_ij^2) / (m - 1)``
    (the Wishart second moment), estimated from the sample path
    variances.  Equations between quiet path pairs carry far less noise
    than those crossing congested links; weighting them up sharpens the
    good/congested variance separation dramatically on meshes.  This is
    the efficient-GMM refinement of the paper's estimator.
``"normal"``
    the paper's plain (unweighted) least squares, solved through dense
    normal equations ``A^T A v = A^T s``.  ``"wls"`` runs the same body
    on the row-scaled system.
``"nnls"``
    non-negative least squares — variances are non-negative by
    definition, so projecting onto the feasible set is a natural
    extension (ablated in the benchmarks).

Equations with negative sample covariance are dropped first, as in the
paper.  The filtering, WLS row scaling, underdetermined-system guard and
residual bookkeeping are written once, in
:func:`estimate_link_variances_from_moments`: the campaign entry point,
the online monitor and the delay layer (raw delays in place of log
rates) all solve through it.

``A`` is read once, as flat ``(row, column, value)`` entries in row
order, and every product is an ``np.bincount`` over them: a 30-column
tree pays for its arithmetic, not for building sparse matrices.
``bincount`` adds in input order from zero, rows ascending, which is
the order scipy's ``csr_matmat``/``csc_matvec`` accumulate ``A^T A`` and
``A^T b`` in, so the estimates equal the ``scipy.sparse`` formulation
(kept in ``tests/oracles.py``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.augmented import IntersectingPairs, intersecting_pairs
from repro.core.covariance import (
    CovarianceSummary,
    negative_pair_mask,
    sample_covariance_pairs,
)
from repro.probing.snapshot import MeasurementCampaign
from repro.topology.routing import within_group_pairs
from repro.utils import check_count

VARIANCE_METHODS = ("wls", "normal", "nnls")


@dataclass(frozen=True)
class VarianceEstimate:
    """Estimated link variances plus estimation diagnostics.

    ``residual_norm`` is always the residual of the *unweighted* system
    ``||A v - sigma||`` over the equations that survived filtering, so it
    is comparable across every solver; for ``"wls"`` the residual of the
    row-scaled system the solver actually minimised is exposed separately
    as ``weighted_residual_norm`` (``None`` for unweighted methods).
    """

    variances: np.ndarray
    method: str
    covariance_summary: CovarianceSummary
    residual_norm: float
    weighted_residual_norm: Optional[float] = None

    @property
    def num_links(self) -> int:
        return int(self.variances.shape[0])

    def order_by_variance(self) -> np.ndarray:
        """Column indices sorted by increasing variance (phase-2 input)."""
        return np.argsort(self.variances, kind="stable")


def estimate_link_variances(
    campaign: MeasurementCampaign,
    method: str = "wls",
    drop_negative: bool = True,
    floor: Optional[float] = None,
    pairs: Optional[IntersectingPairs] = None,
) -> VarianceEstimate:
    """Run phase 1 on a training campaign.

    Parameters
    ----------
    campaign:
        The ``m`` training snapshots over a fixed routing matrix.
    method:
        One of :data:`VARIANCE_METHODS`.
    drop_negative:
        Drop equations whose sample covariance is negative (the paper's
        rule).  The redundant system tolerates the removal.
    floor:
        Continuity floor for the log transform (default ``0.5 / S``).
    pairs:
        Pre-built intersecting-pairs structure; pass it when running many
        campaigns over one routing matrix ("we only need to do this once
        for the whole network").
    """
    if len(campaign) < 2:
        raise ValueError("variance estimation needs at least two snapshots")
    if pairs is None:
        pairs = intersecting_pairs(campaign.routing.matrix)
    log_matrix = campaign.log_matrix(floor)
    return estimate_link_variances_from_moments(
        pairs,
        sample_covariance_pairs(log_matrix, pairs.pair_i, pairs.pair_j),
        log_matrix.var(axis=0, ddof=1),
        len(campaign),
        method=method,
        drop_negative=drop_negative,
    )


def _equation_weights(
    path_variances: np.ndarray,
    pairs: IntersectingPairs,
    sigma: np.ndarray,
    num_snapshots: int,
) -> np.ndarray:
    """Square-root inverse sampling variance of each covariance equation.

    ``var(Sigma_hat_ij) ~= (Sigma_ii Sigma_jj + Sigma_ij^2) / (m - 1)``,
    with the per-path sample variances *path_variances* of the
    measurements the covariances came from (log rates for the loss
    layer, raw delays for the delay layer).  Floored so that perfectly
    quiet path pairs (zero sample variance) cannot produce infinite
    weights.
    """
    eq_var = (
        path_variances[pairs.pair_i] * path_variances[pairs.pair_j] + sigma**2
    ) / max(num_snapshots - 1, 1)
    floor = max(float(eq_var.max()) * 1e-9, 1e-30)
    return 1.0 / np.sqrt(np.maximum(eq_var, floor))


def estimate_link_variances_from_moments(
    pairs: IntersectingPairs,
    sigma: np.ndarray,
    path_variances: np.ndarray,
    num_snapshots: int,
    method: str = "wls",
    drop_negative: bool = True,
) -> VarianceEstimate:
    """Phase 1 from pre-computed window moments (the one phase-1 body).

    Filters the negative-covariance equations, weights the rest (WLS),
    guards against an underdetermined filtered system, solves, and
    records the residuals.  :func:`estimate_link_variances` computes the
    moments from a campaign and delegates here; the online monitor
    passes the moments of its window, and the delay layer those of raw
    delays.  *sigma* is the per-pair sample covariance vector (entry
    order matching *pairs*), *path_variances* the per-path sample
    variances of the same measurements.
    """
    if method not in VARIANCE_METHODS:
        raise ValueError(f"unknown method {method!r}, want one of {VARIANCE_METHODS}")
    if check_count("num_snapshots", num_snapshots) < 2:
        raise ValueError("variance estimation needs at least two snapshots")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (pairs.num_pairs,):
        raise ValueError("one covariance per intersecting pair required")
    path_variances = np.asarray(path_variances, dtype=np.float64)
    if path_variances.ndim != 1:
        raise ValueError("path_variances must be one-dimensional")
    # pair_i <= pair_j, so pair_j holds the largest path index.
    num_paths = int(pairs.pair_j.max()) + 1
    if path_variances.shape[0] < num_paths:
        raise ValueError(
            f"path_variances has {path_variances.shape[0]} entries; "
            f"the pairs cover {num_paths} paths"
        )
    if not np.isfinite(path_variances).all():
        raise ValueError("path_variances holds a NaN or infinite variance")
    if not np.isfinite(sigma).all():
        raise ValueError("sigma holds a NaN or infinite covariance")
    negative = negative_pair_mask(sigma)
    summary = CovarianceSummary(
        num_snapshots=num_snapshots,
        num_pairs=pairs.num_pairs,
        num_negative=int(negative.sum()),
    )
    # A's entries, row by row: counts[r] of them in row r.
    num_links = pairs.num_links
    counts = np.diff(pairs.indptr)
    cols, values = pairs.indices, pairs.data
    keep = None
    target = sigma
    if drop_negative and negative.any():
        keep = ~negative
        entries = np.repeat(keep, counts)
        cols, values, counts = cols[entries], values[entries], counts[keep]
        target = sigma[keep]
    if target.size < num_links:
        raise ValueError(
            f"after filtering, {target.size} equations remain for "
            f"{num_links} unknowns; take more snapshots or keep negatives"
        )
    rows = np.repeat(np.arange(target.size), counts)
    weighted_residual = None
    if method == "wls":
        weights = _equation_weights(path_variances, pairs, sigma, num_snapshots)
        if keep is not None:
            weights = weights[keep]
        scaled = np.repeat(weights, counts) * values
        b = weights * target
        v = _solve(counts, cols, scaled, b, num_links, method)
        # Each row summed last entry first, the order a row-scaled CSR
        # product (``diags(w) @ A``) stores its entries in.
        fitted = np.bincount(
            rows[::-1], weights=scaled[::-1] * v[cols[::-1]], minlength=b.size
        )
        weighted_residual = float(np.linalg.norm(fitted - b))
    else:
        v = _solve(counts, cols, values, target, num_links, method)
    fitted = np.bincount(rows, weights=values * v[cols], minlength=target.size)
    return VarianceEstimate(
        variances=v,
        method=method,
        covariance_summary=summary,
        residual_norm=float(np.linalg.norm(fitted - target)),
        weighted_residual_norm=weighted_residual,
    )


def _solve(
    counts: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    b: np.ndarray,
    num_links: int,
    method: str,
) -> np.ndarray:
    """Least squares on the system whose entries are given row by row,
    *counts* of them in each row."""
    if method == "nnls":
        from scipy import optimize

        dense = np.zeros((b.size, num_links), dtype=np.float64)
        dense[np.repeat(np.arange(b.size), counts), cols] = values
        solution, _ = optimize.nnls(dense, b)
        return solution
    # "normal" and "wls" (row weighting applied upstream): exact normal
    # equations.  n_c x n_c stays dense-friendly into the thousands, and
    # unlike iterative solvers the answer does not degrade with the
    # conditioning the WLS weights introduce.  A^T A sums each row's
    # entry pairs, rows ascending, into one triangle (the upper one when
    # a row's columns ascend) and mirrors it.
    first, second = within_group_pairs(counts)
    AtA = np.bincount(
        cols[first] * num_links + cols[second],
        weights=values[first] * values[second],
        minlength=num_links * num_links,
    ).reshape(num_links, num_links)
    AtA = AtA + AtA.T - np.diag(AtA.diagonal())
    Atb = np.bincount(cols, weights=values * np.repeat(b, counts), minlength=num_links)
    # Tiny Tikhonov term guards against numerically repeated columns;
    # Theorem 1 makes AtA nonsingular in exact arithmetic.
    ridge = 1e-10 * np.trace(AtA) / max(AtA.shape[0], 1)
    return np.linalg.solve(AtA + ridge * np.eye(AtA.shape[0]), Atb)


def variance_recovery_error(
    estimate: VarianceEstimate, true_variances: np.ndarray
) -> float:
    """Relative L2 error against ground-truth variances (for tests/benches)."""
    truth = np.asarray(true_variances, dtype=np.float64)
    if truth.shape != estimate.variances.shape:
        raise ValueError("variance vectors must align")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        return float(np.linalg.norm(estimate.variances))
    return float(np.linalg.norm(estimate.variances - truth) / denom)
