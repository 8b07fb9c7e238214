"""Sample moments of end-to-end measurements (eq. (7) of the paper).

Given ``m`` snapshots of log path transmission rates, the estimator needs
the sample covariance ``Sigma_hat[i, j]`` for every pair of paths that
shares at least one link (plus the variances on the diagonal).  The paper
drops equations whose sample covariance is negative — impossible under
the model, so pure sampling noise — and notes the system stays heavily
redundant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sample_covariance_matrix(log_matrix: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of paths over snapshots.

    *log_matrix* has shape ``(m, n_p)`` (snapshots by paths); the result
    is ``(n_p, n_p)``.  Requires ``m >= 2``.
    """
    Y = np.asarray(log_matrix, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("log_matrix must be (snapshots, paths)")
    m = Y.shape[0]
    if m < 2:
        raise ValueError(f"need at least two snapshots, got {m}")
    centered = Y - Y.mean(axis=0, keepdims=True)
    return (centered.T @ centered) / (m - 1)


def sample_covariance_pairs(
    log_matrix: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    block_size: int = 262_144,
) -> np.ndarray:
    """Sample covariances for an explicit list of path pairs.

    Computes only the requested entries, in blocks, so campaigns with
    many paths never materialise the full ``n_p x n_p`` matrix.  Entry
    order matches the input pair arrays.
    """
    Y = np.asarray(log_matrix, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("log_matrix must be (snapshots, paths)")
    m, n_paths = Y.shape
    if m < 2:
        raise ValueError(f"need at least two snapshots, got {m}")
    pair_i = np.asarray(pair_i, dtype=np.int64)
    pair_j = np.asarray(pair_j, dtype=np.int64)
    if pair_i.shape != pair_j.shape:
        raise ValueError("pair arrays must align")
    if len(pair_i) and (pair_i.min() < 0 or pair_j.max() >= n_paths):
        raise ValueError("pair index out of range")

    centered = Y - Y.mean(axis=0, keepdims=True)
    out = np.empty(len(pair_i), dtype=np.float64)
    for start in range(0, len(pair_i), block_size):
        stop = min(start + block_size, len(pair_i))
        bi = pair_i[start:stop]
        bj = pair_j[start:stop]
        out[start:stop] = np.einsum(
            "mk,mk->k", centered[:, bi], centered[:, bj]
        ) / (m - 1)
    return out


@dataclass(frozen=True)
class CovarianceSummary:
    """Diagnostics of one covariance estimation pass."""

    num_snapshots: int
    num_pairs: int
    num_negative: int


def negative_pair_mask(covariances: np.ndarray) -> np.ndarray:
    """True where the sampled covariance is negative (to be dropped)."""
    return np.asarray(covariances, dtype=np.float64) < 0.0
