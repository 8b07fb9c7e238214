"""The inner loops of LIA's linear algebra, in plain numpy.

These loops run in the interpreter when no single BLAS/LAPACK call
covers them: the CGS2 two-matvec basis offer (every phase-2 reduction)
and the Givens column-removal and column-insert sweeps.
:mod:`repro.core.linalg` and :mod:`repro.core.engine` call them
directly; every experiment payload is pinned to this arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cgs2_project",
    "current_tier",
    "givens_downdate",
    "givens_insert_column",
]


def current_tier() -> str:
    """The kernel implementation, as run reports record it: ``"numpy"``."""
    return "numpy"


def cgs2_project(
    storage: np.ndarray, rank: int, v: np.ndarray
) -> np.ndarray:
    """Orthogonalise *v* (in place) against ``storage[:, :rank]``, twice.

    Two classical Gram–Schmidt passes, each two BLAS-2 products — the
    exact body of ``IncrementalColumnBasis.try_add``.
    """
    B = storage[:, :rank]
    v -= B @ (B.T @ v)
    v -= B @ (B.T @ v)  # second pass for numerical robustness
    return v


def givens_downdate(r: np.ndarray, q: np.ndarray, position: int) -> None:
    """Restore triangularity after deleting column *position* (in place).

    *r* is the upper-Hessenberg ``(k, k-1)`` array left by the column
    deletion and *q* the ``(m, k)`` orthonormal block; one Givens
    rotation per subdiagonal entry, applied to both.
    """
    k = q.shape[1]
    for i in range(position, k - 1):
        a, b = r[i, i], r[i + 1, i]
        h = np.hypot(a, b)
        if h == 0.0:
            continue
        c, s = a / h, b / h
        rot = np.array([[c, s], [-s, c]])
        r[[i, i + 1], i:] = rot @ r[[i, i + 1], i:]
        q[:, [i, i + 1]] = q[:, [i, i + 1]] @ rot.T


def givens_insert_column(r: np.ndarray, q: np.ndarray, position: int) -> None:
    """Restore triangularity after inserting a column at *position* (in place).

    *r* is the ``(k, k)`` array whose column ``position`` still carries
    entries down to the last row (the CGS2 coefficients of the inserted
    column plus the residual norm in row ``k-1``) while every other
    column is already upper triangular for its final index; *q* is the
    ``(m, k)`` orthonormal block whose last column is the normalised
    residual.  One Givens rotation per subdiagonal entry, swept
    bottom-up, rolls the inserted column's mass onto its diagonal.
    """
    k = r.shape[0]
    for i in range(k - 2, position - 1, -1):
        a, b = r[i, position], r[i + 1, position]
        h = np.hypot(a, b)
        if h == 0.0:
            continue
        c, s = a / h, b / h
        rot = np.array([[c, s], [-s, c]])
        r[[i, i + 1], position:] = rot @ r[[i, i + 1], position:]
        q[:, [i, i + 1]] = q[:, [i, i + 1]] @ rot.T

