"""Sparse phase-1 solvers: 10k-link meshes without a dense ``A^T A``.

The phase-1 system ``Sigma_hat* = A v`` is solved once per network, and
``A`` is extremely sparse — each row marks the links two paths share —
but the historical ``"normal"``/``"wls"`` solvers assembled ``A^T A``
densely (``(A.T @ A).toarray()``), an ``n_c x n_c`` allocation that caps
the solvable mesh size around a few thousand virtual links (10k links
means an 800 MB Gram matrix before the factorization even starts).

This module keeps the whole pipeline sparse:

:func:`solve_normal_sparse`
    exact sparse normal equations — ``A^T A`` assembled as CSC, the same
    tiny Tikhonov ridge the dense path applies (Theorem 1 makes the Gram
    matrix nonsingular in exact arithmetic; the ridge guards numerically
    repeated columns), factorized with ``scipy.sparse.linalg.splu``
    (SuperLU; a sparse Cholesky in effect, since the matrix is SPD).
    Memory follows the factor fill-in, not ``n_c**2``.

:func:`solve_normal_cg`
    matrix-free conjugate gradients on the (ridge-guarded) normal
    equations with a Jacobi (inverse-diagonal) preconditioner.  ``A^T A``
    is never formed at all — each iteration applies ``A`` and ``A^T`` —
    so this is the path for systems where even the sparse Gram factor is
    too large.  A non-converged run finishes with LSMR on the original
    least-squares system rather than returning a half-iterated vector.

Both are reachable as first-class :data:`repro.core.variance.VARIANCE_METHODS`
entries (``"sparse"``, ``"cg"`` — the scalable analogues of ``"normal"``
and ``"lsmr"``) and automatically: :func:`use_sparse_normal` routes the
dense normal-equation methods (``"normal"``, and ``"wls"`` whose row
weighting is applied upstream of the solve) onto the sparse
factorization once the system is wider than
:data:`SPARSE_AUTO_THRESHOLD` columns.  Below the threshold the dense
path runs byte-for-byte as before, keeping every existing experiment
payload seed-for-seed identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

__all__ = [
    "SPARSE_AUTO_THRESHOLD",
    "gram_ridge",
    "solve_normal_cg",
    "solve_normal_sparse",
    "use_sparse_normal",
]

#: Column count above which the dense normal-equation assembly
#: (``"wls"``/``"normal"``) re-routes to :func:`solve_normal_sparse`.
#: 4096 columns is comfortably above every topology the experiment
#: presets generate (the ``paper`` meshes stay in the low thousands of
#: virtual links) — so existing campaigns never change solver — while a
#: dense Gram matrix at this width (134 MB) is already a pointless
#: allocation when the sparse factorization is faster.
SPARSE_AUTO_THRESHOLD = 4096

#: The tiny-Tikhonov scale every normal-equation solver shares
#: (``ridge = RIDGE_SCALE * trace(A^T A) / n_c``).
RIDGE_SCALE = 1e-10


def _as_sparse(A) -> sparse.csr_matrix:
    if sparse.issparse(A):
        return A.tocsr().astype(np.float64)
    dense = np.asarray(A, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("A must be two-dimensional")
    return sparse.csr_matrix(dense)


def gram_ridge(
    column_square_sums: np.ndarray, ridge_scale: float = RIDGE_SCALE
) -> float:
    """The shared tiny-Tikhonov value from the Gram diagonal.

    ``sum(column_square_sums)`` equals ``trace(A^T A)``, so this computes
    exactly the ridge the dense path derives from ``np.trace`` — the
    solvers agree to the last bit on the regularized system they solve.
    """
    n = column_square_sums.shape[0]
    return float(ridge_scale * column_square_sums.sum() / max(n, 1))


def solve_normal_sparse(
    A, b: np.ndarray, ridge_scale: float = RIDGE_SCALE
) -> np.ndarray:
    """Solve ``A^T A v = A^T b`` keeping the Gram matrix sparse.

    The CSC ``A^T A`` goes straight into a SuperLU factorization; no
    dense ``n_c x n_c`` array is ever materialized.  The ridge matches
    the dense solver's guard, so where both run they agree to solver
    precision (~1e-12 relative on well-conditioned meshes).
    """
    A = _as_sparse(A)
    b = np.asarray(b, dtype=np.float64)
    gram = (A.T @ A).tocsc()
    ridge = gram_ridge(gram.diagonal(), ridge_scale)
    if ridge > 0.0:
        gram = gram + ridge * sparse.identity(gram.shape[0], format="csc")
    lu = sparse_linalg.splu(gram.tocsc())
    return np.asarray(lu.solve(A.T @ b), dtype=np.float64)


def solve_normal_cg(
    A,
    b: np.ndarray,
    ridge_scale: float = RIDGE_SCALE,
    rtol: float = 1e-12,
    maxiter: Optional[int] = None,
) -> np.ndarray:
    """Jacobi-preconditioned CG on the normal equations, matrix-free.

    ``A^T A`` is applied as two sparse matvecs per iteration and the
    preconditioner is its inverse diagonal (the column square sums of
    ``A`` — one cheap pass over the nonzeros), so peak memory is a few
    vectors of length ``n_c`` on top of ``A`` itself.  If CG reports
    non-convergence within the iteration budget, the solve finishes with
    LSMR on the original least-squares system (same answer in exact
    arithmetic, more robust to the conditioning WLS weights introduce).
    """
    A = _as_sparse(A)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[1]
    col_sq = np.asarray(A.multiply(A).sum(axis=0), dtype=np.float64).ravel()
    ridge = gram_ridge(col_sq, ridge_scale)
    diag = col_sq + ridge
    # Columns with an empty support would zero the preconditioner; the
    # ridge keeps the operator itself nonsingular, so floor them there.
    inv_diag = 1.0 / np.maximum(diag, np.finfo(np.float64).tiny)

    At = A.T.tocsr()

    def gram_matvec(x: np.ndarray) -> np.ndarray:
        return At @ (A @ x) + ridge * x

    operator = sparse_linalg.LinearOperator(
        (n, n), matvec=gram_matvec, dtype=np.float64
    )
    preconditioner = sparse_linalg.LinearOperator(
        (n, n), matvec=lambda x: inv_diag * x, dtype=np.float64
    )
    rhs = At @ b
    solution, info = sparse_linalg.cg(
        operator,
        rhs,
        rtol=rtol,
        atol=0.0,
        maxiter=maxiter if maxiter is not None else max(10 * n, 1000),
        M=preconditioner,
    )
    if info != 0:
        result = sparse_linalg.lsmr(
            A, b, atol=1e-13, btol=1e-13, conlim=1e14,
            maxiter=max(20 * n, 2000),
        )
        return np.asarray(result[0], dtype=np.float64)
    return np.asarray(solution, dtype=np.float64)


def use_sparse_normal(num_columns: int) -> bool:
    """Whether a normal-equation solve this wide should stay sparse.

    Reads :data:`SPARSE_AUTO_THRESHOLD` at call time so tests (and
    deployments with unusual memory budgets) can adjust the crossover by
    assigning the module attribute.
    """
    return num_columns > SPARSE_AUTO_THRESHOLD
