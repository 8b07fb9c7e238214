"""Kernel correctness tests: the numpy loops of :mod:`repro.core.kernels`
pinned to the seed oracles in ``tests/oracles.py`` (they *are* the
historical code), edge cases included.
"""

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
from scipy import sparse

from repro.core import kernels
from repro.core.linalg import (
    IncrementalColumnBasis,
    QRFactorization,
    back_substitution,
    householder_qr,
    solve_upper_triangular,
)
from repro.core.sparse_solvers import solve_normal_cg, solve_normal_sparse
from tests.oracles import SeedColumnBasis, householder_qr_reference


def _back_substitution_oracle(U, b, tol):
    """The seed elimination loop, written out independently."""
    n = U.shape[0]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        residual = float(b[k])
        for j in range(k + 1, n):
            residual -= U[k, j] * x[j]
        x[k] = 0.0 if abs(U[k, k]) <= tol else residual / U[k, k]
    return x


def _insert_column_state(seed, m=18, k=6, position=2):
    """Pre-rotation ``(A, r, q, position)`` as ``add_column`` assembles it."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, k + 1))
    base = np.delete(A, position, axis=1)
    q0, r0 = np.linalg.qr(base)
    a = A[:, position]
    v = a - q0 @ (q0.T @ a)
    v -= q0 @ (q0.T @ v)
    rho = np.linalg.norm(v)
    q = np.empty((m, k + 1))
    q[:, :k] = q0
    q[:, k] = v / rho
    r = np.zeros((k + 1, k + 1))
    r[:k, :position] = r0[:, :position]
    r[:k, position + 1 :] = r0[:, position:]
    r[:k, position] = q0.T @ (a - v)
    r[k, position] = rho
    return A, r, q, position


def test_current_tier_names_the_numpy_kernels():
    assert kernels.current_tier() == "numpy"


class TestNumpyKernels:
    """The kernels pinned to the seed oracles, edge cases included."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 25])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_back_substitution_matches_oracle(self, n, dtype):
        rng = np.random.default_rng(n)
        U = np.triu(rng.normal(size=(n, n))).astype(dtype)
        if n > 2:
            U[n // 2, n // 2] = 0.0  # force the degenerate pivot branch
        b = rng.normal(size=n).astype(dtype)
        tol = 1e-12
        got = kernels.back_substitution(
            np.ascontiguousarray(U, dtype=np.float64),
            np.ascontiguousarray(b, dtype=np.float64),
            tol,
        )
        expected = _back_substitution_oracle(
            U.astype(np.float64), b.astype(np.float64), tol
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        if n > 2:
            assert got[n // 2] == 0.0

    def test_module_back_substitution_degenerate_path(self):
        U = np.triu(np.random.default_rng(3).normal(size=(6, 6)))
        U[2, 2] = 0.0
        b = np.arange(6, dtype=np.float64)
        x = back_substitution(U, b)
        assert x[2] == 0.0
        keep = [0, 1, 3, 4, 5]
        assert np.allclose((U @ x)[np.ix_(keep)], b[keep], atol=1e-9)

    @pytest.mark.parametrize(
        "shape", [(4, 0), (5, 1), (8, 8), (40, 17), (60, 33)]
    )
    def test_householder_qr_matches_reference(self, shape):
        rng = np.random.default_rng(shape[1])
        A = rng.normal(size=shape)
        if shape[1] >= 2:
            A[:, 1] = A[:, 0]  # rank-deficient: duplicate column
        Q, R = householder_qr(A, block_size=8)
        Q_ref, R_ref = householder_qr_reference(A)
        assert np.allclose(Q @ R, A, atol=1e-10)
        assert np.allclose(Q, Q_ref, atol=1e-10)
        assert np.allclose(R, R_ref, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_cgs2_matches_reference_decisions(self, seed):
        rng = np.random.default_rng(seed)
        fast = IncrementalColumnBasis(dimension=12)
        slow = SeedColumnBasis(dimension=12)
        for _ in range(20):
            column = rng.normal(size=12)
            if rng.random() < 0.3 and fast.rank:
                column = fast.basis_matrix @ rng.normal(size=fast.rank)
            assert fast.try_add(column.copy()) == slow.try_add(column.copy())
        assert fast.rank == slow.rank
        assert np.allclose(fast.basis_matrix, slow.basis_matrix, atol=1e-10)

    def test_givens_downdate_restores_factorization(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(15, 6))
        factorization = QRFactorization.factorize(A)
        for position in (0, 3, 5):
            down = factorization.remove_column(position)
            reduced = np.delete(A, position, axis=1)
            assert np.allclose(down.q @ down.r, reduced, atol=1e-10)
            assert np.allclose(down.q.T @ down.q, np.eye(5), atol=1e-10)
            # The parent factorization is untouched (fresh-copy contract).
            assert np.allclose(
                factorization.q @ factorization.r, A, atol=1e-10
            )

    def test_solve_upper_triangular_both_contiguities(self):
        rng = np.random.default_rng(4)
        r = np.triu(rng.normal(size=(9, 9)) + 3 * np.eye(9))
        b = rng.normal(size=9)
        expected = scipy_linalg.solve_triangular(r, b, lower=False)
        assert np.allclose(solve_upper_triangular(r, b), expected, atol=1e-12)
        fortran_r = np.asfortranarray(r)
        assert np.allclose(
            solve_upper_triangular(fortran_r, b), expected, atol=1e-12
        )

    def test_solve_upper_triangular_singular_raises(self):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(scipy_linalg.LinAlgError):
            solve_upper_triangular(r, np.ones(3))

    def test_cg_without_fused_kernel_matches_sparse(self):
        rng = np.random.default_rng(7)
        A = sparse.random(60, 25, density=0.2, random_state=8, format="csr")
        b = rng.normal(size=60)
        cg = solve_normal_cg(A, b)
        direct = solve_normal_sparse(A, b)
        assert np.allclose(cg, direct, rtol=1e-8, atol=1e-10)

    def test_givens_insert_column_restores_factorization(self):
        A, r, q, position = _insert_column_state(seed=31)
        kernels.givens_insert_column(r, q, position)
        k = r.shape[0]
        assert np.allclose(r, np.triu(r), atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-10)
        assert np.allclose(q @ r, A, atol=1e-10)
