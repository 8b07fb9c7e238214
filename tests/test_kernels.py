"""Kernel correctness tests: the numpy loops of :mod:`repro.core.kernels`
pinned to the seed oracles in ``tests/oracles.py`` (they *are* the
historical code), edge cases included.
"""

import numpy as np
import pytest
from scipy import linalg as scipy_linalg

from repro.core import kernels
from repro.core.linalg import (
    IncrementalColumnBasis,
    QRFactorization,
    solve_upper_triangular,
)
from tests.oracles import SeedColumnBasis


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

    def test_givens_insert_column_restores_factorization(self):
        A, r, q, position = _insert_column_state(seed=31)
        kernels.givens_insert_column(r, q, position)
        k = r.shape[0]
        assert np.allclose(r, np.triu(r), atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-10)
        assert np.allclose(q @ r, A, atol=1e-10)
