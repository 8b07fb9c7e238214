"""Tests for the dense linear-algebra kernels (cross-checked vs numpy)."""

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
from scipy import sparse as scipy_sparse

from repro.core.linalg import (
    IncrementalColumnBasis,
    QRFactorization,
    basis_sweep,
    qr_column_rank,
)


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).normal(size=(m, n))


def routing_like_matrix(seed):
    """A 0/1 matrix whose last columns repeat or sum earlier ones."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=(12, 7)).astype(float)
    extra = np.column_stack([base[:, 0], base[:, 1] + base[:, 2], base[:, 3]])
    return np.hstack([base, extra])[:, rng.permutation(10)]


def reference_sweep(B, candidates, stop_at_rejection=False):
    """Keep a column when it raises ``matrix_rank``, one full SVD per offer."""
    kept = []
    for col in candidates:
        if np.linalg.matrix_rank(B[:, kept + [col]]) == len(kept) + 1:
            kept.append(col)
        elif stop_at_rejection:
            break
    return kept


def qr_factors(A):
    """``(Q, R)`` of the LAPACK Householder QR behind :class:`QRFactorization`."""
    factorization = QRFactorization.factorize(A)
    return factorization.q, factorization.r


def qr_least_squares(A, b):
    return QRFactorization.factorize(A).solve(b)


class TestHouseholderQR:
    @pytest.mark.parametrize("shape", [(5, 5), (10, 4), (30, 7)])
    def test_reconstruction(self, shape):
        A = random_matrix(*shape, seed=0)
        Q, R = qr_factors(A)
        assert np.allclose(Q @ R, A, atol=1e-10)

    def test_q_orthonormal(self):
        A = random_matrix(20, 6, seed=1)
        Q, _ = qr_factors(A)
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-10)

    def test_r_upper_triangular(self):
        A = random_matrix(8, 8, seed=2)
        _, R = qr_factors(A)
        assert np.allclose(R, np.triu(R))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_factors(random_matrix(3, 5, seed=3))

    def test_zero_column_survives(self):
        A = random_matrix(6, 3, seed=4)
        A[:, 1] = 0.0
        Q, R = qr_factors(A)
        assert np.allclose(Q @ R, A, atol=1e-10)


class TestLeastSquares:
    @pytest.mark.parametrize("shape", [(10, 3), (50, 10), (7, 7)])
    def test_matches_numpy_lstsq(self, shape):
        A = random_matrix(*shape, seed=6)
        b = random_matrix(shape[0], 1, seed=7).ravel()
        ours = qr_least_squares(A, b)
        theirs, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(ours, theirs, atol=1e-8)

    def test_exact_system(self):
        A = random_matrix(5, 5, seed=8)
        x = np.ones(5)
        assert np.allclose(qr_least_squares(A, A @ x), x)


class TestRank:
    def test_full_rank(self):
        assert qr_column_rank(random_matrix(10, 4, seed=9)) == 4

    def test_deficient(self):
        A = random_matrix(10, 3, seed=10)
        B = np.hstack([A, A[:, :1] + A[:, 1:2]])
        assert qr_column_rank(B) == 3

    def test_matches_numpy(self, figure2):
        _, _, routing = figure2
        R = routing.to_dense()
        assert qr_column_rank(R) == np.linalg.matrix_rank(R)


class TestGreedyColumns:
    def test_spans_column_space(self):
        A = random_matrix(8, 4, seed=11)
        B = np.hstack([A, A @ random_matrix(4, 3, seed=12)])  # 3 dependent
        kept = basis_sweep(B, list(range(7))).kept
        assert len(kept) == 4
        assert np.linalg.matrix_rank(B[:, kept]) == 4

    def test_priority_respected(self):
        A = np.eye(3)
        B = np.hstack([A, A])  # duplicates
        kept = basis_sweep(B, [3, 4, 5, 0, 1, 2]).kept
        assert kept == [3, 4, 5]

    def test_zero_column_skipped(self):
        A = np.zeros((3, 2))
        A[:, 1] = 1.0
        assert basis_sweep(A, [0, 1]).kept == [1]

    def test_stop_at_rejection_keeps_the_independent_prefix(self):
        B = np.hstack([np.eye(3), np.eye(3)])  # column 3 repeats column 0
        assert basis_sweep(B, [0, 1, 3, 2]).kept == [0, 1, 2]
        sweep = basis_sweep(B, [0, 1, 3, 2], stop_at_rejection=True)
        assert sweep.kept == [0, 1]
        assert sweep.basis.rank == 2

    @pytest.mark.parametrize("stop_at_rejection", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rank_reference(self, seed, stop_at_rejection):
        B = routing_like_matrix(seed)
        order = np.random.default_rng(seed + 100).permutation(B.shape[1])
        sweep = basis_sweep(B, order, stop_at_rejection=stop_at_rejection)
        assert sweep.kept == reference_sweep(B, list(order), stop_at_rejection)
        assert sweep.basis.rank == len(sweep.kept)

    @pytest.mark.parametrize("fmt", ["csc", "csr"])
    def test_sparse_input_matches_dense(self, fmt):
        B = routing_like_matrix(7)
        order = list(range(B.shape[1]))[::-1]
        sparse = getattr(scipy_sparse, f"{fmt}_matrix")(B)
        assert basis_sweep(sparse, order).kept == basis_sweep(B, order).kept

    def test_incremental_basis_rank(self):
        basis = IncrementalColumnBasis(dimension=5)
        rng = np.random.default_rng(13)
        added = sum(basis.try_add(rng.normal(size=5)) for _ in range(10))
        assert added == 5
        assert basis.rank == 5

    def test_basis_rejects_dependent(self):
        basis = IncrementalColumnBasis(dimension=4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert basis.try_add(v)
        assert not basis.try_add(2 * v)

    def test_dimension_validation(self):
        basis = IncrementalColumnBasis(dimension=3)
        with pytest.raises(ValueError):
            basis.try_add(np.ones(4))


class TestQRColumnUpdates:
    """Incremental column adds agree with a fresh QR to working precision."""

    def solve_gap(self, updated, fresh):
        rhs = np.linspace(-1.0, 1.0, updated.num_rows)
        return float(
            np.max(np.abs(updated.solve(rhs) - fresh.solve(rhs)))
        )

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_insert_matches_fresh_qr(self, position, dtype):
        A = random_matrix(25, 7, seed=20)
        # The offered values may arrive in any dtype (routing columns are
        # 0/1 uint8); the update must treat them as float64.
        A[:, position] = A[:, position].astype(dtype)
        base = np.delete(A, position, axis=1)
        factorization = QRFactorization.factorize(
            base, columns=[c for c in range(7) if c != position]
        )
        updated = factorization.add_column(
            A[:, position].astype(dtype), position, position
        )
        assert updated.columns == tuple(range(7))
        assert np.allclose(updated.q @ updated.r, A, atol=1e-10)
        assert np.allclose(updated.q.T @ updated.q, np.eye(7), atol=1e-10)
        fresh = QRFactorization.factorize(A)
        assert self.solve_gap(updated, fresh) < 1e-8
        # The parent factorization is untouched (fresh-copy contract).
        assert np.allclose(factorization.q @ factorization.r, base, atol=1e-10)

    def test_grow_from_empty(self):
        A = random_matrix(10, 3, seed=21)
        factorization = QRFactorization.factorize(A[:, :0], columns=[])
        for j in range(3):
            factorization = factorization.add_column(A[:, j], j)
        assert factorization.columns == (0, 1, 2)
        assert np.allclose(factorization.q @ factorization.r, A, atol=1e-10)
        assert self.solve_gap(factorization, QRFactorization.factorize(A)) < 1e-8

    def test_insert_into_single_column(self):
        A = random_matrix(8, 2, seed=22)
        one = QRFactorization.factorize(A[:, 1:], columns=[1])
        both = one.add_column(A[:, 0], 0, 0)
        assert both.columns == (0, 1)
        assert np.allclose(both.q @ both.r, A, atol=1e-10)

    def test_dependent_column_rejected(self):
        A = random_matrix(12, 4, seed=23)
        factorization = QRFactorization.factorize(A)
        dependent = A @ np.array([1.0, -2.0, 0.5, 3.0])
        with pytest.raises(scipy_linalg.LinAlgError):
            factorization.add_column(dependent, 4)
        with pytest.raises(scipy_linalg.LinAlgError):
            factorization.add_column(np.zeros(12), 4)

    def test_independent_column_onto_rank_deficient_base(self):
        A = random_matrix(10, 3, seed=24)
        A[:, 2] = A[:, 0] + A[:, 1]  # deficient base, but spans only 2 dims
        factorization = QRFactorization.factorize(A)
        assert not factorization.full_rank
        extra = random_matrix(10, 1, seed=25)[:, 0]
        grown = factorization.add_column(extra, 3)
        stacked = np.column_stack([A, extra])
        assert np.allclose(grown.q @ grown.r, stacked, atol=1e-10)

    def test_validation(self):
        factorization = QRFactorization.factorize(random_matrix(6, 2, seed=26))
        with pytest.raises(ValueError):
            factorization.add_column(np.ones(5), 2)  # wrong length
        with pytest.raises(IndexError):
            factorization.add_column(np.ones(6), 2, position=3)

    def test_grow_then_shrink_round_trip(self):
        A = random_matrix(20, 6, seed=27)
        base = QRFactorization.factorize(A[:, :5], columns=range(5))
        for position in (0, 2, 5):
            grown = base.add_column(A[:, 5], 5, position)
            back = grown.remove_column(position)
            assert back.columns == base.columns
            assert self.solve_gap(back, base) < 1e-8
