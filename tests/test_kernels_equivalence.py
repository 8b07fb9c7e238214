"""Equivalence tests pinning the batched kernels to the seed paths.

The array-backed incremental basis legitimately reorders floating-point
sums, so it is pinned to the seed pure-Python implementation (kept in
``tests/oracles.py``) and to numpy/scipy to tight tolerances rather
than bit for bit.  Phase 2's column reads are pinned to the seed's CSC
source bit for bit in ``tests/test_phase2_oracle.py``.
"""

import numpy as np
import pytest

from repro.core.linalg import IncrementalColumnBasis, QRFactorization
from repro.core.engine import FactorizationCache
from repro.core.reduction import reduce_to_full_rank
from tests.oracles import SeedColumnBasis


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).normal(size=(m, n))


def random_binary(m, n, seed, density=0.25):
    rng = np.random.default_rng(seed)
    R = (rng.random(size=(m, n)) < density).astype(np.float64)
    # Every column covered, per the routing-matrix precondition.
    empty = np.flatnonzero(R.sum(axis=0) == 0)
    R[rng.integers(0, m, size=len(empty)), empty] = 1.0
    return R


class TestBatchedBasisAgainstSeed:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_acceptance_decisions(self, seed):
        rng = np.random.default_rng(seed)
        dim = 12
        fast = IncrementalColumnBasis(dimension=dim)
        ref = SeedColumnBasis(dimension=dim)
        base = rng.normal(size=(dim, 6))
        offers = []
        for _ in range(30):
            if rng.random() < 0.4:  # dependent offer
                offers.append(base @ rng.normal(size=6))
            else:
                offers.append(rng.normal(size=dim))
        decisions_fast = [fast.try_add(v) for v in offers]
        decisions_ref = [ref.try_add(v) for v in offers]
        assert decisions_fast == decisions_ref
        assert fast.rank == ref.rank
        B_fast, B_ref = fast.basis_matrix, ref.basis_matrix
        assert np.allclose(B_fast.T @ B_fast, np.eye(fast.rank), atol=1e-10)
        # Same span either way.
        assert np.allclose(
            B_fast @ (B_fast.T @ B_ref), B_ref, atol=1e-8
        )

    def test_capacity_growth_beyond_initial(self):
        dim = 100
        basis = IncrementalColumnBasis(dimension=dim)
        rng = np.random.default_rng(7)
        for _ in range(70):
            basis.try_add(rng.normal(size=dim))
        assert basis.rank == 70
        B = basis.basis_matrix
        assert np.allclose(B.T @ B, np.eye(70), atol=1e-9)


class TestPaperSweepAgainstSeedSearch:
    @staticmethod
    def seed_binary_search(R, variances):
        """The seed implementation: binary search over full SVD ranks."""
        R = np.asarray(R, dtype=np.float64)
        n_cols = R.shape[1]
        ascending = np.lexsort((np.arange(len(variances)), variances))

        def rank(M):
            return 0 if M.shape[1] == 0 else int(np.linalg.matrix_rank(M))

        lo, hi = 0, n_cols
        if rank(R) == n_cols:
            return np.sort(ascending)
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            kept = ascending[mid:]
            if rank(R[:, kept]) == len(kept):
                hi = mid
            else:
                lo = mid + 1
        return np.sort(ascending[hi:])

    @pytest.mark.parametrize("seed", range(8))
    def test_sweep_matches_binary_search(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 40))
        n = int(rng.integers(4, 30))
        R = random_binary(m, n, seed=seed + 100, density=0.3)
        v = rng.random(n)
        result = reduce_to_full_rank(R, v, strategy="paper")
        assert np.array_equal(
            result.kept_columns, self.seed_binary_search(R, v)
        )


def _engine_solve(R, y, reduction):
    """The engine's one reduced solve, re-embedded and clipped as it does."""
    x = np.zeros(R.shape[1])
    kept = reduction.kept_columns
    x[kept] = np.minimum(FactorizationCache(R).solve(kept, y), 0.0)
    return x


def _lstsq_on_kept_block(R, y, reduction):
    """The seed's answer: minimum-norm ``lstsq`` on the dense ``R*``."""
    x = np.zeros(R.shape[1])
    kept = reduction.kept_columns
    x_star, *_ = np.linalg.lstsq(
        np.asarray(R, dtype=np.float64)[:, kept], y, rcond=None
    )
    x[kept] = np.minimum(x_star, 0.0)
    return x


class TestSolverEquivalence:
    def test_matches_seed_lstsq(self, figure2):
        _, _, routing = figure2
        rng = np.random.default_rng(21)
        v = rng.random(routing.num_links)
        reduction = reduce_to_full_rank(routing.matrix, v, strategy="paper")
        y = -rng.random(routing.num_paths)
        fast = _engine_solve(routing.matrix, y, reduction)
        seed = _lstsq_on_kept_block(routing.matrix, y, reduction)
        assert np.allclose(fast, seed, atol=1e-9)

    def test_auto_falls_back_on_dependent_kept_set(self):
        # A hand-built reduction with dependent kept columns must still
        # produce the seed's minimum-norm-style answer, not garbage.
        from repro.core.reduction import ReductionResult

        R = np.zeros((4, 3))
        R[:, 0] = [1, 1, 0, 0]
        R[:, 1] = [1, 1, 0, 0]  # duplicate of column 0
        R[:, 2] = [0, 0, 1, 1]
        reduction = ReductionResult(
            kept_columns=np.array([0, 1, 2]),
            removed_columns=np.array([], dtype=np.int64),
            strategy="paper",
        )
        y = -np.ones(4)
        fast = _engine_solve(R, y, reduction)
        seed = _lstsq_on_kept_block(R, y, reduction)
        assert np.allclose(fast, seed, atol=1e-9)


class TestQRFactorizationObject:
    def test_downdate_matches_refactorization(self):
        A = random_matrix(25, 9, seed=22)
        factorization = QRFactorization.factorize(A, columns=range(9))
        for position in (0, 3, 8):
            down = factorization.remove_column(position)
            B = np.delete(A, position, axis=1)
            again = QRFactorization.factorize(B)
            assert down.columns == tuple(
                c for c in range(9) if c != position
            )
            assert np.allclose(down.q @ down.r, B, atol=1e-10)
            b = np.linspace(-1, 1, 25)
            assert np.allclose(down.solve(b), again.solve(b), atol=1e-9)

    def test_chained_downdates(self):
        A = random_matrix(15, 6, seed=23)
        factorization = QRFactorization.factorize(A, columns=range(6))
        down = factorization.remove_column(1).remove_column(3)
        kept = [0, 2, 3, 5]
        assert down.columns == tuple(kept)
        assert np.allclose(down.q @ down.r, A[:, kept], atol=1e-10)

    def test_householder_method_matches_lapack(self):
        """A factorization holding numpy's Householder QR solves alike."""
        A = random_matrix(30, 12, seed=24)
        b = random_matrix(30, 1, seed=25).ravel()
        lapack = QRFactorization.factorize(A)
        Q, R = np.linalg.qr(A)
        householder = QRFactorization(q=Q, r=R, columns=tuple(range(12)))
        assert np.allclose(lapack.solve(b), householder.solve(b), atol=1e-8)

    def test_multi_rhs_matches_column_loop(self):
        A = random_matrix(30, 12, seed=26)
        B = random_matrix(30, 7, seed=27)
        factorization = QRFactorization.factorize(A)
        X = factorization.solve(B)
        for j in range(B.shape[1]):
            assert np.allclose(X[:, j], factorization.solve(B[:, j]), atol=1e-12)

