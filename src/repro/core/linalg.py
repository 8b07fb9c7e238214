"""Dense linear-algebra kernels used by LIA.

The paper solves its linear systems "using Householder reflection to
compute an orthogonal-triangular factorization" (Golub & Van Loan).
Here that factorization is LAPACK's: :class:`QRFactorization` holds the
economy QR of the kept-column block ``R*`` for reuse across right-hand
sides, with Givens downdates and CGS2 updates when one column leaves or
joins.  The module also holds the incremental Gram–Schmidt column
selector used by the full-rank reduction strategies.  Everything is
cross-checked against numpy/scipy in the test suite.

The incremental basis stores its vectors in a preallocated 2-D array,
so each orthogonalisation is two ``B.T @ v`` / ``B @ w`` matvecs instead
of a Python loop over basis vectors.  The seed's modified Gram–Schmidt
basis lives on in the test suite as the pinning oracle for the
equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as scipy_linalg
from scipy import sparse
from scipy.linalg import lapack as scipy_lapack

from repro.core import kernels

#: Residual-norm ratio below which :meth:`QRFactorization.add_column`
#: declares the offered column dependent and refuses the update.  Same
#: tolerance as the reduction's basis offers, so a column the greedy
#: sweep accepted is also updatable.
ADD_COLUMN_REL_TOL = 1e-9


def solve_upper_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``r x = b`` (upper triangular) straight through LAPACK ``trtrs``.

    Bit-identical to ``scipy.linalg.solve_triangular(r, b, lower=False)``
    while skipping ~10x of per-call wrapper overhead — the batched
    ``infer_many`` path issues one of these per tree, so the constant
    matters.  scipy avoids copying a C-contiguous matrix into Fortran
    order by solving the transposed system (``trtrs(r.T, b, lower=True,
    trans=True)``); mirroring that dispatch exactly is what makes the
    results identical to the last bit, not just to precision.
    """
    if r.flags.c_contiguous:
        x, info = scipy_lapack.dtrtrs(
            r.T, b, lower=1, trans=1, unitdiag=0, overwrite_b=0
        )
    else:
        x, info = scipy_lapack.dtrtrs(
            r, b, lower=0, trans=0, unitdiag=0, overwrite_b=0
        )
    if info > 0:
        raise scipy_linalg.LinAlgError(
            f"singular triangular system: zero diagonal entry {info}"
        )
    if info < 0:
        raise ValueError(f"illegal trtrs argument {-info}")
    return x


@dataclass(frozen=True)
class QRFactorization:
    """Thin QR of a (tall, full-column-rank) matrix, built for reuse.

    The inference engine solves ``R* x = y`` for many right-hand sides
    against the *same* kept-column set; holding ``Q`` and ``R`` makes
    each additional solve two triangular-cost operations instead of a
    fresh factorization.  ``columns`` records which source columns the
    factorization covers (the engine's cache key).

    ``remove_column`` returns the factorization of the same matrix with
    one column deleted, restored to triangular form with Givens
    rotations — an O(m k) downdate versus an O(m k^2) refactorization.
    ``add_column`` is the matching *update*: a CGS2 column offer plus a
    Givens sweep, O(m k) against the O(m k^2) fresh QR it replaces.
    """

    q: np.ndarray  # (m, k), orthonormal columns
    r: np.ndarray  # (k, k), upper triangular
    columns: Tuple[int, ...]

    @classmethod
    def factorize(
        cls,
        matrix: np.ndarray,
        columns: Optional[Sequence[int]] = None,
    ) -> "QRFactorization":
        """Factorize a dense (or sparse, densified) matrix by economy LAPACK QR."""
        if sparse.issparse(matrix):
            matrix = matrix.toarray()
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if A.shape[0] < A.shape[1]:
            raise ValueError("QRFactorization requires m >= n")
        if columns is None:
            columns = range(A.shape[1])
        cols = tuple(int(c) for c in columns)
        if len(cols) != A.shape[1]:
            raise ValueError("one column label per matrix column required")
        q, r = scipy_linalg.qr(A, mode="economic", check_finite=False)
        # LAPACK hands back Fortran-order arrays; the update/downdate
        # kernels want C-contiguous Q, and paying the layout copy once
        # here keeps it out of every incremental refresh.
        return cls(q=np.ascontiguousarray(q), r=np.triu(r), columns=cols)

    @property
    def num_rows(self) -> int:
        return int(self.q.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.r.shape[0])

    @cached_property
    def full_rank(self) -> bool:
        """Whether every pivot clears a relative tolerance, computed once.

        The factorization is frozen, so the verdict never changes.  The
        engine consults it on *every* solve, and these four numpy
        reductions, run per call, were the single largest cost of a warm
        small-tree inference (~40% of ``infer_many``).
        """
        if self.num_columns == 0:
            return True
        diag = np.abs(np.diag(self.r))
        scale = max(float(np.max(np.abs(self.r))), 1.0)
        return bool(np.min(diag) > 1e-12 * scale * self.num_columns)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solve for a 1-D rhs or a 2-D multi-RHS block.

        A 2-D *rhs* of shape ``(m, s)`` is solved in one pass — this is
        what makes ``infer_batch`` one factorization plus one triangular
        solve for a whole window of snapshots.
        """
        b = np.asarray(rhs, dtype=np.float64)
        if b.shape[0] != self.num_rows:
            raise ValueError("rhs row count does not match factorization")
        if self.num_columns == 0:
            shape = (0,) if b.ndim == 1 else (0, b.shape[1])
            return np.zeros(shape, dtype=np.float64)
        return solve_upper_triangular(self.r, self.q.T @ b)

    def remove_column(self, position: int) -> "QRFactorization":
        """Downdate: the factorization with column *position* deleted.

        Deleting column ``p`` of ``R`` leaves an upper-Hessenberg matrix;
        one Givens rotation per subdiagonal entry restores triangularity,
        and the same rotations applied to ``Q``'s columns keep ``Q R``
        equal to the reduced matrix.
        """
        k = self.num_columns
        if not 0 <= position < k:
            raise IndexError(f"no column {position} in a rank-{k} factorization")
        r = np.ascontiguousarray(np.delete(self.r, position, axis=1))
        # np.array (not ascontiguousarray) so q is always a fresh copy —
        # the kernel rotates it in place and must never touch self.q.
        q = np.array(self.q, dtype=np.float64, order="C")
        kernels.givens_downdate(r, q, position)
        remaining = self.columns[:position] + self.columns[position + 1 :]
        return QRFactorization(
            q=q[:, : k - 1], r=np.triu(r[: k - 1, :]), columns=remaining
        )

    def add_column(
        self,
        values: np.ndarray,
        column: int,
        position: Optional[int] = None,
    ) -> "QRFactorization":
        """Update: the factorization with a new column inserted.

        *values* is the new matrix column, *column* its label, and
        *position* where it lands in the column order (default: append
        last).  The column is orthogonalised against ``Q`` with the same
        CGS2 kernel the incremental basis uses, the normalised residual
        becomes the new basis vector, and — when the column is not
        appended last — a bottom-up Givens sweep restores triangularity:
        O(m k) total versus O(m k^2) for a fresh QR.

        Raises :class:`scipy.linalg.LinAlgError` when the offered column
        sits (numerically) inside the current column span — an update
        cannot represent a rank-deficient block, so the caller should
        refactorize instead.
        """
        k = self.num_columns
        m = self.num_rows
        a = np.array(values, dtype=np.float64)
        if a.shape != (m,):
            raise ValueError(f"expected a column of length {m}, got {a.shape}")
        if position is None:
            position = k
        if not 0 <= position <= k:
            raise IndexError(
                f"insert position {position} outside [0, {k}]"
            )
        norm0 = float(np.linalg.norm(a))
        v = a.copy()
        if k:
            v = kernels.cgs2_project(np.ascontiguousarray(self.q), k, v)
        rho = float(np.linalg.norm(v))
        if norm0 == 0.0 or rho <= ADD_COLUMN_REL_TOL * norm0:
            raise scipy_linalg.LinAlgError(
                "offered column is (numerically) dependent on the "
                "factorized columns; refactorize instead of updating"
            )
        q = np.empty((m, k + 1), dtype=np.float64)
        q[:, :k] = self.q
        q[:, k] = v / rho
        r = np.zeros((k + 1, k + 1), dtype=np.float64)
        r[:k, :position] = self.r[:, :position]
        r[:k, position + 1 :] = self.r[:, position:]
        # The exact combined coefficients of both CGS2 passes: the
        # projected-out component a - v lies in span(Q) by construction.
        if k:
            r[:k, position] = self.q.T @ (a - v)
        r[k, position] = rho
        if position < k:
            kernels.givens_insert_column(r, q, position)
        inserted = (
            self.columns[:position] + (int(column),) + self.columns[position:]
        )
        return QRFactorization(q=q, r=np.triu(r), columns=inserted)


def column_source(matrix):
    """*matrix* in a form :func:`dense_column` reads without densifying it.

    Sparse input becomes float64 CSC, dense input a float64 array.  A
    float64 CSC input comes back as is, so a caller that converts once
    can hand the result to every consumer for free.
    """
    if sparse.issparse(matrix):
        return matrix.tocsc().astype(np.float64, copy=False)
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    return dense


def as_csc(matrix) -> sparse.csc_matrix:
    """*matrix* (dense or sparse) as a float64 CSC matrix; a dense one in
    one sparse construction, straight from its non-zero pattern."""
    if sparse.issparse(matrix):
        return column_source(matrix)
    dense = np.asarray(matrix)
    if dense.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    columns, rows = np.nonzero(dense.T)
    indptr = np.searchsorted(columns, np.arange(dense.shape[1] + 1))
    values = dense[rows, columns].astype(np.float64)
    return sparse.csc_matrix((values, rows, indptr), shape=dense.shape)


def dense_column(matrix, index: int) -> np.ndarray:
    """Column *index* of a :func:`column_source` result as a fresh vector."""
    if isinstance(matrix, np.ndarray):
        return matrix[:, index].copy()
    out = np.zeros(matrix.shape[0], dtype=np.float64)
    start, end = matrix.indptr[index], matrix.indptr[index + 1]
    out[matrix.indices[start:end]] = matrix.data[start:end]
    return out


def qr_column_rank(matrix, rel_tol: float = 1e-9) -> int:
    """Numerical column rank via the incremental basis (dense or sparse).

    Unpivoted QR is not rank revealing (a dependent column can still leave
    a non-negligible diagonal entry further right), so we count columns
    that enlarge the span instead — the same primitive the phase-2
    reduction uses.
    """
    A = column_source(matrix)
    return len(basis_sweep(A, range(A.shape[1]), rel_tol=rel_tol).kept)


#: Initial column capacity of the preallocated basis storage.
_INITIAL_CAPACITY = 32


@dataclass
class IncrementalColumnBasis:
    """Grow an orthonormal basis one column at a time.

    Used by the greedy full-rank reduction: columns are offered in
    decreasing variance order and accepted when linearly independent of
    the columns accepted so far.

    The basis lives in a preallocated ``(dimension, capacity)`` array
    (capacity doubles on demand, capped at ``dimension``), so each offer
    orthogonalises with two classical Gram–Schmidt passes — four BLAS-2
    products total — instead of a Python loop over basis vectors.  Two
    passes make classical GS as robust as the seed's modified GS
    ("twice is enough"); the equivalence tests pin the two to the same
    decisions.
    """

    dimension: int
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        capacity = min(self.dimension, _INITIAL_CAPACITY)
        self._storage = np.empty((self.dimension, capacity), dtype=np.float64)
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def basis_matrix(self) -> np.ndarray:
        """Read-only view of the accepted orthonormal columns."""
        view = self._storage[:, : self._rank]
        view.flags.writeable = False
        return view

    def _grow(self) -> None:
        if self._rank < self._storage.shape[1]:
            return
        capacity = min(self.dimension, max(2 * self._storage.shape[1], 1))
        storage = np.empty((self.dimension, capacity), dtype=np.float64)
        storage[:, : self._rank] = self._storage[:, : self._rank]
        self._storage = storage

    def try_add(self, column: np.ndarray) -> bool:
        """Add *column* if it enlarges the span; return whether it did."""
        v = np.array(column, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(
                f"expected column of length {self.dimension}, got {v.shape}"
            )
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            return False
        if self._rank:
            v = kernels.cgs2_project(self._storage, self._rank, v)
        norm1 = float(np.linalg.norm(v))
        if norm1 <= self.rel_tol * norm0:
            return False
        self._grow()
        self._storage[:, self._rank] = v / norm1
        self._rank += 1
        return True


class BasisSweep(NamedTuple):
    """What one :func:`basis_sweep` kept, and the basis spanning it."""

    kept: List[int]
    basis: IncrementalColumnBasis


def basis_sweep(
    matrix,
    candidates: Iterable[int],
    rel_tol: float = 1e-9,
    stop_at_rejection: bool = False,
) -> BasisSweep:
    """Offer *candidates* in order to one fresh incremental basis.

    Accepts dense arrays and scipy sparse matrices (CSC/CSR) without
    densifying the whole matrix.  ``kept`` lists the accepted column
    indices in scan order, and ``basis`` spans exactly them.  Every
    column the sweep rejected is dependent on accepted ones, so ``kept``
    is a maximal independent subset of the scanned columns.  With
    *stop_at_rejection* the sweep ends at its first rejection instead:
    ``kept`` is then the longest independent prefix of *candidates*.
    """
    A = column_source(matrix)
    basis = IncrementalColumnBasis(dimension=A.shape[0], rel_tol=rel_tol)
    kept: List[int] = []
    for col in candidates:
        if basis.try_add(dense_column(A, int(col))):
            kept.append(int(col))
        elif stop_at_rejection:
            break
    return BasisSweep(kept, basis)
