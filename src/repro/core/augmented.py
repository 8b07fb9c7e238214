"""The augmented matrix ``A`` of Definition 1.

``A`` stacks, for every ordered pair of paths ``i <= j``, the element-wise
product ``R_i* (x) R_j*`` of their routing-matrix rows.  Because ``R`` is
binary, the product row marks the links shared by paths ``i`` and ``j``
(for ``i == j`` it is simply ``R_i*``).  Lemma 1 turns the covariance
relation ``Sigma = R diag(v) R^T`` into the linear system
``Sigma* = A v``; Theorem 1 shows ``A`` has full column rank under T.1-2,
making the link variances ``v`` identifiable.

Most path pairs share no link, so most rows of ``A`` are zero and
constrain nothing.  The sparse builder therefore materialises only the
*intersecting* pairs — the paper's "many redundant covariance equations"
drop out for free — while the dense builder reproduces the textbook
object for tests, small systems and the paper's worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse


def num_pair_rows(num_paths: int) -> int:
    """Number of rows of ``A``: ``n_p (n_p + 1) / 2``."""
    return num_paths * (num_paths + 1) // 2


def pair_row_index(i, j, num_paths: int):
    """Canonical row index of the pair ``(i, j)`` with ``i <= j``.

    Rows are ordered (0,0), (0,1), ..., (0,n-1), (1,1), (1,2), ...; this
    is the usual flattening of the upper triangle.  Accepts scalars or
    numpy arrays (vectorised).
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if np.any(i > j):
        raise ValueError("pair_row_index requires i <= j")
    if np.any((i < 0) | (j >= num_paths)):
        raise ValueError("pair indices out of range")
    idx = i * num_paths - (i * (i - 1)) // 2 + (j - i)
    if idx.ndim == 0:
        return int(idx)
    return idx


def pair_from_row_index(row: int, num_paths: int) -> Tuple[int, int]:
    """Invert :func:`pair_row_index` (scalar only)."""
    if not 0 <= row < num_pair_rows(num_paths):
        raise ValueError(f"row {row} out of range")
    i = 0
    remaining = row
    # The i-th block has (num_paths - i) rows.
    while remaining >= num_paths - i:
        remaining -= num_paths - i
        i += 1
    return i, i + remaining


def augmented_matrix(routing_matrix: np.ndarray) -> np.ndarray:
    """Dense ``A`` with the canonical row ordering (all pairs, zero rows kept).

    Shape ``(n_p (n_p + 1) / 2, n_c)``.  Intended for small systems; the
    large-scale path is :func:`intersecting_pairs`.
    """
    R = np.asarray(routing_matrix, dtype=np.float64)
    if R.ndim != 2:
        raise ValueError("routing matrix must be two-dimensional")
    n_paths, n_links = R.shape
    A = np.empty((num_pair_rows(n_paths), n_links), dtype=np.float64)
    cursor = 0
    for i in range(n_paths):
        block = R[i] * R[i:]
        A[cursor : cursor + (n_paths - i)] = block
        cursor += n_paths - i
    return A


@dataclass(frozen=True)
class IntersectingPairs:
    """Sparse ``A`` restricted to path pairs that share at least one link.

    Attributes
    ----------
    matrix:
        CSR matrix of shape ``(num_pairs, n_c)``; row ``r`` is
        ``R_{pair_i[r]}* (x) R_{pair_j[r]}*``.
    pair_i, pair_j:
        The path indices of each retained row (``pair_i <= pair_j``).
    """

    matrix: sparse.csr_matrix
    pair_i: np.ndarray
    pair_j: np.ndarray

    @property
    def num_pairs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_links(self) -> int:
        return int(self.matrix.shape[1])


def intersecting_pairs(routing_matrix: np.ndarray) -> IntersectingPairs:
    """Build the non-zero rows of ``A`` column by column.

    For each link ``k`` with path set ``S_k``, every pair drawn from
    ``S_k`` contributes a 1 in column ``k``.  Collecting the upper
    triangle of ``S_k x S_k`` per column gives exactly the non-zero
    entries of ``A``; pairs sharing no link never appear.  Zero rows are
    redundant in the least-squares sense (they constrain no variance), so
    dropping them leaves the estimate unchanged.
    """
    R = np.asarray(routing_matrix)
    if R.ndim != 2:
        raise ValueError("routing matrix must be two-dimensional")
    n_paths, n_links = R.shape

    row_keys: List[np.ndarray] = []
    col_ids: List[np.ndarray] = []
    for k in range(n_links):
        members = np.flatnonzero(R[:, k])
        if len(members) == 0:
            continue
        iu, ju = np.triu_indices(len(members))
        keys = pair_row_index(members[iu], members[ju], n_paths)
        row_keys.append(np.atleast_1d(keys))
        col_ids.append(np.full(len(iu), k, dtype=np.int64))

    if not row_keys:
        raise ValueError("routing matrix covers no links")
    all_keys = np.concatenate(row_keys)
    all_cols = np.concatenate(col_ids)
    unique_keys, compact_rows = np.unique(all_keys, return_inverse=True)

    matrix = sparse.csr_matrix(
        (
            np.ones(len(all_keys), dtype=np.float64),
            (compact_rows, all_cols),
        ),
        shape=(len(unique_keys), n_links),
    )

    # Recover (i, j) for each retained row from the canonical key.
    pair_i = np.empty(len(unique_keys), dtype=np.int64)
    pair_j = np.empty(len(unique_keys), dtype=np.int64)
    # Vectorised inversion: find i via the block structure.
    block_starts = np.cumsum(
        np.concatenate(([0], np.arange(n_paths, 0, -1)))
    )  # start key of each i-block
    i_of = np.searchsorted(block_starts, unique_keys, side="right") - 1
    pair_i[:] = i_of
    pair_j[:] = unique_keys - block_starts[i_of] + i_of
    return IntersectingPairs(matrix=matrix, pair_i=pair_i, pair_j=pair_j)


def augmented_rank(routing_matrix: np.ndarray, tol: float = None) -> int:
    """Rank of ``A`` (via its non-zero rows; zero rows cannot add rank)."""
    pairs = intersecting_pairs(routing_matrix)
    dense = pairs.matrix.toarray()
    return int(np.linalg.matrix_rank(dense, tol=tol))


def has_identifiable_variances(routing_matrix: np.ndarray) -> bool:
    """Lemma 2: variances are identifiable iff ``A`` has full column rank."""
    R = np.asarray(routing_matrix)
    return augmented_rank(R) == R.shape[1]
