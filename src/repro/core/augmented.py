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
drop out for free — in one bulk pass over the link incidences, while the
dense builder reproduces the textbook object for tests, small systems
and the paper's worked example.  Both take only 0/1 routing matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.routing import require_binary, within_group_pairs


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


def pair_from_row_index(row, num_paths: int):
    """Invert :func:`pair_row_index`.

    A scalar row gives an ``(i, j)`` tuple of ints; an array of rows
    gives a tuple of two ``int64`` arrays (vectorised).
    """
    row = np.asarray(row, dtype=np.int64)
    if np.any((row < 0) | (row >= num_pair_rows(num_paths))):
        raise ValueError(f"pair row index out of range for {num_paths} paths")
    # The i-th block starts at the diagonal row (i, i).
    diagonal = np.arange(num_paths)
    block_starts = pair_row_index(diagonal, diagonal, num_paths)
    i = np.searchsorted(block_starts, row, side="right") - 1
    j = row - block_starts[i] + i
    if i.ndim == 0:
        return int(i), int(j)
    return i, j


def augmented_matrix(routing_matrix: np.ndarray) -> np.ndarray:
    """Dense ``A`` with the canonical row ordering (all pairs, zero rows kept).

    Shape ``(n_p (n_p + 1) / 2, n_c)``.  Intended for small systems; the
    large-scale path is :func:`intersecting_pairs`.
    """
    R = require_binary(routing_matrix).astype(np.float64)
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
    """``A`` restricted to path pairs that share at least one link.

    Retained row ``r`` is ``R_{pair_i[r]}* (x) R_{pair_j[r]}*``, held as
    flat CSR arrays: its entries are ``data[indptr[r]:indptr[r + 1]]``
    (all 1) in the ascending columns ``indices[indptr[r]:indptr[r + 1]]``.

    Attributes
    ----------
    indptr, indices, data:
        The CSR arrays of the ``(num_pairs, num_links)`` matrix.
    pair_i, pair_j:
        The path indices of each retained row (``pair_i <= pair_j``).
    num_links:
        The number of columns.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    num_links: int

    @property
    def num_pairs(self) -> int:
        return int(self.pair_i.size)


def intersecting_pairs(routing_matrix: np.ndarray) -> IntersectingPairs:
    """Build the non-zero rows of ``A`` in one bulk pass.

    For each link ``k`` with path set ``S_k``, every pair drawn from
    ``S_k`` contributes a 1 in column ``k``.  The incidences, grouped by
    link with paths ascending, give the upper triangle of ``S_k x S_k``
    for every column at once
    (:func:`~repro.topology.routing.within_group_pairs`); these are
    exactly the non-zero entries of ``A``, and pairs sharing no link
    never appear.  Zero rows are redundant in the least-squares sense
    (they constrain no variance), so dropping them leaves the estimate
    unchanged.
    """
    R = require_binary(routing_matrix)
    n_paths, n_links = R.shape
    cols, rows = np.nonzero(R.T)
    if cols.size == 0:
        raise ValueError("routing matrix covers no links")
    first, second = within_group_pairs(np.bincount(cols, minlength=n_links))
    keys = pair_row_index(rows[first], rows[second], n_paths)
    # One sort puts the entries in CSR order: by row key, then column.
    keys, indices = np.divmod(np.sort(keys * n_links + cols[first]), n_links)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    pair_i, pair_j = pair_from_row_index(keys[starts], n_paths)
    return IntersectingPairs(
        indptr=np.append(starts, keys.size),
        indices=indices,
        data=np.ones(keys.size),
        pair_i=pair_i,
        pair_j=pair_j,
        num_links=n_links,
    )


def augmented_rank(routing_matrix: np.ndarray, tol: float = None) -> int:
    """Rank of ``A`` (via its non-zero rows; zero rows cannot add rank)."""
    pairs = intersecting_pairs(routing_matrix)
    dense = np.zeros((pairs.num_pairs, pairs.num_links))
    rows = np.repeat(np.arange(pairs.num_pairs), np.diff(pairs.indptr))
    dense[rows, pairs.indices] = pairs.data
    return int(np.linalg.matrix_rank(dense, tol=tol))


def has_identifiable_variances(routing_matrix: np.ndarray) -> bool:
    """Lemma 2: variances are identifiable iff ``A`` has full column rank."""
    R = np.asarray(routing_matrix)
    return augmented_rank(R) == R.shape[1]
