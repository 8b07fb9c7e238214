"""Reduced routing matrices (Section 3.1 of the paper).

From a set of probing paths we build the binary routing matrix ``R`` whose
entry ``R[i, j]`` is 1 when path ``P_i`` traverses link ``e_j``.  Two
reductions are applied, exactly as in the paper:

* **alias reduction** — any group of links traversed by exactly the same set
  of paths is indistinguishable from end-to-end measurements (this includes
  every chain of consecutive links without a branching point) and is merged
  into a single *virtual link*;
* **coverage reduction** — links traversed by no path contribute an all-zero
  column and are dropped.

After both steps, the columns of ``R`` are distinct and non-zero, which is
the precondition of the identifiability results in Section 4.

Both work on the paths' flat ``(indptr, indices)`` rows: each covered
link's set of paths is packed into 64-bit words (``np.packbits``), one
``lexsort`` of the words groups the aliases, and one fancy-index
assignment fills the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Link, Path, flatten_paths


def require_binary(matrix) -> np.ndarray:
    """*matrix* as a two-dimensional array whose every entry is 0 or 1.

    Raises ``ValueError`` naming the first other entry in row-major
    order (``0.5``, ``2``, ``-1`` and ``NaN`` alike), so no cast or
    nonzero test downstream can silently turn it into membership.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("routing matrix must be two-dimensional")
    bad = (matrix != 0) & (matrix != 1)
    if bad.any():
        row, column = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"routing matrix entry ({row}, {column}) is "
            f"{matrix[row, column]!r}; entries must be 0 or 1"
        )
    return matrix


def within_group_pairs(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of positions ``first <= second`` in one group.

    The positions ``0, 1, ...`` form consecutive groups of the given
    *sizes* (zeros allowed).  The pairs come out by ``first``, then
    ``second``, and include ``first == second``; a group of ``m``
    positions gives ``m (m + 1) / 2`` pairs.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    # Position f pairs with itself and the rest of its group.
    rest = np.repeat(np.cumsum(sizes), sizes)
    size = rest.size
    rest -= np.arange(size)
    first = np.repeat(np.arange(size), rest)
    # second runs over f, f + 1, ..., f + rest[f] - 1 for each f in turn.
    offset = np.arange(size) - (np.cumsum(rest) - rest)
    second = np.arange(first.size) + np.repeat(offset, rest)
    return first, second


@dataclass(frozen=True)
class VirtualLink:
    """A routing-matrix column: one or more alias physical links.

    The log transmission rate of a virtual link is the *sum* of the log
    transmission rates of its members, because every traversing packet
    crosses all of them.
    """

    column: int
    members: Tuple[Link, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def member_indices(self) -> Tuple[int, ...]:
        return tuple(link.index for link in self.members)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ",".join(str(link.index) for link in self.members)
        return f"v{self.column}[{inner}]"


class RoutingMatrix:
    """The reduced routing matrix ``R`` plus its bookkeeping.

    Attributes
    ----------
    matrix:
        ``(num_paths, num_columns)`` dense uint8 array.  Tomography-scale
        matrices (thousands of paths) fit comfortably, and the inference
        engine reads its float64 columns straight out of it.
    paths:
        The probing paths, row ``i`` of :attr:`matrix` describing
        ``paths[i]``.
    virtual_links:
        One :class:`VirtualLink` per column, in column order.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        paths: Sequence[Path],
        virtual_links: Sequence[VirtualLink],
    ) -> None:
        matrix = require_binary(matrix).astype(np.uint8, copy=False)
        if matrix.shape[0] != len(paths):
            raise ValueError("one row per path required")
        if matrix.shape[1] != len(virtual_links):
            raise ValueError("one column per virtual link required")
        self.matrix = matrix
        self.paths = list(paths)
        self.virtual_links = list(virtual_links)
        self._phys_to_col: Dict[int, int] = {}
        # One run per column in a gather of (identity, *physical): the
        # identity's slot 0, then the members shifted by one.
        # ``reduceat`` over the runs aggregates every column at once; a
        # sum that starts from zero adds up exactly as ``ndarray.sum``.
        gather: List[int] = []
        run_starts: List[int] = []
        for position, vlink in enumerate(self.virtual_links):
            if vlink.column != position:
                raise ValueError(
                    f"virtual link {position} names column {vlink.column}; "
                    f"columns must be 0..{len(self.virtual_links) - 1} in order"
                )
            if not vlink.members:
                raise ValueError(f"virtual link of column {position} has no members")
            run_starts.append(len(gather))
            gather.append(0)
            for member in vlink.members:
                self._phys_to_col[member.index] = position
                gather.append(member.index + 1)
        self._gather = np.array(gather, dtype=np.intp)
        self._run_starts = np.array(run_starts, dtype=np.intp)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "RoutingMatrix":
        """Build the reduced routing matrix from probing paths.

        Row ``i`` describes ``paths[i]``, so each path's ``index`` must be
        its position.  Each covered link's column of the path-by-link
        incidence is packed into 64-bit words (``np.packbits``) and the
        words are sorted; links with equal words are aliases and share one
        virtual link, its members in index order.  Columns run by smallest
        member index.
        """
        if not paths:
            raise ValueError("cannot build a routing matrix from zero paths")
        for position, path in enumerate(paths):
            if path.index != position:
                raise ValueError(f"path {path} has index {path.index} at position "
                                 f"{position}; paths must be indexed 0..{len(paths) - 1}")
        indptr, indices = flatten_paths(paths)
        rows = np.repeat(np.arange(len(paths)), np.diff(indptr))
        covered, link_of = np.unique(indices, return_inverse=True)
        # Each covered link's set of paths as bits in whole 64-bit words.
        bits = np.zeros((covered.size, -(-len(paths) // 64) * 64), dtype=bool)
        bits[link_of, rows] = True
        words = np.packbits(bits, axis=1).view(np.uint64)
        # Sorting the words brings aliases together.  Covered links run in
        # index order, so a group's smallest position is its smallest
        # member, and the columns go by it.
        order = np.lexsort(words.T)
        starts = np.ones(covered.size, dtype=bool)
        starts[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
        group = np.empty_like(order)
        group[order] = np.cumsum(starts) - 1
        smallest = np.minimum.reduceat(order, np.flatnonzero(starts))
        column = np.argsort(np.argsort(smallest))[group]
        matrix = np.zeros((len(paths), smallest.size), dtype=np.uint8)
        matrix[rows, column[link_of]] = 1
        # A link index's ``Link`` is the one at its last incidence.
        link_of_index = {link.index: link for path in paths for link in path.links}
        members: List[List[Link]] = [[] for _ in range(smallest.size)]
        for c, index in zip(column.tolist(), covered.tolist()):
            members[c].append(link_of_index[index])
        virtual_links = [VirtualLink(c, tuple(links)) for c, links in enumerate(members)]
        return cls(matrix=matrix, paths=paths, virtual_links=virtual_links)

    # -- shape and lookup ----------------------------------------------------

    @property
    def num_paths(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_links(self) -> int:
        """Number of covered (virtual) links, ``n_c`` in the paper."""
        return self.matrix.shape[1]

    def column_of_physical(self, link_index: int) -> Optional[int]:
        """Column carrying physical link *link_index*, or None if uncovered."""
        return self._phys_to_col.get(link_index)

    def columns_of_path(self, path_index: int) -> np.ndarray:
        """Indices of the virtual links traversed by one path."""
        return np.flatnonzero(self.matrix[path_index])

    def rows_by_beacon(self) -> Dict[int, List[int]]:
        """Group row indices by the beacon (path source) that produced them."""
        grouped: Dict[int, List[int]] = {}
        for i, path in enumerate(self.paths):
            grouped.setdefault(path.source, []).append(i)
        return grouped

    # -- linear algebra views -------------------------------------------------

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        return self.matrix.astype(dtype)

    def rank(self) -> int:
        """Numerical column rank via the incremental-basis primitive.

        Avoids the dense SVD of ``matrix_rank``: the basis sweep works
        column by column on the uint8 matrix, the same kernel the
        phase-2 reduction uses.
        """
        from repro.core.linalg import qr_column_rank

        return qr_column_rank(self.matrix)

    # -- ground-truth aggregation ----------------------------------------------

    def _aggregate(self, ufunc, physical: np.ndarray, identity) -> np.ndarray:
        padded = np.concatenate(([identity], physical))
        return ufunc.reduceat(padded[self._gather], self._run_starts)

    def aggregate_log_rates(self, physical_log_rates: np.ndarray) -> np.ndarray:
        """Map per-physical-link log rates to per-column (virtual) log rates.

        The virtual link's log transmission rate is the sum over members.
        *physical_log_rates* is indexed by physical :attr:`Link.index`.
        """
        physical_log_rates = np.asarray(physical_log_rates, dtype=np.float64)
        return self._aggregate(np.add, physical_log_rates, 0.0)

    def aggregate_rates(self, physical_rates: np.ndarray) -> np.ndarray:
        """Map per-physical-link transmission rates to per-column products."""
        physical_rates = np.asarray(physical_rates, dtype=np.float64)
        return self._aggregate(np.multiply, physical_rates, 1.0)

    def aggregate_any(self, physical_flags: np.ndarray) -> np.ndarray:
        """Map a per-physical-link boolean to per-column logical OR.

        Used to carry ground-truth congestion marks through alias reduction:
        a virtual link is congested when any member is.
        """
        physical_flags = np.asarray(physical_flags, dtype=bool)
        return self._aggregate(np.logical_or, physical_flags, False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoutingMatrix(paths={self.num_paths}, links={self.num_links})"
