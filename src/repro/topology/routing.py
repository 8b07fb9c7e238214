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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.topology.graph import Link, Path


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
        matrices (thousands of paths) fit comfortably; a sparse view is
        available through :meth:`to_sparse`.
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
        for position, vlink in enumerate(self.virtual_links):
            if vlink.column != position:
                raise ValueError(
                    f"virtual link {position} names column {vlink.column}; "
                    f"columns must be 0..{len(self.virtual_links) - 1} in order"
                )
            if not vlink.members:
                raise ValueError(f"virtual link of column {position} has no members")
            for member in vlink.members:
                self._phys_to_col[member.index] = position
        # One run per column in a gather of (identity, *physical): the
        # identity's slot 0, then the members shifted by one.
        # ``reduceat`` over the runs aggregates every column at once; a
        # sum that starts from zero adds up exactly as ``ndarray.sum``.
        self._gather = 1 + np.array(
            [i for vlink in self.virtual_links for i in (-1, *vlink.member_indices())],
            dtype=np.intp,
        )
        sizes = np.array([vlink.size + 1 for vlink in self.virtual_links], dtype=np.intp)
        self._run_starts = np.cumsum(sizes) - sizes

    # -- construction -------------------------------------------------------

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path], reduce_aliases: bool = True
    ) -> "RoutingMatrix":
        """Build the reduced routing matrix from probing paths.

        With ``reduce_aliases=False`` only the coverage reduction is applied
        (useful for tests and for exhibiting the rank deficiency the paper
        starts from); columns may then be duplicated.
        """
        if not paths:
            raise ValueError("cannot build a routing matrix from zero paths")
        membership: Dict[int, List[int]] = {}
        link_objects: Dict[int, Link] = {}
        for path in paths:
            for link in path.links:
                membership.setdefault(link.index, []).append(path.index)
                link_objects[link.index] = link

        groups: Dict[Tuple[FrozenSet[int], int], List[int]] = {}
        if reduce_aliases:
            by_signature: Dict[FrozenSet[int], List[int]] = {}
            for link_index, rows in membership.items():
                by_signature.setdefault(frozenset(rows), []).append(link_index)
            for signature, link_indices in by_signature.items():
                groups[(signature, min(link_indices))] = sorted(link_indices)
        else:
            for link_index, rows in membership.items():
                groups[(frozenset(rows), link_index)] = [link_index]

        # Deterministic column order: by smallest member physical index.
        ordered = sorted(groups.items(), key=lambda item: item[0][1])
        virtual_links: List[VirtualLink] = []
        matrix = np.zeros((len(paths), len(ordered)), dtype=np.uint8)
        for column, ((signature, _), link_indices) in enumerate(ordered):
            members = tuple(link_objects[i] for i in link_indices)
            virtual_links.append(VirtualLink(column=column, members=members))
            for row in signature:
                matrix[row, column] = 1
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

    def row(self, path_index: int) -> np.ndarray:
        return self.matrix[path_index]

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

    def to_sparse(self, dtype=np.float64) -> sparse.csr_matrix:
        return sparse.csr_matrix(self.matrix.astype(dtype))

    def rank(self) -> int:
        """Numerical column rank via the incremental-basis primitive.

        Avoids the dense SVD of ``matrix_rank``: the basis sweep works
        column by column on the sparse view, the same kernel the phase-2
        reduction uses.
        """
        from repro.core.linalg import qr_column_rank

        return qr_column_rank(self.to_sparse())

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
