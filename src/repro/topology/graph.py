"""Directed network graph model.

The paper models the network as a directed graph ``G(V, E)`` whose nodes are
routers/hosts and whose edges are unidirectional communication links
(Section 3.1).  This module provides that model plus deterministic
shortest-path routing.  Routing is *destination-consistent*: ties are broken
by a canonical ordering so that repeated computations give identical paths
(Assumption T.1, time-invariant routing) and paths from one source form a
tree (a prerequisite of Assumption T.2, no route fluttering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

NodeId = int


@dataclass(frozen=True)
class Link:
    """A directed physical link ``tail -> head``.

    ``index`` is the position of the link in :attr:`Network.links`; it is
    assigned by the :class:`Network` and used everywhere else in the library
    as the canonical link identifier.
    """

    index: int
    tail: NodeId
    head: NodeId

    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.tail, self.head)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"e{self.index}({self.tail}->{self.head})"


class Network:
    """A directed graph with O(1) link lookup by endpoints.

    Nodes are dense integers ``0..n-1``; this keeps routing-matrix
    construction and the simulators allocation-friendly.  Links are added
    one direction at a time; use :meth:`add_duplex` for a bidirectional pair
    (the common case for Internet topologies, where each direction is an
    independent tomography unknown).
    """

    def __init__(self) -> None:
        self._links: List[Link] = []
        self._out: Dict[NodeId, List[Link]] = {}
        self._in: Dict[NodeId, List[Link]] = {}
        self._by_endpoints: Dict[Tuple[NodeId, NodeId], Link] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node: NodeId) -> NodeId:
        """Register *node* (idempotent) and return it."""
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []
        return node

    def add_link(self, tail: NodeId, head: NodeId) -> Link:
        """Add the directed link ``tail -> head`` and return it.

        Parallel links between the same pair are rejected: they would be
        indistinguishable from end to end and are never needed by the
        generators (alias reduction would merge them anyway).
        """
        if tail == head:
            raise ValueError(f"self-loop at node {tail} is not a valid link")
        if (tail, head) in self._by_endpoints:
            raise ValueError(f"duplicate link {tail}->{head}")
        self.add_node(tail)
        self.add_node(head)
        link = Link(index=len(self._links), tail=tail, head=head)
        self._links.append(link)
        self._out[tail].append(link)
        self._in[head].append(link)
        self._by_endpoints[(tail, head)] = link
        return link

    def add_duplex(self, a: NodeId, b: NodeId) -> Tuple[Link, Link]:
        """Add both directions between *a* and *b*."""
        return self.add_link(a, b), self.add_link(b, a)

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def links(self) -> Sequence[Link]:
        return tuple(self._links)

    def nodes(self) -> Iterator[NodeId]:
        return iter(sorted(self._out))

    def link(self, index: int) -> Link:
        return self._links[index]

    def find_link(self, tail: NodeId, head: NodeId) -> Optional[Link]:
        return self._by_endpoints.get((tail, head))

    def has_node(self, node: NodeId) -> bool:
        return node in self._out

    def out_links(self, node: NodeId) -> Sequence[Link]:
        return tuple(self._out.get(node, ()))

    def in_links(self, node: NodeId) -> Sequence[Link]:
        return tuple(self._in.get(node, ()))

    def out_degree(self, node: NodeId) -> int:
        return len(self._out.get(node, ()))

    def in_degree(self, node: NodeId) -> int:
        return len(self._in.get(node, ()))

    def degree(self, node: NodeId) -> int:
        return self.out_degree(node) + self.in_degree(node)

    # -- routing -----------------------------------------------------------

    def shortest_path_trees(
        self, sources: Sequence[NodeId]
    ) -> List[Dict[NodeId, Link]]:
        """Shortest-path trees (unit weights) from every source in one BFS.

        Returns one parent map ``node -> incoming Link`` per source.  The
        search is level-synchronous over the links sorted by (head, tail),
        so the first candidate link into a node is the one from its
        smallest predecessor node id (no two links share endpoints).  The
        trees are therefore a pure function of the graph, which realises
        Assumption T.1.
        """
        for source in sources:
            if not self.has_node(source):
                raise KeyError(f"unknown source node {source}")
        size = max(self._out, default=-1) + 1
        tail = np.fromiter((link.tail for link in self._links), np.int64)
        head = np.fromiter((link.head for link in self._links), np.int64)
        order = np.lexsort((tail, head))
        tail, head = tail[order], head[order]
        parent = np.full((len(sources), size), -1, dtype=np.int64)
        seen = np.zeros((len(sources), size), dtype=bool)
        seen[np.arange(len(sources)), np.array(sources, dtype=np.int64)] = True
        frontier = seen.copy()
        while True:
            row, edge = np.nonzero(frontier[:, tail] & ~seen[:, head])
            if not row.size:
                break
            node = head[edge]
            first = np.ones(row.size, dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (node[1:] != node[:-1])
            row, node = row[first], node[first]
            parent[row, node] = order[edge[first]]
            seen[row, node] = True
            frontier[:] = False
            frontier[row, node] = True
        trees = []
        for row_links in parent:
            nodes = np.flatnonzero(row_links >= 0)
            links = [self._links[i] for i in row_links[nodes].tolist()]
            trees.append(dict(zip(nodes.tolist(), links)))
        return trees

    def shortest_path_tree(self, source: NodeId) -> Dict[NodeId, Link]:
        """The one-source case of :meth:`shortest_path_trees`."""
        return self.shortest_path_trees([source])[0]

    def route(self, source: NodeId, dest: NodeId) -> Optional[List[Link]]:
        """Canonical shortest path ``source -> dest`` as a list of links.

        Returns ``None`` when *dest* is unreachable.  For batch routing use
        :meth:`routes_from`, which amortises the search.
        """
        routes = self.routes_from(source, [dest])
        return routes.get(dest)

    def routes_from(
        self, source: NodeId, dests: Iterable[NodeId]
    ) -> Dict[NodeId, List[Link]]:
        """Canonical shortest paths from *source* to every node in *dests*."""
        return _walk_routes(self.shortest_path_tree(source), source, dests)

    def is_connected_from(self, source: NodeId) -> bool:
        """True when every node is reachable from *source*."""
        return len(self.shortest_path_tree(source)) + 1 >= self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(nodes={self.num_nodes}, links={self.num_links})"


@dataclass(frozen=True)
class Path:
    """An end-to-end path: an ordered sequence of physical links.

    ``index`` is the row of the path in the routing matrix.  Paths are
    immutable; the link tuple is the ground truth the probing simulator
    walks, before any alias reduction.
    """

    index: int
    source: NodeId
    dest: NodeId
    links: Tuple[Link, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path must contain at least one link")
        if self.links[0].tail != self.source:
            raise ValueError("path does not start at its source")
        if self.links[-1].head != self.dest:
            raise ValueError("path does not end at its destination")
        for a, b in zip(self.links, self.links[1:]):
            if a.head != b.tail:
                raise ValueError(f"discontinuous path at {a} -> {b}")

    @property
    def length(self) -> int:
        return len(self.links)

    def link_indices(self) -> Tuple[int, ...]:
        return tuple(link.index for link in self.links)

    def node_sequence(self) -> Tuple[NodeId, ...]:
        return (self.source,) + tuple(link.head for link in self.links)

    def traverses(self, link_index: int) -> bool:
        return any(link.index == link_index for link in self.links)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"P{self.index}({self.source}->{self.dest}, {self.length} hops)"


def build_paths(
    network: Network,
    beacons: Sequence[NodeId],
    destinations: Sequence[NodeId],
    skip_unreachable: bool = False,
) -> List[Path]:
    """Compute the canonical probing paths beacon -> destination.

    One path per (beacon, destination) pair with ``beacon != destination``,
    mirroring Section 3: every beacon probes every destination.  Raises if a
    destination is unreachable unless *skip_unreachable* is set.
    """
    paths: List[Path] = []
    trees = network.shortest_path_trees(beacons)
    for beacon, tree in zip(beacons, trees):
        routes = _walk_routes(tree, beacon, destinations)
        for dest in destinations:
            if dest == beacon:
                continue
            hops = routes.get(dest)
            if hops is None:
                if skip_unreachable:
                    continue
                raise ValueError(f"destination {dest} unreachable from {beacon}")
            paths.append(
                Path(index=len(paths), source=beacon, dest=dest, links=tuple(hops))
            )
    return paths


def _walk_routes(
    tree: Dict[NodeId, Link], source: NodeId, dests: Iterable[NodeId]
) -> Dict[NodeId, List[Link]]:
    """The paths from *source* to *dests* along its parent map *tree*."""
    out: Dict[NodeId, List[Link]] = {}
    for dest in dests:
        if dest == source:
            out[dest] = []
            continue
        if dest not in tree:
            continue  # unreachable; caller decides how to handle
        hops: List[Link] = []
        node = dest
        while node != source:
            link = tree[node]
            hops.append(link)
            node = link.tail
        hops.reverse()
        out[dest] = hops
    return out


def path_link_arrays(
    paths: Sequence[Path], num_links: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The paths' physical link indices as flat ``(indptr, indices)`` rows.

    Path ``i`` crosses links ``indices[indptr[i]:indptr[i + 1]]``, each
    checked against ``0..num_links - 1``: the simulators index per-link
    arrays with these, so a negative or too-large index would silently
    wrap or read past the end.
    """
    indptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path.links) for path in paths], out=indptr[1:])
    indices = np.fromiter(
        (link.index for path in paths for link in path.links),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    bad = np.flatnonzero((indices < 0) | (indices >= num_links))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise ValueError(
            f"path {row} names link {int(indices[bad[0]])}, but the network "
            f"has links 0..{num_links - 1}"
        )
    return indptr, indices
