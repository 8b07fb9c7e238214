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

import heapq
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

    def shortest_path_tree(self, source: NodeId) -> Dict[NodeId, Link]:
        """Deterministic Dijkstra (unit weights) from *source*.

        Returns a parent map ``node -> incoming Link`` on the shortest-path
        tree.  Ties are broken by preferring the smallest predecessor node
        id, then the smallest link index; the tree is therefore a pure
        function of the graph, which realises Assumption T.1.
        """
        if not self.has_node(source):
            raise KeyError(f"unknown source node {source}")
        dist: Dict[NodeId, int] = {source: 0}
        parent: Dict[NodeId, Link] = {}
        # Heap entries carry the tie-break key so that the first settled
        # label for a node is the canonical one.
        heap: List[Tuple[int, NodeId, int, NodeId]] = [(0, -1, -1, source)]
        settled = set()
        while heap:
            d, _, _, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for link in self._out[node]:
                nd = d + 1
                known = dist.get(link.head)
                if known is None or nd < known or (
                    nd == known
                    and link.head not in settled
                    and (node, link.index)
                    < (parent[link.head].tail, parent[link.head].index)
                ):
                    dist[link.head] = nd
                    parent[link.head] = link
                    heapq.heappush(heap, (nd, node, link.index, link.head))
        return parent

    def route(self, source: NodeId, dest: NodeId) -> Optional[List[Link]]:
        """Canonical shortest path ``source -> dest`` as a list of links.

        Returns ``None`` when *dest* is unreachable.  For batch routing use
        :meth:`routes_from`, which amortises the Dijkstra run.
        """
        routes = self.routes_from(source, [dest])
        return routes.get(dest)

    def routes_from(
        self, source: NodeId, dests: Iterable[NodeId]
    ) -> Dict[NodeId, List[Link]]:
        """Canonical shortest paths from *source* to every node in *dests*."""
        parent = self.shortest_path_tree(source)
        out: Dict[NodeId, List[Link]] = {}
        for dest in dests:
            if dest == source:
                out[dest] = []
                continue
            if dest not in parent:
                continue  # unreachable; caller decides how to handle
            hops: List[Link] = []
            node = dest
            while node != source:
                link = parent[node]
                hops.append(link)
                node = link.tail
            hops.reverse()
            out[dest] = hops
        return out

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
    for beacon in beacons:
        routes = network.routes_from(beacon, destinations)
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


def path_link_arrays(paths: Sequence[Path], num_links: int) -> List[np.ndarray]:
    """Each path's physical link indices, checked against ``0..num_links - 1``.

    The simulators index per-link arrays with these, so a negative or
    too-large index would silently wrap or read past the end.
    """
    arrays = []
    for row, path in enumerate(paths):
        links = np.fromiter((link.index for link in path.links), dtype=np.int64)
        bad = links[(links < 0) | (links >= num_links)]
        if bad.size:
            raise ValueError(
                f"path {row} names link {int(bad[0])}, but the network has "
                f"links 0..{num_links - 1}"
            )
        arrays.append(links)
    return arrays
