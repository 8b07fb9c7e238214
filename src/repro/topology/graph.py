"""Directed network graph model.

The paper models the network as a directed graph ``G(V, E)`` whose nodes are
routers/hosts and whose edges are unidirectional communication links
(Section 3.1).  This module provides that model plus deterministic
shortest-path routing.  Routing is *destination-consistent*: ties are broken
by a canonical ordering so that repeated computations give identical paths
(Assumption T.1, time-invariant routing) and paths from one source form a
tree (a prerequisite of Assumption T.2, no route fluttering).

Routing works on arrays: one BFS gives every beacon's parent link and
depth at every node, and :func:`build_paths` walks all routes back from
them at once, one gather per hop, into flat ``(indptr, indices)`` rows
that become :class:`Path` objects; array consumers re-flatten the paths
with :func:`flatten_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import check_count

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

    @classmethod
    def from_links(cls, num_nodes: int, tails, heads) -> "Network":
        """Nodes ``0..num_nodes - 1`` and links ``tails[i] -> heads[i]``.

        What :meth:`add_link` per link would build, checks included, in
        one pass: link ``i`` gets index ``i``.
        """
        tails, heads = np.asarray(tails, np.int64), np.asarray(heads, np.int64)
        key = tails * num_nodes + heads
        first = np.zeros(key.size, dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        outside = (np.minimum(tails, heads) < 0) | (np.maximum(tails, heads) >= num_nodes)
        for bad, what in ((outside, f"leaves nodes 0..{num_nodes - 1}"),
                          (tails == heads, "is a self-loop"), (~first, "is a duplicate")):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"link {tails[k]}->{heads[k]} {what}")
        net = cls()
        net._out = {node: [] for node in range(num_nodes)}
        net._in = {node: [] for node in range(num_nodes)}
        tails, heads = tails.tolist(), heads.tolist()
        net._links = list(map(Link, range(len(tails)), tails, heads))
        for link, tail, head in zip(net._links, tails, heads):
            net._out[tail].append(link)
            net._in[head].append(link)
        net._by_endpoints = dict(zip(zip(tails, heads), net._links))
        return net

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

    def _bfs(self, sources: Sequence[NodeId]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(parent, depth, tail)`` of a BFS (unit weights) from every source.

        ``parent[s, v]`` is the index of the link into node ``v`` on the
        tree of ``sources[s]`` (-1 off the tree or at the source) and
        ``depth[s, v]`` its hop count (-1 when unreachable); ``tail[i]`` is
        link ``i``'s tail.  The search is level-synchronous over the links
        sorted by (head, tail), so the first candidate link into a node is
        the one from its smallest predecessor node id (no two links share
        endpoints).  The trees are therefore a pure function of the graph,
        which realises Assumption T.1.
        """
        for source in sources:
            if not self.has_node(source):
                raise KeyError(f"unknown source node {source}")
        size = max(self._out, default=-1) + 1
        tail = np.fromiter((link.tail for link in self._links), np.int64)
        head = np.fromiter((link.head for link in self._links), np.int64)
        order = np.lexsort((tail, head))
        sorted_tail, sorted_head = tail[order], head[order]
        parent = np.full((len(sources), size), -1, dtype=np.int64)
        depth = np.full((len(sources), size), -1, dtype=np.int64)
        depth[np.arange(len(sources)), np.array(sources, dtype=np.int64)] = 0
        level = 0
        while True:
            frontier = depth[:, sorted_tail] == level
            row, edge = np.nonzero(frontier & (depth[:, sorted_head] < 0))
            if not row.size:
                return parent, depth, tail
            level += 1
            node = sorted_head[edge]
            first = np.ones(row.size, dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (node[1:] != node[:-1])
            row, node = row[first], node[first]
            parent[row, node] = order[edge[first]]
            depth[row, node] = level

    def shortest_path_trees(self, sources: Sequence[NodeId]) -> List[Dict[NodeId, Link]]:
        """One parent map ``node -> incoming Link`` per source, from :meth:`_bfs`."""
        trees = []
        for row_links in self._bfs(sources)[0]:
            nodes = np.flatnonzero(row_links >= 0)
            links = [self._links[i] for i in row_links[nodes].tolist()]
            trees.append(dict(zip(nodes.tolist(), links)))
        return trees

    def shortest_path_tree(self, source: NodeId) -> Dict[NodeId, Link]:
        """The one-source case of :meth:`shortest_path_trees`."""
        return self.shortest_path_trees([source])[0]

    def route(self, source: NodeId, dest: NodeId) -> Optional[List[Link]]:
        """Canonical shortest path ``source -> dest`` as a list of links.

        Empty when *dest* is *source*; ``None`` when it is unreachable.
        For batch routing use :func:`build_paths`.
        """
        if dest == source:
            return []
        paths = build_paths(self, [source], [dest], skip_unreachable=True)
        return list(paths[0].links) if paths else None

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


def _endpoints(network: Network, role: str, nodes: Sequence[NodeId]) -> List[NodeId]:
    """*nodes* as a list, each checked to be a distinct integer node id."""
    nodes = list(nodes)
    for node in nodes:
        if type(node) is not int:
            check_count(role, node)
        if not network.has_node(node):
            raise KeyError(f"unknown {role} node {node}")
    if len(set(nodes)) < len(nodes):
        repeated = next(node for k, node in enumerate(nodes) if node in nodes[:k])
        raise ValueError(f"{role} {repeated} is repeated")
    return nodes


def build_paths(
    network: Network,
    beacons: Sequence[NodeId],
    destinations: Sequence[NodeId],
    skip_unreachable: bool = False,
) -> List[Path]:
    """Compute the canonical probing paths beacon -> destination.

    One path per (beacon, destination) pair with ``beacon != destination``,
    beacon-major, mirroring Section 3: every beacon probes every
    destination.  Raises ``KeyError`` for an endpoint that is not a node,
    ``ValueError`` for one that is not an integer or is repeated, and
    ``ValueError`` if a destination is unreachable unless
    *skip_unreachable* is set.
    """
    beacons = _endpoints(network, "source", beacons)
    parent, depth, tail = network._bfs(beacons)
    sources = np.array(beacons, dtype=np.int64)
    dests = np.array(_endpoints(network, "destination", destinations), dtype=np.int64)
    row, column = np.nonzero(sources[:, None] != dests[None, :])
    dest = dests[column]
    length = depth[row, dest]
    unreachable = length < 0
    if unreachable.any():
        if not skip_unreachable:
            k = int(np.argmax(unreachable))
            raise ValueError(f"destination {dest[k]} unreachable from {sources[row[k]]}")
        row, dest, length = row[~unreachable], dest[~unreachable], length[~unreachable]
    indptr = np.zeros(row.size + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    # Walk every route back from its destination, one gather per hop,
    # filling its flat row from the last slot.
    slot, node, walking = indptr[1:] - 1, dest, row
    while slot.size:
        link = parent[walking, node]
        indices[slot] = link
        node = tail[link]
        more = node != sources[walking]
        slot, node, walking = slot[more] - 1, node[more], walking[more]
    hops = [network._links[i] for i in indices.tolist()]
    bounds = indptr.tolist()
    return [
        Path(index=i, source=source, dest=dest, links=tuple(hops[bounds[i]:bounds[i + 1]]))
        for i, (source, dest) in enumerate(zip(sources[row].tolist(), dest.tolist()))
    ]


def flatten_paths(paths: Sequence[Path]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(indptr, indices)`` rows: path ``i`` crosses ``indices[indptr[i]:indptr[i + 1]]``."""
    indptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(path.links) for path in paths], out=indptr[1:])
    links = (link.index for path in paths for link in path.links)
    return indptr, np.fromiter(links, dtype=np.int64, count=int(indptr[-1]))


def path_link_arrays(paths: Sequence[Path], num_links: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`flatten_paths`, each index checked against ``0..num_links - 1``.

    The simulators index per-link arrays with these, so a negative or
    too-large index would silently wrap or read past the end.
    """
    indptr, indices = flatten_paths(paths)
    bad = np.flatnonzero((indices < 0) | (indices >= num_links))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise ValueError(
            f"path {row} names link {int(indices[bad[0]])}, but the network "
            f"has links 0..{num_links - 1}"
        )
    return indptr, indices
