"""Shared machinery for topology generators.

All generators return a :class:`GeneratedTopology`: the directed network,
the chosen beacons and probing destinations, and optional annotations
(node coordinates, node->AS mapping) used by downstream substrates such as
the AS-location analysis of Table 3.

The simulation section of the paper picks the end-hosts of synthetic
topologies as "nodes with the least out-degree"; :func:`select_end_hosts`
implements that rule deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.topology.graph import Network, NodeId


@dataclass
class GeneratedTopology:
    """A generated network plus its measurement endpoints and annotations."""

    name: str
    network: Network
    beacons: List[NodeId]
    destinations: List[NodeId]
    #: node -> autonomous-system number, when the generator models ASes.
    as_of_node: Dict[NodeId, int] = field(default_factory=dict)
    #: node -> (x, y) coordinates for geometric generators.
    positions: Dict[NodeId, Tuple[float, float]] = field(default_factory=dict)

    @property
    def end_hosts(self) -> List[NodeId]:
        """Beacons and destinations, deduplicated, in stable order."""
        seen: Set[NodeId] = set()
        hosts: List[NodeId] = []
        for node in list(self.beacons) + list(self.destinations):
            if node not in seen:
                seen.add(node)
                hosts.append(node)
        return hosts

    def summary(self) -> str:
        return (
            f"{self.name}: {self.network.num_nodes} nodes, "
            f"{self.network.num_links} directed links, "
            f"{len(self.beacons)} beacons, {len(self.destinations)} destinations"
        )


def select_end_hosts(network: Network, count: int) -> List[NodeId]:
    """The *count* nodes with the least total degree (ties by node id).

    Mirrors the paper's simulation setup where "end-hosts are nodes with
    the least out-degree".  Using total degree is equivalent for the duplex
    topologies our generators emit.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    nodes = sorted(network.nodes(), key=lambda n: (network.degree(n), n))
    if count > len(nodes):
        raise ValueError(
            f"requested {count} end hosts from a {len(nodes)}-node network"
        )
    return nodes[:count]


def undirected_edges_to_network(
    num_nodes: int, edges: Iterable[Tuple[int, int]]
) -> Network:
    """Materialise an undirected edge list as a duplex directed Network."""
    net = Network()
    for node in range(num_nodes):
        net.add_node(node)
    seen: Set[Tuple[int, int]] = set()
    for a, b in edges:
        key = (min(a, b), max(a, b))
        if key in seen or a == b:
            continue
        seen.add(key)
        net.add_duplex(a, b)
    return net


def connect_components(
    num_nodes: int,
    edges: List[Tuple[int, int]],
    rng: np.random.Generator,
) -> List[Tuple[int, int]]:
    """Add the fewest random edges needed to make the edge set connected.

    Random-graph generators (Waxman in particular) can leave isolated
    fragments; tomography needs every destination reachable, so we stitch
    components together with uniformly chosen representative pairs.
    """
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for a, b in edges:
        union(a, b)

    roots = sorted({find(n) for n in range(num_nodes)})
    if len(roots) <= 1:
        return edges

    components: Dict[int, List[int]] = {}
    for node in range(num_nodes):
        components.setdefault(find(node), []).append(node)
    ordered = [components[r] for r in roots]
    stitched = list(edges)
    anchor = ordered[0]
    for other in ordered[1:]:
        a = int(rng.choice(anchor))
        b = int(rng.choice(other))
        stitched.append((a, b))
        union(a, b)
        anchor.extend(other)
    return stitched
