"""Barabási–Albert preferential-attachment graphs (BRITE model).

Each new node attaches to ``m`` existing nodes with probability
proportional to their current degree, yielding the power-law degree
distributions observed in Internet AS graphs.  Edges become duplex
directed link pairs.
"""

from __future__ import annotations

from repro.topology.generators.common import (
    GeneratedTopology,
    preferential_attachment_edges,
    select_end_hosts,
    undirected_edges_to_network,
)
from repro.utils.rng import SeedLike, as_rng


def barabasi_albert(
    num_nodes: int = 1000,
    attachment: int = 2,
    num_end_hosts: int = 60,
    seed: SeedLike = None,
    name: str = "barabasi-albert",
) -> GeneratedTopology:
    """Generate a BA topology; low-degree nodes become the end-hosts.

    The repeated-nodes trick of
    :func:`~repro.topology.generators.common.preferential_attachment_edges`
    gives degree-proportional sampling in O(1) per draw.
    """
    if attachment < 1:
        raise ValueError(f"attachment must be >= 1, got {attachment}")
    if num_nodes <= attachment + 1:
        raise ValueError("num_nodes must exceed attachment + 1")
    edges = preferential_attachment_edges(as_rng(seed), num_nodes, attachment)
    net = undirected_edges_to_network(num_nodes, edges)
    hosts = select_end_hosts(net, num_end_hosts)
    return GeneratedTopology(
        name=name,
        network=net,
        beacons=list(hosts),
        destinations=list(hosts),
    )
