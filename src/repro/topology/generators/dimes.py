"""DIMES-like commercial-Internet topology.

DIMES agents (the paper's second real topology) sit mostly in commercial
ISPs, unlike PlanetLab's academic hosts.  The structural signature differs
from PlanetLab's: a power-law AS-level graph (preferential attachment),
multi-router transit ASes, and measurement hosts scattered across *stub*
ASes behind single-homed or dual-homed access links.  This generator
reproduces that shape:

* AS-level Barabási–Albert graph; the highest-degree ASes become transit
  carriers with several routers each, the rest are stubs;
* every AS-level adjacency is realised as a router-to-router link;
* end-hosts attach to stub-AS routers through an access link.

The result has heavier-tailed degree distributions and longer, more
diverse paths than :mod:`repro.topology.generators.planetlab`, which is
exactly the contrast the paper draws between the two data sets.
"""

from __future__ import annotations

from typing import Dict, List


from repro.topology.generators.common import (
    GeneratedTopology,
    preferential_attachment_edges,
)
from repro.topology.graph import Network
from repro.utils.rng import SeedLike, as_rng


def dimes_like(
    num_ases: int = 80,
    attachment: int = 2,
    transit_fraction: float = 0.15,
    routers_per_transit: int = 3,
    num_hosts: int = 60,
    seed: SeedLike = None,
    name: str = "dimes",
) -> GeneratedTopology:
    """Generate a DIMES-like topology with *num_hosts* vantage points."""
    if num_ases < 5:
        raise ValueError("need at least 5 ASes")
    if not 0 < transit_fraction < 1:
        raise ValueError("transit_fraction must be in (0, 1)")
    rng = as_rng(seed)

    as_edges = preferential_attachment_edges(rng, num_ases, attachment)

    degree: Dict[int, int] = {asn: 0 for asn in range(num_ases)}
    for a, b in as_edges:
        degree[a] += 1
        degree[b] += 1
    num_transit = max(1, int(round(transit_fraction * num_ases)))
    transit = set(
        sorted(degree, key=lambda asn: (-degree[asn], asn))[:num_transit]
    )

    net = Network()
    as_of_node: Dict[int, int] = {}
    routers_of_as: Dict[int, List[int]] = {}
    next_id = 0

    def new_node(asn: int) -> int:
        nonlocal next_id
        node = net.add_node(next_id)
        as_of_node[node] = asn
        next_id += 1
        return node

    for asn in range(num_ases):
        count = routers_per_transit if asn in transit else 1
        routers = [new_node(asn) for _ in range(count)]
        # Full mesh inside multi-router transit ASes (their backbones are
        # dense relative to their size).
        for i in range(count):
            for j in range(i + 1, count):
                net.add_duplex(routers[i], routers[j])
        routers_of_as[asn] = routers

    for as_a, as_b in as_edges:
        ra = routers_of_as[as_a][int(rng.integers(len(routers_of_as[as_a])))]
        rb = routers_of_as[as_b][int(rng.integers(len(routers_of_as[as_b])))]
        if net.find_link(ra, rb) is None:
            net.add_duplex(ra, rb)

    stubs = sorted(set(range(num_ases)) - transit)
    hosts: List[int] = []
    for host_index in range(num_hosts):
        asn = stubs[host_index % len(stubs)]
        gateway = routers_of_as[asn][int(rng.integers(len(routers_of_as[asn])))]
        host = new_node(asn)
        net.add_duplex(gateway, host)
        hosts.append(host)

    return GeneratedTopology(
        name=name,
        network=net,
        beacons=list(hosts),
        destinations=list(hosts),
        as_of_node=as_of_node,
    )
