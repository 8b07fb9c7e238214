"""Traceroute simulation with realistic measurement artefacts (Section 7.1).

The paper builds its routing topology with traceroute and reports two
error sources: 5–10 % of routers do not answer ICMP (anonymous hops), and
~16 % expose multiple interfaces whose addresses the sr-ally tool merges
imperfectly.  This module reproduces both so the Internet-experiment
pipeline exercises LIA on a *measured* (erroneous) topology while probes
flow over the *true* one:

* every router is a persistent responder or non-responder;
* multi-interface routers answer with the interface facing the probe's
  previous hop; single-interface routers always answer with a canonical
  address;
* anonymous hops are reconstructed with the standard neighbour-context
  heuristic: a silent router seen behind the same previous hop is assumed
  to be the same box (one pseudo-node per (router, previous-hop) pair).

:func:`repro.netsim.aliases.resolve_aliases` then plays sr-ally with a
configurable recall; unmerged interfaces split one true router into
several measured nodes, inflating the measured topology exactly the way
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from repro.netsim.addressing import HostAllocator, Prefix
from repro.topology.graph import Network, NodeId, Path
from repro.utils.rng import SeedLike, as_rng


@dataclass
class TracerouteConfig:
    """Measurement artefact rates (paper-reported defaults)."""

    no_response_rate: float = 0.07
    multi_interface_fraction: float = 0.16
    #: End hosts run our software, so they always respond.
    hosts_always_respond: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.no_response_rate < 1:
            raise ValueError("no_response_rate must be in [0, 1)")
        if not 0 <= self.multi_interface_fraction <= 1:
            raise ValueError("multi_interface_fraction must be in [0, 1]")


@dataclass(frozen=True)
class Hop:
    """One traceroute hop: the responding interface, or an anonymous mark.

    ``interface`` is ``None`` for silent routers; ``true_router`` is
    simulator ground truth used by evaluation code only (a real
    deployment would not have it).
    """

    true_router: NodeId
    interface: Optional[int]


@dataclass(frozen=True)
class TracerouteRecord:
    """The hops of one source -> destination trace."""

    source: NodeId
    dest: NodeId
    hops: Tuple[Hop, ...]


class TracerouteSimulator:
    """Per-router interface/address behaviour plus trace generation."""

    def __init__(
        self,
        network: Network,
        config: Optional[TracerouteConfig] = None,
        end_hosts: Sequence[NodeId] = (),
        seed: SeedLike = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else TracerouteConfig()
        rng = as_rng(seed)
        hosts = set(end_hosts)

        # 172.16.0.0/12 keeps interface addresses disjoint from any AS plan
        # built out of 10.0.0.0/8.
        self._allocator = HostAllocator(Prefix(0xAC100000, 12))
        self._canonical: Dict[NodeId, int] = {}
        self._per_neighbor: Dict[Tuple[NodeId, NodeId], int] = {}
        self._multi: Dict[NodeId, bool] = {}
        self._responds: Dict[NodeId, bool] = {}
        for node in network.nodes():
            self._canonical[node] = self._allocator.allocate()
            is_host = node in hosts
            self._multi[node] = (not is_host) and bool(
                rng.random() < self.config.multi_interface_fraction
            )
            if is_host and self.config.hosts_always_respond:
                self._responds[node] = True
            else:
                self._responds[node] = bool(
                    rng.random() >= self.config.no_response_rate
                )

    # -- interface/address queries ------------------------------------------

    def is_multi_interface(self, node: NodeId) -> bool:
        return self._multi[node]

    def responds(self, node: NodeId) -> bool:
        return self._responds[node]

    def canonical_address(self, node: NodeId) -> int:
        return self._canonical[node]

    def interface_address(self, node: NodeId, from_neighbor: NodeId) -> int:
        """Address *node* reports when probed through *from_neighbor*."""
        if not self._multi[node]:
            return self._canonical[node]
        key = (node, from_neighbor)
        if key not in self._per_neighbor:
            self._per_neighbor[key] = self._allocator.allocate()
        return self._per_neighbor[key]

    # -- tracing -----------------------------------------------------------------

    def trace(self, path: Path) -> TracerouteRecord:
        """Trace along a known path (TTL-walking its routers in order)."""
        hops: List[Hop] = []
        previous = path.source
        for link in path.links:
            router = link.head
            if self._responds[router]:
                interface = self.interface_address(router, previous)
                hops.append(Hop(true_router=router, interface=interface))
            else:
                hops.append(Hop(true_router=router, interface=None))
            previous = router
        return TracerouteRecord(source=path.source, dest=path.dest, hops=tuple(hops))

    def trace_all(self, paths: Sequence[Path]) -> List[TracerouteRecord]:
        return [self.trace(path) for path in paths]
