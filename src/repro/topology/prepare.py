"""The Section 3 front end: generate, route, enforce T.2, reduce.

One call takes a topology *kind* plus sizing parameters to a
:class:`PreparedTopology` — fluttering-free paths and the reduced
routing matrix — the common entry stage of every experiment and of the
declarative :class:`repro.api.Scenario` pipeline.

Sizing is duck-typed: any object with ``tree_nodes``, ``mesh_nodes``
and ``num_end_hosts`` attributes works (the experiment harness passes
its :class:`~repro.experiments.base.ScaleParams` presets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.topology.fluttering import find_fluttering_pairs, remove_fluttering_paths
from repro.topology.generators import (
    GeneratedTopology,
    barabasi_albert,
    dimes_like,
    hierarchical_bottom_up,
    hierarchical_top_down,
    planetlab_like,
    random_tree,
    waxman,
)
from repro.topology.graph import Path, build_paths
from repro.topology.routing import RoutingMatrix

MESH_TOPOLOGY_KINDS = (
    "barabasi-albert",
    "waxman",
    "hierarchical-td",
    "hierarchical-bu",
    "planetlab",
    "dimes",
)


def make_topology(kind: str, params, seed: Optional[int]) -> GeneratedTopology:
    """Build one of the paper's evaluation topologies at the given sizing."""
    if kind == "tree":
        return random_tree(num_nodes=params.tree_nodes, seed=seed)
    if kind == "waxman":
        return waxman(
            num_nodes=params.mesh_nodes,
            num_end_hosts=params.num_end_hosts,
            seed=seed,
        )
    if kind == "barabasi-albert":
        return barabasi_albert(
            num_nodes=params.mesh_nodes,
            num_end_hosts=params.num_end_hosts,
            seed=seed,
        )
    if kind == "hierarchical-td":
        routers = max(2, params.mesh_nodes // 20)
        return hierarchical_top_down(
            num_ases=20,
            routers_per_as=routers,
            num_end_hosts=params.num_end_hosts,
            seed=seed,
        )
    if kind == "hierarchical-bu":
        return hierarchical_bottom_up(
            num_nodes=params.mesh_nodes,
            num_end_hosts=params.num_end_hosts,
            seed=seed,
        )
    if kind == "planetlab":
        return planetlab_like(
            num_sites=max(4, params.num_end_hosts // 2),
            hosts_per_site=2,
            seed=seed,
        )
    if kind == "dimes":
        return dimes_like(
            num_ases=max(10, params.mesh_nodes // 12),
            num_hosts=params.num_end_hosts,
            seed=seed,
        )
    raise ValueError(f"unknown topology kind {kind!r}")


@dataclass
class PreparedTopology:
    """A topology with fluttering-free paths and its routing matrix."""

    topology: GeneratedTopology
    paths: List[Path]
    routing: RoutingMatrix
    num_removed_fluttering: int


def prepare_topology(kind: str, params, seed: Optional[int]) -> PreparedTopology:
    """Generate, route, enforce T.2 and reduce — the full Section 3 front end."""
    topology = make_topology(kind, params, seed)
    paths = build_paths(
        topology.network, topology.beacons, topology.destinations
    )
    removed = 0
    pairs = find_fluttering_pairs(paths)
    if pairs:
        paths, dropped = remove_fluttering_paths(paths, pairs)
        removed = len(dropped)
    routing = RoutingMatrix.from_paths(paths)
    return PreparedTopology(
        topology=topology,
        paths=paths,
        routing=routing,
        num_removed_fluttering=removed,
    )
