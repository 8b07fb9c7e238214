"""Waxman random graphs, BRITE-style (one of the models of Section 6.2).

BRITE grows Waxman topologies *incrementally*: nodes are placed uniformly
in the unit square and each new node connects to ``links_per_node``
distinct existing nodes, chosen with probability proportional to the
Waxman kernel ``alpha * exp(-d(u, v) / (beta * L))`` (``d`` Euclidean,
``L`` the maximum distance).  This yields router-like sparse graphs
(average degree ~ 2 * links_per_node) with distance-dependent locality,
unlike the classical flat Waxman whose edge count grows quadratically.

Every undirected edge becomes a duplex pair of directed links, since each
direction is an independent tomography unknown.

The kernel is computed once, as one n x n array, and each node draws its
targets with an inline copy of ``Generator.choice(replace=False, p=...)``:
the same draws without its per-call overhead.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.topology.generators.common import (
    GeneratedTopology,
    select_end_hosts,
    undirected_edges_to_network,
)
from repro.utils.rng import SeedLike, as_rng


def waxman_growth_edges(
    rng: np.random.Generator,
    xy: np.ndarray,
    links_per_node: int = 2,
    alpha: float = 0.15,
    beta: float = 0.2,
) -> List[Tuple[int, int]]:
    """Undirected edge list of a BRITE-style incrementally grown Waxman.

    The first ``links_per_node + 1`` nodes form a clique seed; every later
    node attaches to ``links_per_node`` existing nodes drawn by the
    Waxman kernel (without replacement).  The graph is connected by
    construction.
    """
    num_nodes = len(xy)
    if links_per_node < 1:
        raise ValueError("links_per_node must be >= 1")
    if num_nodes < links_per_node + 2:
        raise ValueError("too few nodes for the requested degree")
    max_dist = math.sqrt(2.0)
    edges: List[Tuple[int, int]] = []
    seed_size = links_per_node + 1
    for a in range(seed_size):
        for b in range(a + 1, seed_size):
            edges.append((a, b))
    # The kernel of every node pair in place (two n x n arrays at most);
    # row ``node``'s first ``node`` entries are its draw's weights.
    kernel = np.subtract.outer(xy[:, 0], xy[:, 0])
    np.hypot(kernel, np.subtract.outer(xy[:, 1], xy[:, 1]), out=kernel)
    kernel /= -beta * max_dist
    np.exp(kernel, out=kernel)
    kernel *= alpha
    for node in range(seed_size, num_nodes):
        total = kernel[node, :node].sum()
        if total <= 0:
            probabilities = np.full(node, 1.0 / node)
        else:
            probabilities = kernel[node, :node] / total
        for target in sorted(_weighted_sample(rng, probabilities, links_per_node)):
            edges.append((node, target))
    return edges


def _weighted_sample(rng: np.random.Generator, p: np.ndarray, size: int) -> List[int]:
    """``rng.choice(len(p), size, replace=False, p=p)``, draw for draw.

    numpy's loop without its per-call checks: one uniform per missing
    target through the normalised cumulative sum, first occurrences kept,
    and a redraw with the targets found so far zeroed.  The targets and
    the generator's state afterwards equal ``rng.choice``'s.
    """
    found: List[int] = []
    weights = p
    while len(found) < size:
        uniforms = rng.random(size - len(found))
        if found:
            if np.count_nonzero(p > 0) < size:
                raise ValueError("fewer non-zero probabilities than targets")
            weights = p.copy()
            weights[found] = 0
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for target in cdf.searchsorted(uniforms, side="right").tolist():
            if target not in found:
                found.append(target)
    return found


def waxman(
    num_nodes: int = 1000,
    links_per_node: int = 2,
    alpha: float = 0.15,
    beta: float = 0.2,
    num_end_hosts: int = 60,
    seed: SeedLike = None,
    name: str = "waxman",
) -> GeneratedTopology:
    """Generate a BRITE-style Waxman topology with end-host selection.

    End-hosts are the lowest-degree nodes (the paper's rule) and act as
    both beacons and probing destinations, as in Section 6.2.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rng = as_rng(seed)
    xy = rng.random((num_nodes, 2))
    edges = waxman_growth_edges(rng, xy, links_per_node, alpha, beta)
    net = undirected_edges_to_network(num_nodes, edges)
    hosts = select_end_hosts(net, num_end_hosts)
    positions = dict(enumerate(map(tuple, xy.tolist())))
    return GeneratedTopology(
        name=name,
        network=net,
        beacons=list(hosts),
        destinations=list(hosts),
        positions=positions,
    )
