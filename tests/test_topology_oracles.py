"""The bulk topology front end against its seed bodies in ``tests/oracles.py``.

Waxman growth, the duplex network, the path build, fluttering detection
and the alias reduction must reproduce the seed realisations exactly:
the same edges, links, paths, matrix bytes and virtual-link members.
"""

import importlib

import numpy as np
import pytest

from tests.oracles import (
    build_paths_reference,
    routing_matrix_reference,
    undirected_edges_to_network_reference,
    waxman_growth_edges_reference,
)
from tests.test_topology_fluttering import all_pairs_flutter, fluttering_pair
from repro.experiments.base import scale_params
from repro.topology.fluttering import find_fluttering_pairs, remove_fluttering_paths
from repro.topology.generators.common import undirected_edges_to_network
from repro.topology.generators.waxman import _weighted_sample, waxman_growth_edges
from repro.topology.graph import Link, Network, Path, build_paths
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, make_topology
from repro.topology.routing import RoutingMatrix

KINDS = ("tree",) + MESH_TOPOLOGY_KINDS
# The generator modules, not the functions the package re-exports by name.
waxman_module, hierarchical_module, ba_module = (
    importlib.import_module(f"repro.topology.generators.{name}")
    for name in ("waxman", "hierarchical", "barabasi_albert")
)


def network_state(net: Network):
    """Everything a reader can see of a network, as comparable values."""
    nodes = list(net.nodes())
    return (
        net.num_nodes,
        net.links,
        nodes,
        [(net.out_links(v), net.in_links(v)) for v in nodes],
        [net.find_link(link.tail, link.head) is link for link in net.links],
    )


def routing_state(routing: RoutingMatrix):
    return (
        routing.matrix.dtype,
        routing.matrix.shape,
        routing.matrix.flags.c_contiguous,
        routing.matrix.tobytes(),
        [p for p in routing.paths],
        [(v.column, v.members) for v in routing.virtual_links],
    )


def seed_topology(monkeypatch, kind, params, seed):
    """``make_topology`` with the seed growth and duplex-network bodies."""
    with monkeypatch.context() as patch:
        for module in (waxman_module, hierarchical_module):
            patch.setattr(module, "waxman_growth_edges", waxman_growth_edges_reference)
        for module in (waxman_module, hierarchical_module, ba_module):
            patch.setattr(
                module, "undirected_edges_to_network", undirected_edges_to_network_reference
            )
        return make_topology(kind, params, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("kind", KINDS)
def test_front_end_equals_seed_bodies(monkeypatch, kind, scale, seed):
    params = scale_params(scale)
    topo = make_topology(kind, params, seed)
    want = seed_topology(monkeypatch, kind, params, seed)
    assert network_state(topo.network) == network_state(want.network)
    assert (topo.beacons, topo.destinations) == (want.beacons, want.destinations)
    assert topo.positions == want.positions and topo.as_of_node == want.as_of_node

    paths = build_paths(topo.network, topo.beacons, topo.destinations)
    assert paths == build_paths_reference(topo.network, topo.beacons, topo.destinations)
    assert find_fluttering_pairs(paths) == all_pairs_flutter(paths)
    got = RoutingMatrix.from_paths(paths)
    assert routing_state(got) == routing_state(routing_matrix_reference(paths))


class TestWeightedSample:
    """The inline draw against ``Generator.choice(replace=False, p=...)``."""

    @staticmethod
    def check(p, size, seed):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _weighted_sample(ours, p.copy(), size)
        want = numpys.choice(p.size, size=size, replace=False, p=p).tolist()
        assert got == want
        # Equal states afterwards: the same number of uniforms was drawn.
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("seed", range(40))
    def test_smooth_kernels(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 200))
        weights = rng.random(n)
        self.check(weights / weights.sum(), int(rng.integers(1, 4)), seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_peaked_weights_force_redraws(self, seed):
        """One dominant entry: most first draws collide and redraw."""
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 30))
        weights = np.full(n, 1e-6)
        weights[rng.integers(n)] = 1.0
        weights[rng.integers(n)] += 1e-3
        self.check(weights / weights.sum(), int(rng.integers(2, 4)), seed)

    def test_redraws_happen(self):
        """The peaked case above does redraw: more uniforms than targets."""
        p = np.array([1.0, 1e-6, 1e-6, 1e-6])
        p /= p.sum()
        rng = np.random.default_rng(5)
        _weighted_sample(rng, p, 2)
        single = np.random.default_rng(5)
        single.random(2)
        assert rng.random() != single.random()

    def test_too_few_positive_weights(self):
        with pytest.raises(ValueError, match="non-zero"):
            _weighted_sample(np.random.default_rng(0), np.array([1.0, 0.0, 0.0]), 2)


class TestGrowthAndNetwork:
    @pytest.mark.parametrize("links_per_node", [1, 2, 3])
    @pytest.mark.parametrize("alpha, beta", [(0.15, 0.2), (1.0, 0.01), (0.4, 3.0)])
    def test_growth_equals_seed_loop(self, links_per_node, alpha, beta):
        xy = np.random.default_rng(7).random((120, 2))
        ours, seeds = np.random.default_rng(3), np.random.default_rng(3)
        got = waxman_growth_edges(ours, xy, links_per_node, alpha, beta)
        want = waxman_growth_edges_reference(seeds, xy, links_per_node, alpha, beta)
        assert got == want
        assert ours.random() == seeds.random()

    def test_duplicate_self_loop_and_reversed_edges(self):
        edges = [(0, 1), (1, 0), (2, 2), (3, 1), (0, 1), (4, 0), (1, 3)]
        got = undirected_edges_to_network(5, edges)
        want = undirected_edges_to_network_reference(5, edges)
        assert network_state(got) == network_state(want)
        assert [(x.tail, x.head) for x in got.links] == [
            (0, 1), (1, 0), (3, 1), (1, 3), (4, 0), (0, 4)
        ]

    def test_isolated_nodes_kept(self):
        got = undirected_edges_to_network(6, [(0, 5)])
        assert network_state(got) == network_state(
            undirected_edges_to_network_reference(6, [(0, 5)])
        )
        assert got.num_nodes == 6

    @pytest.mark.parametrize(
        "tails, heads, match",
        [
            ([0, 2], [1, 2], "link 2->2 is a self-loop"),
            ([0, 1, 0], [1, 0, 1], "link 0->1 is a duplicate"),
            ([0], [7], "link 0->7 leaves nodes 0..3"),
            ([-1], [2], "link -1->2 leaves nodes 0..3"),
        ],
    )
    def test_from_links_rejects(self, tails, heads, match):
        with pytest.raises(ValueError, match=match):
            Network.from_links(4, tails, heads)


def two_islands() -> Network:
    net = Network()
    net.add_duplex(0, 1)
    net.add_duplex(1, 2)
    net.add_duplex(3, 4)
    return net


class TestEdgeCases:
    def test_skip_unreachable_on_disconnected_network(self):
        net = two_islands()
        got = build_paths(net, [0, 3, 4], [2, 4, 1, 3], skip_unreachable=True)
        want = build_paths_reference(net, [0, 3, 4], [2, 4, 1, 3], skip_unreachable=True)
        assert got == want and len(got) == 4

    def test_one_link_paths(self):
        net = Network()
        net.add_duplex(0, 1)
        net.add_duplex(0, 2)
        paths = build_paths(net, [0, 1, 2], [0, 1, 2])
        assert paths == build_paths_reference(net, [0, 1, 2], [0, 1, 2])
        assert {p.length for p in paths} == {1, 2}
        routing = RoutingMatrix.from_paths(paths)
        assert routing_state(routing) == routing_state(routing_matrix_reference(paths))

    def test_sparse_node_ids(self):
        net = Network()
        net.add_duplex(3, 9)
        net.add_duplex(9, 40)
        net.add_duplex(40, 12)
        net.add_node(17)
        paths = build_paths(net, [40, 3], [3, 12, 17], skip_unreachable=True)
        want = build_paths_reference(net, [40, 3], [3, 12, 17], skip_unreachable=True)
        assert paths == want
        assert routing_state(RoutingMatrix.from_paths(paths)) == routing_state(
            routing_matrix_reference(paths)
        )

    def test_removes_fluttering_paths(self):
        """A topology whose preparation drops a fluttering path."""
        p1, p2 = fluttering_pair()
        net = Network()
        extra = net.add_link(6, 7)
        p3 = Path(index=2, source=6, dest=7, links=(extra,))
        paths = [p1, p2, p3]
        assert find_fluttering_pairs(paths) == all_pairs_flutter(paths) == [(0, 1)]
        kept, removed = remove_fluttering_paths(paths)
        assert removed == [0]
        routing = RoutingMatrix.from_paths(kept)
        assert routing_state(routing) == routing_state(routing_matrix_reference(kept))

    def test_link_objects_are_the_last_incidence(self):
        """Links that share an index but not endpoints: the last one wins."""
        first = Link(index=0, tail=0, head=1)
        second = Link(index=0, tail=5, head=6)
        paths = [
            Path(index=0, source=0, dest=1, links=(first,)),
            Path(index=1, source=5, dest=6, links=(second,)),
        ]
        routing = RoutingMatrix.from_paths(paths)
        assert routing.virtual_links[0].members == (second,)
        assert routing_state(routing) == routing_state(routing_matrix_reference(paths))
