"""Unit tests for the directed graph model and routing."""

import numpy as np
import pytest

from tests.oracles import shortest_path_tree_reference
from repro.experiments.base import scale_params
from repro.topology.graph import Network, Path, build_paths
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, make_topology


def line_network(n: int) -> Network:
    net = Network()
    for i in range(n - 1):
        net.add_link(i, i + 1)
    return net


class TestNetworkConstruction:
    def test_nodes_and_links_counted(self):
        net = Network()
        net.add_link(0, 1)
        net.add_link(1, 2)
        assert net.num_nodes == 3
        assert net.num_links == 2

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_link(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link(0, 1)

    def test_reverse_direction_is_distinct(self):
        net = Network()
        a = net.add_link(0, 1)
        b = net.add_link(1, 0)
        assert a.index != b.index

    def test_self_loop_rejected(self):
        net = Network()
        with pytest.raises(ValueError, match="self-loop"):
            net.add_link(3, 3)

    def test_negative_node_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.add_node(-1)

    def test_add_duplex(self):
        net = Network()
        fwd, back = net.add_duplex(0, 1)
        assert (fwd.tail, fwd.head) == (0, 1)
        assert (back.tail, back.head) == (1, 0)

    def test_link_lookup_by_endpoints(self):
        net = Network()
        link = net.add_link(4, 7)
        assert net.find_link(4, 7) is link
        assert net.find_link(7, 4) is None

    def test_degrees(self):
        net = Network()
        net.add_link(0, 1)
        net.add_link(0, 2)
        net.add_link(3, 0)
        assert net.out_degree(0) == 2
        assert net.in_degree(0) == 1
        assert net.degree(0) == 3


class TestRouting:
    def test_route_on_line(self):
        net = line_network(5)
        hops = net.route(0, 4)
        assert [h.tail for h in hops] == [0, 1, 2, 3]

    def test_route_unreachable_returns_none(self):
        net = Network()
        net.add_link(0, 1)
        net.add_node(5)
        assert net.route(0, 5) is None

    def test_route_to_self_is_empty(self):
        net = line_network(3)
        assert net.route(0, 0) == []

    def test_shortest_path_is_shortest(self):
        net = Network()
        # 0 -> 1 -> 3 (length 2) and 0 -> 2a -> 2b -> 3 (length 3)
        net.add_link(0, 1)
        net.add_link(1, 3)
        net.add_link(0, 4)
        net.add_link(4, 5)
        net.add_link(5, 3)
        assert len(net.route(0, 3)) == 2

    def test_deterministic_tie_breaking(self):
        # Two equal-length routes; the canonical one must be stable.
        def build():
            net = Network()
            net.add_link(0, 1)
            net.add_link(0, 2)
            net.add_link(1, 3)
            net.add_link(2, 3)
            return net

        routes = [tuple(link.index for link in build().route(0, 3)) for _ in range(5)]
        assert len(set(routes)) == 1

    def test_unknown_source_raises(self):
        net = line_network(3)
        with pytest.raises(KeyError):
            net.shortest_path_tree(99)

    def test_is_connected_from(self):
        net = line_network(4)
        assert net.is_connected_from(0)
        assert not net.is_connected_from(3)  # directed line


class TestBatchedRoutes:
    """Every source's tree from one BFS against a heap Dijkstra per source."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ("tree",) + MESH_TOPOLOGY_KINDS)
    def test_generator_families(self, kind, seed):
        net = make_topology(kind, scale_params("tiny"), seed).network
        sources = list(net.nodes())
        trees = net.shortest_path_trees(sources)
        assert trees == [shortest_path_tree_reference(net, s) for s in sources]

    def test_smallest_predecessor_wins_over_link_order(self):
        net = Network()
        net.add_link(0, 2)
        net.add_link(0, 1)
        net.add_link(2, 3)  # added before 1 -> 3, but 1 < 2 is the parent
        net.add_link(1, 3)
        assert [h.tail for h in net.route(0, 3)] == [0, 1]
        assert net.shortest_path_tree(0) == shortest_path_tree_reference(net, 0)

    def test_sparse_node_ids(self):
        net = Network()
        net.add_duplex(3, 9)
        net.add_duplex(9, 40)
        net.add_node(17)  # isolated
        for source in (3, 9, 17, 40):
            want = shortest_path_tree_reference(net, source)
            assert net.shortest_path_tree(source) == want
        assert not net.is_connected_from(3)

    def test_no_beacons_no_paths(self):
        assert line_network(3).shortest_path_trees([]) == []
        assert build_paths(line_network(3), [], [2]) == []

    def test_unknown_source_in_batch_raises(self):
        with pytest.raises(KeyError, match="99"):
            line_network(3).shortest_path_trees([0, 99])

    @staticmethod
    def two_islands() -> Network:
        net = Network()
        net.add_duplex(0, 1)
        net.add_duplex(1, 2)
        net.add_duplex(3, 4)
        return net

    def test_disconnected_skip_unreachable(self):
        paths = build_paths(self.two_islands(), [0, 3], [2, 4], skip_unreachable=True)
        assert [(p.source, p.dest) for p in paths] == [(0, 2), (3, 4)]
        assert [p.index for p in paths] == [0, 1]
        assert [h.tail for h in paths[0].links] == [0, 1]

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="destination 4 unreachable from 0"):
            build_paths(self.two_islands(), [0, 3], [2, 4])


class TestPath:
    def test_valid_path(self, figure1):
        net, paths, _ = figure1
        for p in paths:
            assert p.links[0].tail == p.source
            assert p.links[-1].head == p.dest

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="at least one link"):
            Path(index=0, source=0, dest=0, links=())

    def test_discontinuous_path_rejected(self):
        net = Network()
        a = net.add_link(0, 1)
        b = net.add_link(2, 3)
        with pytest.raises(ValueError, match="discontinuous"):
            Path(index=0, source=0, dest=3, links=(a, b))

    def test_wrong_source_rejected(self):
        net = Network()
        a = net.add_link(0, 1)
        with pytest.raises(ValueError, match="start"):
            Path(index=0, source=5, dest=1, links=(a,))

    def test_node_sequence(self):
        net = line_network(4)
        p = Path(index=0, source=0, dest=3, links=tuple(net.route(0, 3)))
        assert p.node_sequence() == (0, 1, 2, 3)

    def test_traverses(self):
        net = line_network(3)
        p = Path(index=0, source=0, dest=2, links=tuple(net.route(0, 2)))
        assert p.traverses(0)
        assert not p.traverses(99)


class TestBuildPaths:
    def test_one_path_per_pair(self, figure2):
        net, paths, _ = figure2
        assert len(paths) == 6  # 2 beacons x 3 destinations

    def test_skips_self_pairs(self):
        net = Network()
        net.add_duplex(0, 1)
        paths = build_paths(net, beacons=[0, 1], destinations=[0, 1])
        assert len(paths) == 2

    def test_unreachable_raises_by_default(self):
        net = Network()
        net.add_link(0, 1)
        net.add_node(9)
        with pytest.raises(ValueError, match="unreachable"):
            build_paths(net, [0], [9])

    def test_unreachable_skipped_on_request(self):
        net = Network()
        net.add_link(0, 1)
        net.add_node(9)
        paths = build_paths(net, [0], [1, 9], skip_unreachable=True)
        assert len(paths) == 1

    def test_indices_are_dense(self, figure2):
        _, paths, _ = figure2
        assert [p.index for p in paths] == list(range(len(paths)))

    @pytest.mark.parametrize(
        "beacons, destinations, error, match",
        [
            ([0], [9], KeyError, "unknown destination node 9"),
            ([9], [1], KeyError, "unknown source node 9"),
            ([0, 0], [2], ValueError, "source 0 is repeated"),
            ([0], [2, 1, 2], ValueError, "destination 2 is repeated"),
            ([0.0], [2], ValueError, "source must be an integer, got 0.0"),
            ([0], [2.0], ValueError, "destination must be an integer, got 2.0"),
            ([True], [2], ValueError, "source must be an integer, got True"),
            ([0], [False, 2], ValueError, "destination must be an integer, got False"),
        ],
        ids=[
            "unknown-destination", "unknown-source", "repeated-beacon",
            "repeated-destination", "float-beacon", "float-destination",
            "bool-beacon", "bool-destination",
        ],
    )
    def test_hostile_endpoints_rejected(self, beacons, destinations, error, match):
        with pytest.raises(error, match=match):
            build_paths(line_network(3), beacons, destinations)

    def test_numpy_integer_endpoints_accepted(self):
        paths = build_paths(line_network(3), [np.int64(0)], [np.int32(2)])
        assert [(type(p.source), p.source, p.dest) for p in paths] == [(int, 0, 2)]
