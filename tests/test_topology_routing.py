"""Unit tests for routing-matrix construction and reductions."""

import numpy as np
import pytest

from tests.oracles import aggregate_reference
from repro.experiments.base import scale_params
from repro.topology.graph import Link, Network, Path, build_paths
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology
from repro.topology.routing import RoutingMatrix, VirtualLink


def chain_with_branch():
    """B -> a -> b -> {D1, D2}: links (B,a), (a,b) are aliases."""
    net = Network()
    net.add_link(0, 1)  # B -> a
    net.add_link(1, 2)  # a -> b
    net.add_link(2, 3)  # b -> D1
    net.add_link(2, 4)  # b -> D2
    paths = build_paths(net, [0], [3, 4])
    return net, paths


class TestAliasReduction:
    def test_alias_chain_merged(self):
        net, paths = chain_with_branch()
        routing = RoutingMatrix.from_paths(paths)
        # 4 physical links -> 3 columns (the two chain links merge).
        assert routing.num_links == 3
        merged = [v for v in routing.virtual_links if v.size == 2]
        assert len(merged) == 1
        assert merged[0].member_indices() == (0, 1)

    def test_columns_distinct_and_nonzero(self, small_tree):
        _, _, routing = small_tree
        cols = {routing.matrix[:, c].tobytes() for c in range(routing.num_links)}
        assert len(cols) == routing.num_links
        assert routing.matrix.sum(axis=0).min() >= 1

    def test_uncovered_links_dropped(self):
        net = Network()
        net.add_link(0, 1)
        net.add_link(1, 2)
        net.add_link(1, 3)
        net.add_link(3, 4)  # never traversed: dest set is {2, 3}
        paths = build_paths(net, [0], [2, 3])
        routing = RoutingMatrix.from_paths(paths)
        assert routing.column_of_physical(3) is None

    def test_column_of_physical_round_trip(self, small_tree):
        _, paths, routing = small_tree
        for path in paths[:10]:
            for link in path.links:
                column = routing.column_of_physical(link.index)
                assert column is not None
                assert routing.matrix[path.index, column] == 1


class TestMatrixProperties:
    def test_figure1_matrix_matches_paper(self, figure1):
        _, _, routing = figure1
        expected = np.array(
            [
                [1, 1, 0, 0, 0],
                [1, 0, 1, 1, 0],
                [1, 0, 1, 0, 1],
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(routing.matrix, expected)

    def test_figure2_counts_match_paper(self, figure2):
        _, _, routing = figure2
        assert routing.num_paths == 6
        assert routing.num_links == 8
        assert routing.rank() == 5

    def test_rows_by_beacon(self, figure2):
        _, paths, routing = figure2
        grouped = routing.rows_by_beacon()
        assert set(grouped) == {0, 1}
        assert sorted(sum(grouped.values(), [])) == list(range(6))

    def test_columns_of_path(self, figure1):
        _, _, routing = figure1
        assert list(routing.columns_of_path(0)) == [0, 1]


class TestAggregation:
    def test_log_rates_sum_over_members(self):
        net, paths = chain_with_branch()
        routing = RoutingMatrix.from_paths(paths)
        phys_log = np.array([-0.1, -0.2, -0.3, -0.4])
        virt = routing.aggregate_log_rates(phys_log)
        merged_col = routing.column_of_physical(0)
        assert virt[merged_col] == pytest.approx(-0.3)

    def test_rates_multiply_over_members(self):
        net, paths = chain_with_branch()
        routing = RoutingMatrix.from_paths(paths)
        phys = np.array([0.9, 0.8, 1.0, 1.0])
        virt = routing.aggregate_rates(phys)
        merged_col = routing.column_of_physical(0)
        assert virt[merged_col] == pytest.approx(0.72)

    def test_any_aggregation(self):
        net, paths = chain_with_branch()
        routing = RoutingMatrix.from_paths(paths)
        flags = np.array([False, True, False, False])
        virt = routing.aggregate_any(flags)
        assert virt[routing.column_of_physical(0)]
        assert not virt[routing.column_of_physical(2)]

    def test_path_rate_is_product_of_columns(self, small_tree):
        topo, paths, routing = small_tree
        rng = np.random.default_rng(0)
        phys = rng.uniform(0.8, 1.0, topo.network.num_links)
        virt_log = routing.aggregate_log_rates(np.log(phys))
        for path in paths[:20]:
            direct = sum(np.log(phys[link.index]) for link in path.links)
            via_matrix = routing.matrix[path.index] @ virt_log
            assert via_matrix == pytest.approx(direct)


class TestAggregationMatchesLoopOracle:
    """One ``reduceat`` per aggregation equals the per-column loop."""

    @staticmethod
    def check(routing, num_physical, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.5, 1.0, num_physical)
        inputs = {
            "log_rates": (routing.aggregate_log_rates, np.log(rates)),
            "rates": (routing.aggregate_rates, rates),
            "any": (routing.aggregate_any, rng.random(num_physical) < 0.2),
        }
        for kind, (aggregate, physical) in inputs.items():
            got = aggregate(physical)
            want = aggregate_reference(routing, physical, kind)
            assert got.dtype == want.dtype, kind
            assert np.array_equal(got, want), kind

    @pytest.mark.parametrize("kind", ("tree",) + MESH_TOPOLOGY_KINDS)
    def test_generator_families(self, kind):
        prepared = prepare_topology(kind, scale_params("tiny"), 2)
        self.check(prepared.routing, prepared.topology.network.num_links, 0)

    def test_long_alias_chain(self):
        """A 20-link chain is one column: long enough for blocked sums."""
        links = tuple(Link(index=i, tail=i, head=i + 1) for i in range(20))
        routing = RoutingMatrix.from_paths(
            [Path(index=0, source=0, dest=20, links=links)]
        )
        assert routing.num_links == 1
        self.check(routing, 20, 1)


class TestValidation:
    def test_row_count_must_match(self, figure1):
        _, paths, routing = figure1
        with pytest.raises(ValueError):
            RoutingMatrix(routing.matrix[:2], paths, routing.virtual_links)

    @staticmethod
    def three_paths():
        links = [Link(index=i, tail=2 * i, head=2 * i + 1) for i in range(3)]
        paths = [
            Path(index=i, source=link.tail, dest=link.head, links=(link,))
            for i, link in enumerate(links)
        ]
        return links, paths

    def test_columns_must_run_in_order(self):
        """Duplicate or skipped columns used to mis-aggregate silently."""
        links, paths = self.three_paths()
        vlinks = [
            VirtualLink(column=0, members=(links[0],)),
            VirtualLink(column=0, members=(links[1],)),
            VirtualLink(column=2, members=(links[2],)),
        ]
        with pytest.raises(ValueError, match="virtual link 1 names column 0"):
            RoutingMatrix(np.eye(3, dtype=np.uint8), paths, vlinks)

    def test_memberless_column_rejected(self):
        links, paths = self.three_paths()
        vlinks = [
            VirtualLink(column=0, members=(links[0],)),
            VirtualLink(column=1, members=()),
            VirtualLink(column=2, members=(links[2],)),
        ]
        with pytest.raises(ValueError, match="column 1 has no members"):
            RoutingMatrix(np.eye(3, dtype=np.uint8), paths, vlinks)

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            RoutingMatrix.from_paths([])

    def test_paths_out_of_index_order_rejected(self):
        """Rows went by ``index`` while ``paths`` kept list order."""
        _, (a, b, _) = self.three_paths()
        with pytest.raises(ValueError, match="P1.* has index 1 at position 0"):
            RoutingMatrix.from_paths([b, a])

    def test_index_out_of_range_rejected(self):
        """Used to raise a bare ``IndexError`` from the matrix fill."""
        links, _ = self.three_paths()
        far = Path(index=5, source=links[0].tail, dest=links[0].head, links=(links[0],))
        with pytest.raises(ValueError, match="has index 5 at position 0"):
            RoutingMatrix.from_paths([far])
