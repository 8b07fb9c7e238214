"""Tests for the augmented matrix A (Definition 1 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tests.oracles import intersecting_pairs_reference, pairs_matrix
from repro.core.augmented import (
    augmented_matrix,
    augmented_rank,
    has_identifiable_variances,
    intersecting_pairs,
    num_pair_rows,
    pair_from_row_index,
    pair_row_index,
)
from repro.experiments.base import scale_params
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology
from repro.topology.routing import RoutingMatrix


class TestPairIndexing:
    def test_round_trip_all_pairs(self):
        n = 13
        seen = set()
        for i in range(n):
            for j in range(i, n):
                row = pair_row_index(i, j, n)
                assert pair_from_row_index(row, n) == (i, j)
                seen.add(row)
        assert seen == set(range(num_pair_rows(n)))

    def test_vectorised_matches_scalar(self):
        n = 9
        i = np.array([0, 2, 5])
        j = np.array([3, 2, 8])
        rows = pair_row_index(i, j, n)
        for a, b, r in zip(i, j, rows):
            assert pair_row_index(int(a), int(b), n) == r

    def test_inverse_vectorised_matches_scalar(self):
        n = 11
        rows = np.arange(num_pair_rows(n))
        i, j = pair_from_row_index(rows, n)
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == [
            pair_from_row_index(int(r), n) for r in rows
        ]
        assert np.array_equal(pair_row_index(i, j, n), rows)
        assert type(pair_from_row_index(np.int64(5), n)[0]) is int

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            pair_row_index(3, 1, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pair_row_index(0, 9, 5)
        with pytest.raises(ValueError):
            pair_from_row_index(num_pair_rows(5), 5)
        with pytest.raises(ValueError):
            pair_from_row_index(np.array([0, -1]), 5)


class TestDenseAugmented:
    def test_shape(self, figure2):
        _, _, routing = figure2
        A = augmented_matrix(routing.matrix)
        assert A.shape == (num_pair_rows(6), 8)

    def test_rows_are_elementwise_products(self, figure2):
        _, _, routing = figure2
        R = routing.to_dense()
        A = augmented_matrix(routing.matrix)
        n = routing.num_paths
        for i in range(n):
            for j in range(i, n):
                row = pair_row_index(i, j, n)
                assert np.array_equal(A[row], R[i] * R[j])

    def test_diagonal_rows_equal_r(self, figure1):
        _, _, routing = figure1
        A = augmented_matrix(routing.matrix)
        n = routing.num_paths
        for i in range(n):
            assert np.array_equal(
                A[pair_row_index(i, i, n)], routing.to_dense()[i]
            )


class TestIntersectingPairs:
    def test_matches_nonzero_dense_rows(self, figure2):
        _, _, routing = figure2
        dense = augmented_matrix(routing.matrix)
        pairs = intersecting_pairs(routing.matrix)
        n = routing.num_paths
        nonzero_rows = {
            r for r in range(dense.shape[0]) if dense[r].any()
        }
        built_rows = {
            pair_row_index(int(i), int(j), n)
            for i, j in zip(pairs.pair_i, pairs.pair_j)
        }
        assert built_rows == nonzero_rows
        # And the contents agree row by row.
        for k, (i, j) in enumerate(zip(pairs.pair_i, pairs.pair_j)):
            row = pair_row_index(int(i), int(j), n)
            assert np.array_equal(
                pairs_matrix(pairs)[k].toarray().ravel(), dense[row]
            )

    def test_tree_pairs(self, small_tree):
        _, _, routing = small_tree
        pairs = intersecting_pairs(routing.matrix)
        assert pairs.num_links == routing.num_links
        # Every diagonal pair intersects itself.
        assert pairs.num_pairs >= routing.num_paths

    def test_zero_coverage_rejected(self):
        with pytest.raises(ValueError):
            intersecting_pairs(np.zeros((3, 2), dtype=np.uint8))


def assert_same_pairs(routing_matrix):
    """The bulk builder equals the per-link loop bit for bit."""
    got = intersecting_pairs(routing_matrix)
    want = intersecting_pairs_reference(routing_matrix)
    assert (got.num_pairs, got.num_links) == (want.num_pairs, want.num_links)
    for a, b in (
        (got.indptr, want.indptr),
        (got.indices, want.indices),
        (got.data, want.data),
        (got.pair_i, want.pair_i),
        (got.pair_j, want.pair_j),
    ):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    return got


class TestBulkPairsMatchReference:
    def test_figure_examples(self, figure1, figure2):
        for _, _, routing in (figure1, figure2):
            assert_same_pairs(routing.matrix)

    @pytest.mark.parametrize("kind", MESH_TOPOLOGY_KINDS + ("tree",))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generator_families(self, kind, seed):
        prepared = prepare_topology(kind, scale_params("tiny"), seed)
        assert_same_pairs(prepared.routing.matrix)

    @pytest.mark.parametrize(
        "R",
        [
            np.ones((1, 5), dtype=np.uint8),  # a single path
            np.array([[1], [0], [1], [1]], dtype=np.uint8),  # a single link
            np.ones((6, 4), dtype=np.uint8),  # all ones
            np.array([[0, 1, 0, 1], [1, 1, 0, 1], [0, 0, 0, 0]], dtype=np.uint8),
        ],
        ids=["one-path", "one-link", "all-ones", "empty-columns-and-row"],
    )
    def test_edge_shapes(self, R):
        assert_same_pairs(R)

    @settings(max_examples=60, deadline=None)
    @given(
        R=arrays(
            np.uint8,
            st.tuples(st.integers(1, 12), st.integers(1, 9)),
            elements=st.integers(0, 1),
        ),
        duplicate=st.booleans(),
        empty=st.booleans(),
    )
    def test_random_binary_matrices(self, R, duplicate, empty):
        if duplicate:
            R = np.hstack([R, R[:, :1]])
        if empty:
            R = np.hstack([np.zeros((R.shape[0], 1), dtype=np.uint8), R])
        if not R.any():
            for build in (intersecting_pairs, intersecting_pairs_reference):
                with pytest.raises(ValueError, match="covers no links"):
                    build(R)
            return
        assert_same_pairs(R)
        assert_same_pairs(R.astype(bool))

    def test_link_shared_by_many_paths(self):
        # 2 100 paths on one link: 2 206 050 pairs, keys past 2**21.
        n = 2100
        R = np.zeros((n, 3), dtype=np.uint8)
        R[:, 0] = 1
        R[::3, 1] = 1
        R[n - 1, 2] = 1
        pairs = assert_same_pairs(R)
        assert pairs.num_pairs == num_pair_rows(n)
        assert (pairs.pair_i[-1], pairs.pair_j[-1]) == (n - 1, n - 1)


class TestBinaryInput:
    BAD = [0.5, 2, -1.0, np.nan]

    @pytest.mark.parametrize("value", BAD)
    def test_intersecting_pairs_rejects(self, figure2, value):
        R = figure2[2].matrix.astype(np.float64)
        R[1, 2] = value
        with pytest.raises(ValueError, match=r"entry \(1, 2\)"):
            intersecting_pairs(R)

    @pytest.mark.parametrize("value", BAD)
    def test_augmented_matrix_rejects(self, figure2, value):
        R = figure2[2].matrix.astype(np.float64)
        R[3, 0] = value
        with pytest.raises(ValueError, match=r"entry \(3, 0\)"):
            augmented_matrix(R)

    @pytest.mark.parametrize("value", BAD)
    def test_routing_matrix_rejects(self, figure2, value):
        _, paths, routing = figure2
        R = routing.matrix.astype(np.float64)
        R[0, 5] = value
        R[4, 1] = value  # the first bad entry is the one named
        with pytest.raises(ValueError, match=r"entry \(0, 5\)"):
            RoutingMatrix(R, paths, routing.virtual_links)

    def test_zero_one_of_any_dtype_accepted(self, figure2):
        _, paths, routing = figure2
        for dtype in (bool, np.int64, np.float64):
            R = routing.matrix.astype(dtype)
            rebuilt = RoutingMatrix(R, paths, routing.virtual_links)
            assert rebuilt.matrix.dtype == np.uint8
            assert np.array_equal(rebuilt.matrix, routing.matrix)
            assert np.array_equal(augmented_matrix(R), augmented_matrix(routing.matrix))
            assert_same_pairs(R)


class TestRankAndIdentifiability:
    def test_figure_examples_identifiable(self, figure1, figure2):
        for _, _, routing in (figure1, figure2):
            assert has_identifiable_variances(routing.matrix)

    def test_tree_full_rank(self, small_tree):
        _, _, routing = small_tree
        assert augmented_rank(routing.matrix) == routing.num_links

    def test_duplicate_columns_not_identifiable(self):
        # Two identical columns (alias links) can never be separated.
        R = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        assert not has_identifiable_variances(R)
