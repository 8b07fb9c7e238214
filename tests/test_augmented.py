"""Tests for the augmented matrix A (Definition 1 machinery)."""

import numpy as np
import pytest

from repro.core.augmented import (
    augmented_matrix,
    augmented_rank,
    has_identifiable_variances,
    intersecting_pairs,
    num_pair_rows,
    pair_from_row_index,
    pair_row_index,
)


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

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            pair_row_index(3, 1, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pair_row_index(0, 9, 5)
        with pytest.raises(ValueError):
            pair_from_row_index(num_pair_rows(5), 5)


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
                pairs.matrix[k].toarray().ravel(), dense[row]
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
