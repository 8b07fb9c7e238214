"""Tests for phase-2 full-rank reduction and the reduced solve."""

import numpy as np
import pytest

from repro.core.engine import InferenceEngine
from repro.core.reduction import reduce_to_full_rank


def solve_reduced(routing, y, reduction):
    """The engine's reduced solve: re-embedded, log rates clipped to <= 0."""
    return InferenceEngine(routing)._solve_reduced(reduction, y)


def naive_paper_loop(R, variances):
    """Reference implementation: literally drop the smallest until full rank."""
    R = np.asarray(R, dtype=float)
    order = np.lexsort((np.arange(len(variances)), variances))
    kept = list(range(R.shape[1]))
    pointer = 0
    def full_rank(cols):
        if not cols:
            return True
        sub = R[:, cols]
        return np.linalg.matrix_rank(sub) == len(cols)
    while not full_rank(kept):
        victim = order[pointer]
        pointer += 1
        kept.remove(victim)
    return sorted(kept)


class TestPaperStrategy:
    def test_matches_naive_loop(self, figure2):
        _, _, routing = figure2
        rng = np.random.default_rng(0)
        for trial in range(5):
            v = rng.random(routing.num_links)
            result = reduce_to_full_rank(routing.matrix, v, strategy="paper")
            assert result.kept_columns.tolist() == naive_paper_loop(
                routing.matrix, v
            )

    def test_already_full_rank_keeps_all(self):
        R = np.eye(4)
        v = np.array([0.1, 0.2, 0.3, 0.4])
        result = reduce_to_full_rank(R, v, strategy="paper")
        assert result.num_kept == 4


class TestAllStrategies:
    @pytest.mark.parametrize("strategy", ("gap", "paper", "greedy"))
    def test_result_full_column_rank(self, figure2, strategy):
        _, _, routing = figure2
        v = np.random.default_rng(1).random(routing.num_links)
        result = reduce_to_full_rank(routing.matrix, v, strategy=strategy)
        sub = routing.to_dense()[:, result.kept_columns]
        assert np.linalg.matrix_rank(sub) == result.num_kept

    def test_threshold_full_column_rank(self, figure2):
        _, _, routing = figure2
        v = np.random.default_rng(2).random(routing.num_links)
        result = reduce_to_full_rank(
            routing.matrix, v, strategy="threshold", variance_cutoff=0.3
        )
        sub = routing.to_dense()[:, result.kept_columns]
        assert np.linalg.matrix_rank(sub) == result.num_kept

    def test_threshold_requires_cutoff(self, figure2):
        _, _, routing = figure2
        v = np.ones(routing.num_links)
        with pytest.raises(ValueError, match="cutoff"):
            reduce_to_full_rank(routing.matrix, v, strategy="threshold")

    def test_threshold_keeps_only_above_cutoff(self, figure2):
        _, _, routing = figure2
        v = np.full(routing.num_links, 1e-9)
        v[2] = 1.0
        result = reduce_to_full_rank(
            routing.matrix, v, strategy="threshold", variance_cutoff=0.5
        )
        assert result.kept_columns.tolist() == [2]

    def test_threshold_empty_keep_is_legal(self, figure2):
        _, _, routing = figure2
        v = np.zeros(routing.num_links)
        result = reduce_to_full_rank(
            routing.matrix, v, strategy="threshold", variance_cutoff=0.5
        )
        assert result.num_kept == 0

    def test_greedy_keeps_maximal_set(self, figure2):
        _, _, routing = figure2
        v = np.random.default_rng(3).random(routing.num_links)
        greedy = reduce_to_full_rank(routing.matrix, v, strategy="greedy")
        paper = reduce_to_full_rank(routing.matrix, v, strategy="paper")
        assert greedy.num_kept >= paper.num_kept
        assert greedy.num_kept == np.linalg.matrix_rank(routing.to_dense())

    def test_high_variance_columns_survive(self, figure2):
        """Congested (high-variance) columns are never the ones removed."""
        _, _, routing = figure2
        v = np.full(routing.num_links, 1e-8)
        v[[0, 3]] = 1.0  # two independent congested columns
        for strategy in ("gap", "paper", "greedy"):
            result = reduce_to_full_rank(routing.matrix, v, strategy=strategy)
            assert {0, 3} <= set(result.kept_columns.tolist())

    def test_unknown_strategy(self, figure2):
        _, _, routing = figure2
        with pytest.raises(ValueError, match="unknown strategy"):
            reduce_to_full_rank(
                routing.matrix, np.ones(routing.num_links), strategy="nope"
            )

    def test_shape_validation(self, figure2):
        _, _, routing = figure2
        with pytest.raises(ValueError, match="one variance per column"):
            reduce_to_full_rank(routing.matrix, np.ones(3))


class TestGapStrategy:
    def test_clean_two_class_spectrum(self, figure2):
        _, _, routing = figure2
        v = np.full(routing.num_links, 1e-7)
        v[[1, 4, 6]] = 1e-3
        result = reduce_to_full_rank(routing.matrix, v, strategy="gap")
        assert set(result.kept_columns.tolist()) == {1, 4, 6}

    def test_noise_floor_immunity(self, figure2):
        """A stray near-zero variance must not hijack the gap."""
        _, _, routing = figure2
        v = np.full(routing.num_links, 1e-7)
        v[[1, 4]] = 1e-3
        v[5] = 1e-17  # would be the largest log-gap without the clamp
        result = reduce_to_full_rank(routing.matrix, v, strategy="gap")
        assert set(result.kept_columns.tolist()) == {1, 4}


class TestReducedSolve:
    def test_exact_recovery_when_all_kept(self, figure2):
        _, _, routing = figure2
        rng = np.random.default_rng(4)
        R = routing.to_dense()
        v = rng.random(routing.num_links)
        reduction = reduce_to_full_rank(routing.matrix, v, strategy="greedy")
        x_true = np.zeros(routing.num_links)
        x_true[reduction.kept_columns] = -rng.random(reduction.num_kept) * 0.1
        y = R @ x_true
        x_hat = solve_reduced(routing, y, reduction)
        assert np.allclose(x_hat, x_true, atol=1e-10)

    def test_removed_links_get_zero_loss(self, figure2):
        _, _, routing = figure2
        v = np.full(routing.num_links, 1e-9)
        v[0] = 1.0
        reduction = reduce_to_full_rank(
            routing.matrix, v, strategy="threshold", variance_cutoff=0.5
        )
        y = -0.1 * np.ones(routing.num_paths)
        x = solve_reduced(routing, y, reduction)
        removed = reduction.removed_columns
        assert len(removed) and np.all(x[removed] == 0.0)

    def test_log_rates_clipped_non_positive(self, figure2):
        _, _, routing = figure2
        v = np.ones(routing.num_links)
        reduction = reduce_to_full_rank(routing.matrix, v, strategy="greedy")
        y = +0.5 * np.ones(routing.num_paths)  # impossible positive logs
        x = solve_reduced(routing, y, reduction)
        assert (x <= 0).all()

    def test_matches_lstsq_on_kept_block(self, figure2):
        _, _, routing = figure2
        rng = np.random.default_rng(5)
        v = rng.random(routing.num_links)
        reduction = reduce_to_full_rank(routing.matrix, v, strategy="paper")
        y = -rng.random(routing.num_paths)
        kept = reduction.kept_columns
        x_star, *_ = np.linalg.lstsq(
            routing.to_dense()[:, kept], y, rcond=None
        )
        expected = np.zeros(routing.num_links)
        expected[kept] = np.minimum(x_star, 0.0)
        x = solve_reduced(routing, y, reduction)
        assert np.allclose(x, expected, atol=1e-8)

    def test_wide_dependent_kept_set_gets_minimum_norm_answer(self, figure2):
        # A hand-built reduction keeping every column of the figure-2
        # matrix, which has more columns than rows: no QR exists, and the
        # solve falls back to minimum-norm lstsq.
        from repro.core.reduction import ReductionResult

        _, _, routing = figure2
        R = routing.to_dense()
        assert routing.num_links > routing.num_paths
        reduction = ReductionResult.from_kept(
            range(routing.num_links), routing.num_links, "paper"
        )
        y = -np.random.default_rng(6).random(routing.num_paths)
        x_star, *_ = np.linalg.lstsq(R, y, rcond=None)
        x = solve_reduced(routing, y, reduction)
        assert np.allclose(x, np.minimum(x_star, 0.0), atol=1e-9)

    def test_misshaped_y_rejected(self, figure2):
        _, _, routing = figure2
        reduction = reduce_to_full_rank(
            routing.matrix, np.ones(routing.num_links), strategy="greedy"
        )
        with pytest.raises(ValueError, match="rows"):
            solve_reduced(routing, np.ones(2), reduction)
