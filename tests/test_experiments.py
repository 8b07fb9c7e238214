"""Smoke + shape tests of the experiment harness (tiny scale).

Each experiment must run, render, and exhibit the paper's qualitative
shape.  Tolerances are loose: tiny scale uses few links and snapshots.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, scale_params
from repro.experiments.base import (
    lia_scenario,
    make_topology,
    prepare_topology,
    repetition_seeds,
)


class TestHarnessPlumbing:
    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table2", "table3", "timing", "duration", "ablations",
            "congestion",
        }
        assert set(EXPERIMENTS) == expected

    def test_scale_presets(self):
        assert scale_params("paper").snapshots == 50
        assert scale_params("paper").probes == 1000
        with pytest.raises(ValueError):
            scale_params("huge")

    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError):
            make_topology("bogus", scale_params("tiny"), 0)

    def test_repetition_seeds(self):
        seeds = repetition_seeds(5, 3)
        assert len(set(seeds)) == 3
        assert repetition_seeds(None, 2) == [None, None]

    def test_trial_outcome_fields(self):
        prepared = prepare_topology("tree", scale_params("tiny"), 3)
        scenario = lia_scenario(snapshots=8, probes=200)
        evaluation = scenario.run(prepared=prepared, campaign_seed=4).evaluations[0]
        assert 0 <= evaluation.detection.detection_rate <= 1
        assert evaluation.accuracy.absolute_errors.maximum >= 0


class TestShapes:
    def test_fig3_monotone_variance(self):
        result = EXPERIMENTS["fig3"](scale="tiny", seed=0)
        assert result.data["spearman"] > 0.5
        assert result.data["monotone_fraction"] >= 0.5

    def test_fig5_lia_beats_scfs(self):
        result = EXPERIMENTS["fig5"](scale="tiny", seed=0)
        grid = result.data["grid"]
        best_m = max(grid)
        lia_dr = np.mean(result.data["lia_dr"][best_m])
        scfs_dr = np.mean(result.data["scfs_dr"])
        lia_fpr = np.mean(result.data["lia_fpr"][best_m])
        scfs_fpr = np.mean(result.data["scfs_fpr"])
        assert lia_dr >= scfs_dr
        assert lia_fpr <= scfs_fpr

    def test_fig6_errors_concentrated(self):
        result = EXPERIMENTS["fig6"](scale="tiny", seed=0)
        abs_cdf = result.data["abs_cdf"]
        assert abs_cdf.at(0.05) > 0.9  # nearly all errors far below 5%

    def test_fig7_ratio_below_one(self):
        result = EXPERIMENTS["fig7"](scale="tiny", seed=0)
        for kind, entry in result.data.items():
            for ratio in entry["ratios"]:
                assert ratio <= 1.5  # sampling noise allowance at tiny scale

    def test_fig9_high_consistency(self):
        result = EXPERIMENTS["fig9"](scale="tiny", seed=0)
        rates = result.data["rates"]
        best = max(rates)
        assert np.mean(rates[best]) > 0.7

    def test_timing_structure(self):
        result = EXPERIMENTS["timing"](scale="tiny", seed=0)
        assert result.data["build_a"] > 0
        assert result.data["infer"] > 0
        # Batch pipelines keep the incremental cache paths cold (they
        # are opt-in, monitor-only): payloads stay seed-for-seed
        # identical to the pre-incremental code.  Plain memo reuse
        # (exact hits) stays on.
        info = result.data["cache_info"]
        assert info["factorization"]["updates"] == 0
        assert info["factorization"]["downdates"] == 0
        assert info["reduction"]["updates"] == 0
        assert info["factorization"]["hits"] >= 1
        assert "engine cache statistics" in result.render()

    def test_duration_payload_seed_for_seed_deterministic(self):
        first = EXPERIMENTS["duration"](scale="tiny", seed=0)
        second = EXPERIMENTS["duration"](scale="tiny", seed=0)

        def equal(a, b):
            if isinstance(a, dict):
                return set(a) == set(b) and all(
                    equal(a[k], b[k]) for k in a
                )
            if isinstance(a, (list, tuple)):
                return len(a) == len(b) and all(
                    equal(x, y) for x, y in zip(a, b)
                )
            if isinstance(a, np.ndarray):
                return np.array_equal(a, b)
            return a == b

        assert equal(first.data, second.data)

    def test_duration_runs_have_short_tail(self):
        result = EXPERIMENTS["duration"](scale="tiny", seed=0)
        lengths = result.data["inferred_lengths"]
        if lengths:
            assert np.mean(np.asarray(lengths) <= 2) > 0.5

    def test_render_is_text(self):
        result = EXPERIMENTS["fig3"](scale="tiny", seed=1)
        text = result.render()
        assert "fig3" in text and "|" in text
