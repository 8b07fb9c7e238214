"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.core.engine import LIAResult
from repro.core.reduction import ReductionResult
from repro.core.variance import VarianceEstimate
from repro.core.covariance import CovarianceSummary
from repro.metrics import (
    AccuracyReport,
    EmpiricalCDF,
    ErrorSummary,
    absolute_error,
    classify_congested,
    detection_outcome,
    error_factor,
    evaluate_location,
    per_column_thresholds,
    physical_log_rates,
    validate_against_paths,
)


class TestDetection:
    def test_paper_definitions(self):
        identified = np.array([True, True, False, False])
        congested = np.array([True, False, True, False])
        outcome = detection_outcome(identified, congested)
        assert outcome.detection_rate == 0.5  # |F n X| / |F| = 1/2
        assert outcome.false_positive_rate == 0.5  # |X \\ F| / |X| = 1/2

    def test_degenerate_cases(self):
        nothing = detection_outcome(
            np.zeros(3, dtype=bool), np.zeros(3, dtype=bool)
        )
        assert nothing.detection_rate == 1.0
        assert nothing.false_positive_rate == 0.0

    def test_outcome_addition(self):
        a = detection_outcome(
            np.array([True, False]), np.array([True, True])
        )
        b = detection_outcome(
            np.array([False, True]), np.array([False, True])
        )
        combined = a + b
        assert combined.true_positives == 2
        assert combined.num_congested == 3

    def test_per_column_thresholds(self, small_tree):
        _, _, routing = small_tree
        thresholds = per_column_thresholds(routing, 0.002)
        members = np.array([v.size for v in routing.virtual_links])
        assert np.allclose(thresholds, 1 - (1 - 0.002) ** members)
        assert (thresholds >= 0.002 - 1e-12).all()

    def test_classify(self):
        loss = np.array([0.001, 0.05])
        assert classify_congested(loss, 0.002).tolist() == [False, True]

    def test_evaluate_location(self, small_tree):
        _, _, routing = small_tree
        congested = np.zeros(routing.num_links, dtype=bool)
        congested[0] = True
        loss = np.zeros(routing.num_links)
        loss[0] = 0.1
        outcome = evaluate_location(loss, congested, routing, 0.002)
        assert outcome.detection_rate == 1.0
        assert outcome.false_positive_rate == 0.0


class TestErrorFactor:
    def test_equation_10(self):
        # f_delta(q, q*) with delta = 1e-3.
        assert error_factor(
            np.array([0.01]), np.array([0.02])
        )[0] == pytest.approx(2.0)
        assert error_factor(
            np.array([0.02]), np.array([0.01])
        )[0] == pytest.approx(2.0)

    def test_floor_applies(self):
        # Both below delta: treated as delta -> factor 1.
        assert error_factor(
            np.array([1e-5]), np.array([1e-6])
        )[0] == pytest.approx(1.0)

    def test_perfect_estimate(self):
        q = np.array([0.05, 0.1])
        assert np.allclose(error_factor(q, q), 1.0)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            error_factor(np.array([0.1]), np.array([0.1]), delta=0)

    def test_absolute_error(self):
        assert absolute_error(
            np.array([0.1]), np.array([0.08])
        )[0] == pytest.approx(0.02)

    def test_summaries(self):
        values = np.array([0.3, 0.1, 0.2])
        summary = ErrorSummary.of(values)
        assert summary.as_row() == (0.3, 0.2, 0.1)

    def test_accuracy_report(self):
        report = AccuracyReport.compare(
            np.array([0.1, 0.0]), np.array([0.1, 0.0])
        )
        assert report.error_factors.median == 1.0
        assert report.absolute_errors.maximum == 0.0


class TestCDF:
    def test_monotone_and_bounded(self):
        cdf = EmpiricalCDF.of(np.random.default_rng(0).random(500))
        points = np.linspace(-0.5, 1.5, 40)
        values = cdf.at(points)
        assert (np.diff(values) >= 0).all()
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_known_quantile(self):
        cdf = EmpiricalCDF.of(np.arange(100))
        assert cdf.at(49) == pytest.approx(0.5)
        assert cdf.quantile(0.5) == pytest.approx(49.5)

    def test_series(self):
        cdf = EmpiricalCDF.of(np.array([1.0, 2.0]))
        assert cdf.series([1.5]) == [(1.5, 0.5)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.of(np.array([]))


def _fake_result(rates):
    n = len(rates)
    estimate = VarianceEstimate(
        variances=np.zeros(n),
        method="wls",
        covariance_summary=CovarianceSummary(2, 1, 0),
        residual_norm=0.0,
    )
    reduction = ReductionResult(
        kept_columns=np.arange(n),
        removed_columns=np.array([], dtype=np.int64),
        strategy="threshold",
    )
    return LIAResult(
        transmission_rates=np.asarray(rates),
        variance_estimate=estimate,
        reduction=reduction,
    )


class TestValidation:
    def test_physical_rates_split_across_members(self, small_tree):
        _, _, routing = small_tree
        rates = np.full(routing.num_links, 0.81)
        per_physical = physical_log_rates(rates, routing)
        for vlink in routing.virtual_links:
            for member in vlink.member_indices():
                assert per_physical[member] == pytest.approx(
                    np.log(0.81) / vlink.size
                )

    def test_consistent_paths_counted(self, figure1):
        net, paths, routing = figure1
        result = _fake_result(np.ones(routing.num_links))
        # Perfect network: measured rates 1.0 everywhere -> consistent.
        outcome = validate_against_paths(
            result, routing, paths, np.ones(len(paths))
        )
        assert outcome.consistency_rate == 1.0

    def test_inconsistency_detected(self, figure1):
        net, paths, routing = figure1
        result = _fake_result(np.ones(routing.num_links))
        measured = np.array([0.5, 1.0, 1.0])  # path 0 lost half its probes
        outcome = validate_against_paths(result, routing, paths, measured)
        assert outcome.num_consistent == 2

    def test_epsilon_validation(self, figure1):
        net, paths, routing = figure1
        result = _fake_result(np.ones(routing.num_links))
        with pytest.raises(ValueError):
            validate_against_paths(
                result, routing, paths, np.ones(len(paths)), epsilon=0
            )

    def test_links_outside_inference_ignored(self, figure1):
        """A validation path through uncovered links predicts factor 1."""
        net, paths, routing = figure1
        result = _fake_result(np.ones(routing.num_links))
        from repro.topology.graph import Network, Path

        other = Network()
        link = other.add_link(50, 51)
        foreign = Path(index=0, source=50, dest=51, links=(link,))
        # Physical link index 0 of the foreign net collides with a column
        # member; use measured rate == that member's share to stay robust:
        outcome = validate_against_paths(
            result, routing, [foreign], np.array([1.0])
        )
        assert outcome.num_paths == 1
