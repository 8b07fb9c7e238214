"""The unified Estimator protocol, registry and Scenario pipeline.

The acceptance bar of the api redesign: every backend is reachable via
``registry.get(name).fit(...).predict(...)``, and the adapters are
*pinned byte-for-byte* to the pre-redesign call paths
(``LossInferenceAlgorithm``, ``DelayInferenceAlgorithm`` and the three
``*_localize`` free functions), so rewiring the experiments through
Scenario cannot change a single payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    LossInferenceAlgorithm,
    MeasurementCampaign,
    ProberConfig,
    ProbingSimulator,
)
from repro.api import (
    EstimatorSpec,
    InferenceResult,
    NotFittedError,
    Scenario,
    available,
    evaluate_forest,
    get,
    registry,
)
from repro.experiments.base import prepare_topology, scale_params
from repro.inference import (
    clink_localize,
    learn_clink_priors,
    scfs_localize,
    tomo_localize,
)
from repro.lossmodel import LLRD1
from repro.metrics import detection_outcome, evaluate_location
from repro.utils.rng import derive_seed

ALL_METHODS = ("clink", "delay", "lia", "scfs", "tomo")


@pytest.fixture(scope="module")
def workload():
    """A deterministic tree campaign shared by the adapter pins."""
    prepared = prepare_topology("tree", scale_params("tiny"), 91)
    simulator = ProbingSimulator(
        prepared.paths,
        prepared.topology.network.num_links,
        config=ProberConfig(probes_per_snapshot=300, congestion_probability=0.15),
    )
    campaign = simulator.run_campaign(13, prepared.routing, seed=92)
    return prepared, campaign


@pytest.fixture(scope="module")
def delay_workload():
    from repro.delay.prober import DelayProbingSimulator

    prepared = prepare_topology("tree", scale_params("tiny"), 93)
    simulator = DelayProbingSimulator(
        prepared.paths,
        prepared.topology.network.num_links,
        probes_per_snapshot=200,
        seed=94,
    )
    campaign = simulator.run_campaign(10, prepared.routing, seed=95)
    return prepared, campaign


class TestRegistry:
    def test_registry_is_complete(self):
        assert available() == ALL_METHODS

    def test_available_can_exclude_a_kind(self):
        assert available(exclude_kind="delay") == ("clink", "lia", "scfs", "tomo")
        assert available(exclude_kind="binary") == ("delay", "lia")

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_every_backend_constructible(self, name):
        estimator = get(name)
        assert estimator.name == name
        assert estimator.kind in ("rates", "binary", "delay")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            get("bogus")

    def test_register_external_backend(self, monkeypatch):
        # A new estimator is one adapter class plus one registry entry.
        class Constant:
            name = "constant"
            kind = "rates"
            uses_training = False

            def fit(self, campaign, paths=None):
                self._n = campaign.routing.num_links
                return self

            def predict(self, snapshot):
                return InferenceResult(
                    method="constant", kind="rates", values=np.zeros(self._n)
                )

            def predict_batch(self, window):
                return [self.predict(s) for s in window]

        monkeypatch.setitem(registry._REGISTRY, "constant", Constant)
        assert "constant" in available()
        assert "constant" not in available(exclude_kind="rates")
        assert isinstance(get("constant"), Constant)
        monkeypatch.undo()
        assert "constant" not in available()


class TestAdapterPins:
    """Adapters must equal the historical call paths exactly."""

    def test_lia_matches_algorithm(self, workload):
        prepared, campaign = workload
        expected = LossInferenceAlgorithm(prepared.routing).run(campaign)

        training, target = campaign.split_training_target()
        result = get("lia").fit(training).predict(target)
        assert result.kind == "rates"
        assert np.array_equal(result.values, expected.loss_rates)
        assert np.array_equal(result.raw.transmission_rates,
                              expected.transmission_rates)

    def test_lia_predict_batch_matches_infer_batch(self, workload):
        prepared, campaign = workload
        training = MeasurementCampaign(
            routing=prepared.routing, snapshots=campaign.snapshots[:10]
        )
        window = campaign.snapshots[10:]
        lia = LossInferenceAlgorithm(prepared.routing)
        estimate = lia.learn_variances(training)
        expected = lia.infer_batch(window, estimate)

        results = get("lia").fit(training).predict_batch(window)
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert np.array_equal(got.values, want.loss_rates)

    def test_scfs_matches_free_function(self, workload):
        prepared, campaign = workload
        training, target = campaign.split_training_target()
        expected = scfs_localize(
            target, prepared.paths, prepared.routing, LLRD1.threshold
        )
        result = (
            get("scfs", link_threshold=LLRD1.threshold)
            .fit(training, paths=prepared.paths)
            .predict(target)
        )
        assert result.kind == "binary"
        assert result.congested_columns == expected.congested_columns
        assert np.array_equal(
            result.values, expected.loss_rate_proxy(prepared.routing)
        )

    def test_tomo_matches_free_function(self, workload):
        prepared, campaign = workload
        training, target = campaign.split_training_target()
        expected = tomo_localize(
            target, prepared.paths, prepared.routing, LLRD1.threshold
        )
        result = (
            get("tomo", link_threshold=LLRD1.threshold)
            .fit(training, paths=prepared.paths)
            .predict(target)
        )
        assert result.congested_columns == expected.congested_columns

    def test_clink_matches_free_functions(self, workload):
        prepared, campaign = workload
        training, target = campaign.split_training_target()
        model = learn_clink_priors(
            training, prepared.paths, LLRD1.threshold, smoothing=1.0
        )
        expected = clink_localize(
            target, prepared.paths, prepared.routing, LLRD1.threshold, model
        )
        result = (
            get("clink", link_threshold=LLRD1.threshold)
            .fit(training, paths=prepared.paths)
            .predict(target)
        )
        assert result.congested_columns == expected.congested_columns

    def test_delay_matches_algorithm(self, delay_workload):
        from repro.delay.inference import DelayInferenceAlgorithm

        prepared, campaign = delay_workload
        training, target = campaign.split_training_target()
        algorithm = DelayInferenceAlgorithm(prepared.routing)
        estimate = algorithm.learn_variances(training)
        expected = algorithm.infer(target, estimate)

        result = get("delay").fit(training).predict(target)
        assert result.kind == "delay"
        assert np.array_equal(result.values, expected.delay_deviations)
        assert np.array_equal(result.raw.kept_columns, expected.kept_columns)

    def test_predict_before_fit_raises(self, workload):
        prepared, campaign = workload
        with pytest.raises(NotFittedError):
            get("lia").predict(campaign[-1])

    def test_binary_without_paths_raises(self, workload):
        prepared, campaign = workload
        training, _ = campaign.split_training_target()
        with pytest.raises(ValueError, match="paths"):
            get("scfs").fit(training)


class TestInferenceResult:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            InferenceResult(method="x", kind="bogus", values=np.zeros(3))

    def test_congested_mask_needs_threshold_for_rates(self):
        result = InferenceResult(
            method="x", kind="rates", values=np.array([0.0, 0.5])
        )
        with pytest.raises(ValueError, match="threshold"):
            result.congested_mask()
        assert result.congested_mask(0.1).tolist() == [False, True]

    def test_delay_result_has_no_loss_rates(self):
        result = InferenceResult(
            method="delay", kind="delay", values=np.array([1.0])
        )
        with pytest.raises(ValueError, match="deviations"):
            _ = result.loss_rates


class TestScenario:
    """The declarative pipeline equals the historical hand-wired loop."""

    GRID = (4, 8)

    def _hand_wired(self, seed):
        """The pre-redesign fig5-style trial wiring, verbatim."""
        params = scale_params("tiny")
        prepared = prepare_topology("tree", params, derive_seed(seed, 0))
        simulator = ProbingSimulator(
            prepared.paths,
            prepared.topology.network.num_links,
            model=LLRD1,
            config=ProberConfig(
                probes_per_snapshot=params.probes, congestion_probability=0.10
            ),
        )
        max_m = max(self.GRID)
        campaign = simulator.run_campaign(
            max_m + 1, prepared.routing, seed=derive_seed(seed, 1)
        )
        target = campaign[-1]
        truth = target.virtual_congested(prepared.routing)
        lia = LossInferenceAlgorithm(prepared.routing)
        per_m = {}
        for m in self.GRID:
            sub = MeasurementCampaign(
                routing=campaign.routing,
                snapshots=campaign.snapshots[max_m - m : max_m],
            )
            result = lia.infer(target, lia.learn_variances(sub))
            per_m[m] = evaluate_location(
                result.loss_rates, truth, prepared.routing, LLRD1.threshold
            )
        localized = scfs_localize(
            target, prepared.paths, prepared.routing, LLRD1.threshold
        )
        scfs = detection_outcome(
            localized.as_mask(prepared.routing.num_links), truth
        )
        return per_m, scfs

    def _scenario(self):
        params = scale_params("tiny")
        return Scenario(
            topology="tree",
            params=params,
            prober=ProberConfig(
                probes_per_snapshot=params.probes, congestion_probability=0.10
            ),
            model=LLRD1,
            training_grid=self.GRID,
            estimators=(
                EstimatorSpec("lia"),
                EstimatorSpec("scfs", {"link_threshold": LLRD1.threshold}),
            ),
        )

    def test_scenario_is_seed_for_seed_identical(self):
        seed = 41
        per_m, scfs = self._hand_wired(seed)
        outcome = self._scenario().run(seed=seed)
        for m in self.GRID:
            assert outcome.evaluation("lia", m).detection == per_m[m]
        assert outcome.evaluation("scfs").detection == scfs

    def test_non_training_estimators_evaluated_once(self):
        outcome = self._scenario().run(seed=42)
        lia_evals = [e for e in outcome.evaluations if e.label == "lia"]
        scfs_evals = [e for e in outcome.evaluations if e.label == "scfs"]
        assert [e.num_training for e in lia_evals] == list(self.GRID)
        assert [e.num_training for e in scfs_evals] == [None]
        assert outcome.labels() == ("lia", "scfs")

    def test_multi_target_scenario_batches(self):
        params = scale_params("tiny")
        scenario = Scenario(
            topology="tree",
            params=params,
            prober=ProberConfig(probes_per_snapshot=params.probes),
            num_training=6,
            num_targets=4,
        )
        outcome = scenario.run(seed=7)
        evaluation = outcome.evaluations[0]
        assert len(evaluation.results) == 4
        assert len(outcome.targets) == 4
        assert len(evaluation.detections) == 4

    def test_accuracy_report_present_for_rate_estimators(self):
        outcome = self._scenario().run(seed=8)
        assert outcome.evaluation("lia", max(self.GRID)).accuracy is not None
        assert outcome.evaluation("scfs").accuracy is None

    def test_ambiguous_evaluation_lookup(self):
        outcome = self._scenario().run(seed=9)
        with pytest.raises(KeyError, match="several"):
            outcome.evaluation("lia")
        with pytest.raises(KeyError, match="no evaluation"):
            outcome.evaluation("nope")

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="num_targets"):
            Scenario(num_targets=0)
        with pytest.raises(ValueError, match="training_grid"):
            Scenario(training_grid=())
        with pytest.raises(ValueError, match="estimator"):
            Scenario(estimators=())
        with pytest.raises(ValueError, match="sizing params"):
            Scenario(params=None).prepare(0)

    def test_grid_exceeding_campaign_raises(self, workload):
        prepared, campaign = workload
        scenario = Scenario(training_grid=(50,), params=None)
        with pytest.raises(ValueError, match="exceeds"):
            scenario.evaluate(prepared, campaign)

    def test_congestion_traffic_excludes_explicit_process(self):
        from repro.lossmodel import GilbertProcess
        from repro.netsim.sim import TrafficConfig

        with pytest.raises(ValueError, match="its own loss process"):
            Scenario(
                process=GilbertProcess(stay_bad=0.5),
                traffic=TrafficConfig(kind="congestion"),
            )


class TestEvaluateForest:
    """A forest's results do not depend on how many runs share one batch.

    ``Scenario.evaluate`` is a forest of one, so comparing a whole
    forest against one ``evaluate`` per run pins batch-size invariance
    of the packed ``infer_many`` solve and of the scoring.
    """

    def _forest(self, num_trees=6, estimators=None, **overrides):
        params = scale_params("tiny")
        overrides.setdefault("num_training", 6)
        runs = []
        for i in range(num_trees):
            scenario = Scenario(
                topology="tree",
                params=params,
                prober=ProberConfig(
                    probes_per_snapshot=params.probes,
                    congestion_probability=0.12,
                ),
                model=LLRD1,
                estimators=estimators
                or (
                    EstimatorSpec("lia"),
                    EstimatorSpec("scfs", {"link_threshold": LLRD1.threshold}),
                ),
                **overrides,
            )
            seed = 700 + i
            prepared = scenario.prepare(seed)
            campaign = scenario.simulate(prepared, seed)
            runs.append((scenario, prepared, campaign))
        return runs

    @staticmethod
    def _assert_results_equal(batched, sequential):
        assert len(batched) == len(sequential)
        for got, want in zip(batched, sequential):
            assert len(got.targets) == len(want.targets)
            assert len(got.evaluations) == len(want.evaluations)
            for ge, we in zip(got.evaluations, want.evaluations):
                assert ge.label == we.label
                assert ge.num_training == we.num_training
                assert len(ge.results) == len(we.results)
                for gr, wr in zip(ge.results, we.results):
                    assert gr.method == wr.method and gr.kind == wr.kind
                    np.testing.assert_array_equal(gr.values, wr.values)
                assert repr(ge.detections) == repr(we.detections)
                assert repr(ge.accuracy) == repr(we.accuracy)

    def test_matches_sequential_evaluate_to_the_byte(self):
        runs = self._forest()
        batched = evaluate_forest(runs)
        sequential = [s.evaluate(p, c) for s, p, c in runs]
        self._assert_results_equal(batched, sequential)

    def test_training_grid_forest_matches_sequential(self):
        runs = self._forest(num_trees=4, num_training=None, training_grid=(4, 8))
        self._assert_results_equal(
            evaluate_forest(runs), [s.evaluate(p, c) for s, p, c in runs]
        )

    def test_multi_target_runs_fall_through_unbatched(self):
        # Multi-target windows take the sequential predict_batch path, so
        # a mixed forest must still match run for run.
        runs = self._forest(
            num_trees=3,
            estimators=(EstimatorSpec("lia"),),
            num_targets=3,
        )
        self._assert_results_equal(
            evaluate_forest(runs), [s.evaluate(p, c) for s, p, c in runs]
        )

    def test_consumer_streams_in_run_order(self):
        runs = self._forest(num_trees=2)
        calls = []

        def consumer(label, num_training, index, target, result):
            calls.append((label, num_training, index))
            assert isinstance(result, InferenceResult)

        evaluate_forest(runs, target_consumer=consumer)
        expected = []
        for scenario, prepared, campaign in runs:
            scenario.evaluate(
                prepared,
                campaign,
                target_consumer=lambda label, m, i, t, r: expected.append(
                    (label, m, i)
                ),
            )
        assert calls == expected

    def test_empty_forest(self):
        assert evaluate_forest([]) == []

    def test_grid_exceeding_campaign_raises(self):
        runs = self._forest(num_trees=1)
        scenario, prepared, campaign = runs[0]
        bad = Scenario(training_grid=(50,), params=None)
        with pytest.raises(ValueError, match="exceeds"):
            evaluate_forest([(bad, prepared, campaign)])
