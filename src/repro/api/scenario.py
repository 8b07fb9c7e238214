"""Declarative scenario pipeline: topology → probe → estimate → score.

A :class:`Scenario` is the whole evaluation loop every experiment module
used to hand-wire, as one reusable object::

    topology generator → fluttering cleanup → prober → estimator(s) → metrics

Declare the pieces, call :meth:`Scenario.run` with a seed, and get a
:class:`ScenarioResult` carrying per-estimator detection outcomes and
:class:`~repro.metrics.AccuracyReport`s.  The experiment modules phrase
their trial functions as scenario runs, so adding a topology knob, an
estimator, or a metric touches this module once instead of a dozen
trial loops.

Seed discipline matches the historical experiment wiring exactly: the
topology is generated with ``derive_seed(seed, topology_salt)`` and the
campaign with ``derive_seed(seed, campaign_salt)``, so rewired
experiments stay seed-for-seed identical to their pre-Scenario
payloads (pinned in ``tests/test_api.py``).

The stages are also usable à la carte — :meth:`Scenario.prepare`,
:meth:`Scenario.simulate` and :meth:`Scenario.evaluate` — for studies
that splice extra steps into the middle (fig9 inserts its simulated
traceroute measurement between topology and inference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.estimator import EstimatorSpec, InferenceResult
from repro.lossmodel import LLRD1, LossRateModel
from repro.lossmodel.congestion import CongestionLossProcess
from repro.lossmodel.processes import LossProcess
from repro.netsim.sim.config import TrafficConfig
from repro.metrics import (
    AccuracyReport,
    DetectionOutcome,
    detection_outcome,
    evaluate_location,
)
from repro.probing import MeasurementCampaign, ProberConfig, ProbingSimulator
from repro.probing.snapshot import Snapshot
from repro.topology.prepare import PreparedTopology, prepare_topology
from repro.utils.rng import derive_seed

@dataclass
class EstimatorEvaluation:
    """One estimator's scored predictions over the target snapshots.

    ``num_training`` is the training-window length this evaluation used
    (``None`` for estimators that do not learn from history, evaluated
    once per scenario).  ``detections`` align with the targets that
    carried ground truth; ``accuracy`` compares inferred rates against
    the last target's realized per-column loss fractions and is ``None``
    for binary/delay estimators or truth-free campaigns.
    """

    spec: EstimatorSpec
    label: str
    num_training: Optional[int]
    results: List[InferenceResult]
    detections: List[DetectionOutcome] = field(default_factory=list)
    accuracy: Optional[AccuracyReport] = None

    @property
    def result(self) -> InferenceResult:
        """The prediction for the (last) target snapshot."""
        return self.results[-1]

    @property
    def detection(self) -> DetectionOutcome:
        """The detection outcome on the (last) scored target."""
        if not self.detections:
            raise ValueError(
                f"estimator {self.label!r} has no detection outcomes "
                "(targets carried no ground truth)"
            )
        return self.detections[-1]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, queryable per estimator."""

    scenario: "Scenario"
    prepared: PreparedTopology
    campaign: MeasurementCampaign
    targets: List[Snapshot]
    evaluations: List[EstimatorEvaluation]

    def evaluation(
        self, label: str, num_training: Optional[int] = None
    ) -> EstimatorEvaluation:
        """The evaluation for *label* (and window length, when swept)."""
        matches = [
            e
            for e in self.evaluations
            if e.label == label
            and (num_training is None or e.num_training == num_training)
        ]
        if not matches:
            raise KeyError(
                f"no evaluation for estimator {label!r}"
                + (f" at m={num_training}" if num_training is not None else "")
            )
        if len(matches) > 1:
            raise KeyError(
                f"estimator {label!r} was evaluated at several window "
                "lengths; pass num_training"
            )
        return matches[0]

    def labels(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for evaluation in self.evaluations:
            if evaluation.label not in seen:
                seen.append(evaluation.label)
        return tuple(seen)


@dataclass
class Scenario:
    """Declarative description of one evaluation pipeline.

    Parameters
    ----------
    topology, params:
        Generator kind (see :func:`repro.topology.prepare.make_topology`)
        and sizing (any object with ``tree_nodes``/``mesh_nodes``/
        ``num_end_hosts``; the experiment harness passes its
        ``ScaleParams`` presets).  ``params`` may stay ``None`` when a
        pre-built topology is passed to :meth:`run`.
    prober, model, process:
        Probing knobs (:class:`~repro.probing.ProberConfig`), the
        two-class loss-rate model, and optionally a non-default loss
        process.
    traffic:
        The :class:`~repro.netsim.sim.config.TrafficConfig` stage.  The
        default (``kind="analytic"``) keeps the historical behaviour;
        ``kind="congestion"`` swaps the loss process for a
        :class:`~repro.lossmodel.CongestionLossProcess` built over the
        prepared topology's probing paths, so drops emerge from queue
        overflow in the packet-level simulator.  Mutually exclusive
        with an explicit ``process``.
    estimators:
        The :class:`~repro.api.EstimatorSpec`s to fit and score.
    num_training, training_grid, num_targets:
        The campaign holds ``max(grid) + num_targets`` snapshots; each
        learning estimator is fitted on suffix windows
        ``snapshots[max_m - m : max_m]`` for every ``m`` in the grid
        (default grid: ``(num_training,)``) and scored on the trailing
        ``num_targets`` snapshots.
    topology_salt, campaign_salt:
        Sub-seed derivation indices (the historical per-experiment
        values; defaults match the common wiring).
    propensities, propensity_salt:
        Optional hook building explicit per-physical-link congestion
        propensities from the prepared topology (Table 3's inter-AS
        boost); called as ``propensities(prepared, derived_seed)``.
    """

    topology: str = "tree"
    params: Optional[object] = None
    prober: ProberConfig = field(default_factory=ProberConfig)
    model: LossRateModel = LLRD1
    process: Optional[LossProcess] = None
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    estimators: Tuple[EstimatorSpec, ...] = (EstimatorSpec("lia"),)
    num_training: int = 50
    training_grid: Optional[Tuple[int, ...]] = None
    num_targets: int = 1
    topology_salt: int = 0
    campaign_salt: int = 1
    propensities: Optional[
        Callable[[PreparedTopology, Optional[int]], np.ndarray]
    ] = None
    propensity_salt: int = 1

    def __post_init__(self) -> None:
        if self.num_targets < 1:
            raise ValueError("num_targets must be at least 1")
        if self.training_grid is not None and (
            not self.training_grid or min(self.training_grid) < 1
        ):
            raise ValueError("training_grid must hold positive window lengths")
        if self.training_grid is None and self.num_training < 1:
            raise ValueError("num_training must be at least 1")
        if not self.estimators:
            raise ValueError("a scenario needs at least one estimator")
        if self.traffic.is_congestion and self.process is not None:
            raise ValueError(
                "congestion traffic builds its own loss process; "
                "drop the explicit process= (or use analytic traffic)"
            )

    # -- derived sizes ---------------------------------------------------------

    @property
    def grid(self) -> Tuple[int, ...]:
        """Training-window lengths to evaluate, in declaration order."""
        if self.training_grid is not None:
            return tuple(int(m) for m in self.training_grid)
        return (int(self.num_training),)

    @property
    def campaign_length(self) -> int:
        """Snapshots one run simulates: longest window + targets."""
        return max(self.grid) + self.num_targets

    # -- pipeline stages -------------------------------------------------------

    def prepare(self, seed: Optional[int] = None) -> PreparedTopology:
        """Stage 1+2: topology generation and fluttering cleanup."""
        if self.params is None:
            raise ValueError(
                "scenario has no sizing params; pass prepared= to run()"
            )
        return prepare_topology(
            self.topology, self.params, derive_seed(seed, self.topology_salt)
        )

    def build_simulator(self, prepared: PreparedTopology) -> ProbingSimulator:
        """The prober over a prepared topology.

        With congestion traffic the loss process is constructed *here*,
        per prepared topology — the packet simulator is specific to the
        probing paths it must carry.
        """
        num_links = prepared.topology.network.num_links
        process = self.process
        if self.traffic.is_congestion:
            process = CongestionLossProcess(
                prepared.paths, num_links, traffic=self.traffic
            )
        return ProbingSimulator(
            prepared.paths,
            num_links,
            model=self.model,
            process=process,
            config=self.prober,
        )

    def simulate(
        self,
        prepared: PreparedTopology,
        seed: Optional[int] = None,
        campaign_seed: Optional[int] = None,
        length: Optional[int] = None,
    ) -> MeasurementCampaign:
        """Stage 3: run the probing campaign.

        *campaign_seed* bypasses the salt derivation (callers that manage
        their own seed streams); *length* overrides the campaign length
        (measurement-only studies).
        """
        if campaign_seed is None:
            campaign_seed = derive_seed(seed, self.campaign_salt)
        propensities = None
        if self.propensities is not None:
            propensities = self.propensities(
                prepared, derive_seed(seed, self.propensity_salt)
            )
        return self.build_simulator(prepared).run_campaign(
            length if length is not None else self.campaign_length,
            prepared.routing,
            seed=campaign_seed,
            propensities=propensities,
        )

    # -- estimation + scoring --------------------------------------------------

    def evaluate(
        self,
        prepared: PreparedTopology,
        campaign: MeasurementCampaign,
        target_consumer: Optional[
            Callable[[str, Optional[int], int, Snapshot, InferenceResult], None]
        ] = None,
    ) -> ScenarioResult:
        """Stages 4+5: fit/predict every estimator and score it.

        A forest of one: ``evaluate_forest([(self, prepared, campaign)],
        target_consumer)[0]``.

        *target_consumer* streams multi-target batches: it is called as
        ``consumer(label, num_training, target_index, target, result)``
        for every scored target, in target order, and the returned
        evaluations then retain only the *last* result per window — so a
        long consecutive-snapshot study (the duration experiment, a
        monitoring replay) folds its per-target statistics incrementally
        instead of retaining every ``InferenceResult`` after scoring,
        matching the runner's streaming result-store memory model.  Note
        the batch solve itself is still one multi-RHS system (that is
        what makes it fast), so the per-target results do exist
        transiently while the window is scored; the consumer bounds what
        the *returned* ``ScenarioResult`` holds on to.
        """
        return evaluate_forest([(self, prepared, campaign)], target_consumer)[0]

    # -- end to end ------------------------------------------------------------

    def run(
        self,
        seed: Optional[int] = None,
        prepared: Optional[PreparedTopology] = None,
        campaign: Optional[MeasurementCampaign] = None,
        campaign_seed: Optional[int] = None,
        target_consumer=None,
    ) -> ScenarioResult:
        """The full pipeline; stages already in hand can be passed in."""
        if prepared is None:
            prepared = self.prepare(seed)
        if campaign is None:
            campaign = self.simulate(prepared, seed, campaign_seed=campaign_seed)
        return self.evaluate(prepared, campaign, target_consumer=target_consumer)


def evaluate_forest(
    runs: Sequence[Tuple["Scenario", PreparedTopology, MeasurementCampaign]],
    target_consumer: Optional[
        Callable[[str, Optional[int], int, Snapshot, InferenceResult], None]
    ] = None,
) -> List[ScenarioResult]:
    """Evaluate many independent scenario runs with one batched LIA solve.

    The campaign-scale shape: a *forest* of small independent trees, each
    with its own (scenario, prepared topology, campaign) triple, and the
    one body of stages 4+5 (:meth:`Scenario.evaluate` is a forest of one).
    Every estimator is fitted per run and window (phase 1 for LIA).  The
    LIA phase-2 solves of single-target windows — one small triangular
    system per tree — are queued across the whole forest and dispatched
    as a single :func:`repro.core.engine.infer_many` call, which packs the
    per-tree log, clip and exp into one ufunc call each instead of one
    per tree.  Multi-target windows (``predict_batch``) and non-LIA
    estimators predict as soon as they are fitted.

    ``infer_many`` is bit-identical to a loop of ``engine.infer`` calls,
    so the results do not depend on how many runs share a call (pinned
    in ``tests/test_api.py``).  *target_consumer* has the contract of
    :meth:`Scenario.evaluate` and is invoked in run order, then
    estimator/window order within a run.
    """
    from repro.api.adapters import LIAEstimator
    from repro.core.engine import infer_many

    queued: List[tuple] = []  # (engine, target, estimate) across all runs
    pending: List[tuple] = []  # per run: its context and its scoring jobs

    for scenario, prepared, campaign in runs:
        routing = prepared.routing
        max_m = len(campaign) - scenario.num_targets
        if max_m < 1:
            raise ValueError(
                f"campaign of {len(campaign)} snapshots cannot hold "
                f"{scenario.num_targets} targets plus a training window"
            )
        if max(scenario.grid) > max_m:
            raise ValueError(
                f"training window {max(scenario.grid)} exceeds the "
                f"{max_m} available training snapshots"
            )
        targets = list(campaign.snapshots[max_m:])
        # (spec, window length, estimator, results or index into queued)
        jobs: List[tuple] = []
        for spec in scenario.estimators:
            estimator = spec.build()
            if getattr(estimator, "uses_training", True):
                windows = [
                    (m, campaign.snapshots[max_m - m : max_m])
                    for m in scenario.grid
                ]
            else:
                windows = [(None, campaign.snapshots[:max_m])]
            for num_training, snapshots in windows:
                estimator.fit(
                    MeasurementCampaign(routing=routing, snapshots=snapshots),
                    paths=prepared.paths,
                )
                if isinstance(estimator, LIAEstimator) and len(targets) == 1:
                    # Defer phase 2 into the forest-wide batched solve.
                    # The engine and estimate are captured *now*: the
                    # estimator is refitted for the next window, but each
                    # fit produces a fresh estimate and the engine
                    # persists.
                    jobs.append((spec, num_training, estimator, len(queued)))
                    queued.append(
                        (estimator.algorithm, targets[0], estimator._estimate)
                    )
                elif len(targets) > 1:
                    results = estimator.predict_batch(targets)
                    jobs.append((spec, num_training, estimator, results))
                else:
                    results = [estimator.predict(targets[0])]
                    jobs.append((spec, num_training, estimator, results))
        pending.append((scenario, prepared, campaign, targets, jobs))

    batch = infer_many(queued)

    scenario_results: List[ScenarioResult] = []
    for scenario, prepared, campaign, targets, jobs in pending:
        evaluations: List[EstimatorEvaluation] = []
        for spec, num_training, estimator, results in jobs:
            if isinstance(results, int):
                raw = batch[results]
                results = [
                    InferenceResult(
                        method=estimator.name,
                        kind=estimator.kind,
                        values=raw.loss_rates,
                        raw=raw,
                    )
                ]
            evaluations.append(
                _evaluation(
                    spec,
                    num_training,
                    targets,
                    results,
                    prepared.routing,
                    scenario.model.threshold,
                    target_consumer,
                )
            )
        scenario_results.append(
            ScenarioResult(
                scenario=scenario,
                prepared=prepared,
                campaign=campaign,
                targets=targets,
                evaluations=evaluations,
            )
        )
    return scenario_results


def _evaluation(
    spec: EstimatorSpec,
    num_training: Optional[int],
    targets: Sequence[Snapshot],
    results: List[InferenceResult],
    routing,
    threshold: float,
    target_consumer=None,
) -> EstimatorEvaluation:
    """One estimator window's predictions, streamed and scored."""
    if target_consumer is not None:
        for index, (target, result) in enumerate(zip(targets, results)):
            target_consumer(
                spec.display_label, num_training, index, target, result
            )
    detections: List[DetectionOutcome] = []
    for target, result in zip(targets, results):
        if target.truth is None:
            continue
        truth = target.virtual_congested(routing)
        if result.congested_columns is not None:
            detections.append(
                detection_outcome(result.congested_mask(), truth)
            )
        elif result.kind == "rates":
            detections.append(
                evaluate_location(result.values, truth, routing, threshold)
            )
    accuracy = None
    last_target, last_result = targets[-1], results[-1]
    if (
        last_result.kind == "rates"
        and last_target.realized_loss_fractions is not None
    ):
        accuracy = AccuracyReport.compare(
            last_target.realized_virtual_loss_rates(routing),
            last_result.values,
        )
    return EstimatorEvaluation(
        spec=spec,
        label=spec.display_label,
        num_training=num_training,
        # With a consumer the caller has already folded per-target
        # state; keep only the last result so memory stays flat in
        # the target count.
        results=results if target_consumer is None else [results[-1]],
        detections=detections,
        accuracy=accuracy,
    )
