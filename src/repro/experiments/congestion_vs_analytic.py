"""Congestion-induced vs analytic losses: does LIA survive real queues?

The paper's evaluation samples losses from an *analytic* process
(Gilbert chains parameterised by assigned rates).  This experiment
replays the same study with the loss realisation swapped for the
discrete-event packet simulator (:mod:`repro.netsim.sim`): drops happen
because finite FIFO buffers overflow under calibrated on/off drivers
plus AIMD/BBR-like cross traffic.  Everything else — topology, ground
truth, probing layout, estimators — is held fixed snapshot for
snapshot: both arms run ``truth_mode="fixed"`` from the same campaign
seed, so they share the identical congested set and assigned rates and
differ only in how those rates become packet drops.

Reported side by side per arm:

* LIA detection rate / false-positive rate and rate-accuracy (error
  factor, absolute error) against the *realised* loss fractions;
* SCFS on the same target snapshot (the single-snapshot baseline);
* delay tomography MAE — the congestion arm feeds the simulator's own
  per-probe queueing delays (the same packets that produced the drops)
  into the delay estimator, while the analytic arm uses the analytic
  :class:`~repro.delay.DelayProbingSimulator`.

Expected shape: both arms agree qualitatively (DR near 1, FPR small);
the congestion arm is noisier — burst lengths are emergent rather than
chain-specified, and cross traffic leaks a little loss onto good links
— which is exactly the robustness statement worth pinning.

Sizing note: at tiny scale one snapshot (25 links, 150 probes) forwards
about 10k packets in 15k-26k dispatched events, so the presets use
smaller trees / shorter campaigns than the analytic experiments; the
comparison is within-experiment, both arms at identical sizing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.api import EstimatorSpec, Scenario, get
from repro.delay import DelayCampaign, DelayProbingSimulator, DelaySnapshot
from repro.experiments.base import (
    ExperimentResult,
    execute_trials,
    mean_and_ci,
    repetition_seeds,
    scale_params,
)
from repro.lossmodel import LLRD1
from repro.probing import ProberConfig
from repro.runner import ParallelRunner, TrialSpec
from repro.utils.rng import derive_seed
from repro.utils.tables import TextTable

ARMS = ("analytic", "congestion")

#: Event-loop-friendly overrides of the scale presets (see module note).
SIZING = {
    "tiny": dict(tree_nodes=25, num_end_hosts=6, snapshots=5, probes=150),
    "small": dict(tree_nodes=40, num_end_hosts=10, snapshots=8, probes=300),
    "paper": dict(tree_nodes=80, num_end_hosts=16, snapshots=12, probes=500),
}

#: Sub-seed salt of the analytic arm's delay campaign (the congestion
#: arm needs none: its delays are byproducts of the loss simulation).
DELAY_SALT = 7


def _delay_mae(campaign: DelayCampaign) -> float:
    """Fit/predict delay tomography; MAE of inferred column deviations."""
    routing = campaign.routing
    training, target = campaign.split_training_target()
    estimator = get("delay")
    estimator.fit(training)
    result = estimator.predict(target)
    training_mean = np.mean(
        [s.virtual_link_delays(routing) for s in training.snapshots], axis=0
    )
    truth_dev = target.virtual_link_delays(routing) - training_mean
    return float(np.mean(np.abs(result.values - truth_dev)))


def _congestion_delay_campaign(process, prepared) -> DelayCampaign:
    """Delay snapshots from the loss simulation's own probe sojourns."""
    num_links = process.num_links
    campaign = DelayCampaign(routing=prepared.routing)
    path_links = [
        np.asarray(p.link_indices(), dtype=np.int64) for p in prepared.paths
    ]
    for trace in process.traces:
        link_delays = np.zeros(num_links)
        link_delays[trace.active_links] = trace.delays_ms.mean(axis=1)
        path_delays = np.array(
            [link_delays[links].sum() for links in path_links]
        )
        campaign.append(
            DelaySnapshot(
                path_delays=path_delays,
                num_probes=trace.num_probes,
                link_delays=link_delays,
            )
        )
    return campaign


def trial(spec: TrialSpec) -> dict:
    """One repetition: both arms on one topology, truth held identical."""
    params = scale_params(spec.params["scale"]).sized(
        **SIZING[spec.params["scale"]]
    )
    payload: Dict[str, dict] = {}
    for arm in ARMS:
        scenario = Scenario(
            topology="tree",
            params=params,
            prober=ProberConfig(
                probes_per_snapshot=params.probes,
                congestion_probability=0.10,
                truth_mode="fixed",
            ),
            model=LLRD1,
            num_training=params.snapshots,
            traffic=arm,
            estimators=(
                EstimatorSpec("lia"),
                EstimatorSpec("scfs", {"link_threshold": LLRD1.threshold}),
            ),
        )
        prepared = scenario.prepare(spec.seed)
        simulator = scenario.build_simulator(prepared)
        if arm == "congestion":
            simulator.process.collect_traces = True
        campaign = simulator.run_campaign(
            scenario.campaign_length,
            prepared.routing,
            seed=derive_seed(spec.seed, scenario.campaign_salt),
        )
        outcome = scenario.evaluate(prepared, campaign)

        lia = outcome.evaluation("lia")
        scfs = outcome.evaluation("scfs")
        target = outcome.targets[-1]
        if arm == "congestion":
            delay_campaign = _congestion_delay_campaign(
                simulator.process, prepared
            )
        else:
            delay_sim = DelayProbingSimulator(
                prepared.paths,
                prepared.topology.network.num_links,
                probes_per_snapshot=params.probes,
                seed=derive_seed(spec.seed, DELAY_SALT),
            )
            delay_campaign = delay_sim.run_campaign(
                scenario.campaign_length,
                prepared.routing,
                seed=derive_seed(spec.seed, DELAY_SALT + 1),
            )
        payload[arm] = {
            "dr": lia.detection.detection_rate,
            "fpr": lia.detection.false_positive_rate,
            # Median error factors sit at exactly 1 (the clamped
            # good-link mass dominates); the worst link discriminates.
            "error_factor": lia.accuracy.error_factors.maximum,
            "abs_error": lia.accuracy.absolute_errors.maximum,
            "scfs_dr": scfs.detection.detection_rate,
            "scfs_fpr": scfs.detection.false_positive_rate,
            "delay_mae": _delay_mae(delay_campaign),
            "target_loss_mean": float(
                np.mean(target.realized_loss_fractions)
            ),
        }
    return payload


METRICS = (
    ("dr", "LIA DR"),
    ("fpr", "LIA FPR"),
    ("error_factor", "LIA max err-factor"),
    ("abs_error", "LIA max |err|"),
    ("scfs_dr", "SCFS DR"),
    ("scfs_fpr", "SCFS FPR"),
    ("delay_mae", "Delay MAE ms"),
)


def run(
    scale: str = "small",
    seed: Optional[int] = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    params = scale_params(scale).sized(**SIZING[scale])
    specs = [
        TrialSpec("congestion", rep, seed=rep_seed, params={"scale": scale})
        for rep, rep_seed in enumerate(
            repetition_seeds(seed, params.repetitions)
        )
    ]
    payloads = execute_trials(runner, "congestion", trial, specs)

    series: Dict[str, Dict[str, list]] = {
        arm: {key: [] for key, _ in METRICS} for arm in ARMS
    }
    for payload in payloads:
        for arm in ARMS:
            for key, _ in METRICS:
                series[arm][key].append(payload[arm][key])

    table = TextTable(["metric", "analytic", "congestion"])
    for key, label in METRICS:
        cells = []
        for arm in ARMS:
            mean, ci = mean_and_ci(series[arm][key])
            cells.append(f"{mean:.3f} +- {ci:.3f}")
        table.add_row([label, *cells])

    result = ExperimentResult(
        name="congestion",
        description=(
            f"LIA/SCFS/delay accuracy with analytic (Gilbert) vs "
            f"congestion-induced (packet-level queue overflow) losses; "
            f"{params.tree_nodes}-node trees, identical ground truth per "
            f"arm, m={params.snapshots}, S={params.probes}, "
            f"{params.repetitions} repetitions"
        ),
        table=table,
        data={arm: {k: list(v) for k, v in series[arm].items()} for arm in ARMS},
    )
    dr_a = float(np.mean(series["analytic"]["dr"]))
    dr_c = float(np.mean(series["congestion"]["dr"]))
    fpr_a = float(np.mean(series["analytic"]["fpr"]))
    fpr_c = float(np.mean(series["congestion"]["fpr"]))
    result.notes.append(
        f"LIA DR {dr_a:.3f} (analytic) vs {dr_c:.3f} (congestion); "
        f"FPR {fpr_a:.3f} vs {fpr_c:.3f} — emergent queue-overflow losses "
        "keep the variance signal LIA needs"
    )
    return result
