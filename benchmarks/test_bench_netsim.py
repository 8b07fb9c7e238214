"""Benchmarks of the discrete-event packet simulator (repro.netsim.sim).

Two granularities: the raw event-loop throughput of one simulated
snapshot (packets/sec and events/sec, recorded in ``extra_info``), and
the end-to-end cost of a congestion-traffic campaign through the
Scenario pipeline — the number the congestion-vs-analytic experiment's
wall-clock budget is made of.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.api import EstimatorSpec, Scenario
from repro.experiments.base import scale_params
from repro.lossmodel import CongestionLossProcess
from repro.netsim.sim import CongestionSimulator

#: A 12-link chain-and-branch layout: 8 paths, every link active.
PATHS = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 4, 5),
    (0, 4, 6),
    (7, 8),
    (7, 9),
    (10, 11),
    (10, 2),
]
NUM_LINKS = 12


@pytest.fixture(scope="module")
def simulator():
    return CongestionSimulator(PATHS, NUM_LINKS)


@pytest.fixture(scope="module")
def rates():
    values = np.zeros(NUM_LINKS)
    values[[1, 5, 8]] = (0.05, 0.1, 0.03)
    return values


def test_netsim_snapshot_throughput(benchmark, simulator, rates):
    """One 600-probe snapshot: the simulator's core event-loop cost."""
    trace = benchmark(simulator.run_snapshot, rates, 600, 17)
    assert trace.drops.shape == (NUM_LINKS, 600)
    assert trace.probe_drops > 0
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = trace.events / elapsed
    benchmark.extra_info["packets_per_sec"] = (
        trace.packets_forwarded / elapsed
    )


def test_netsim_loss_process_snapshot(benchmark, rates):
    """The LossProcess seam: sample_states including the fallback rows."""
    process = CongestionLossProcess(PATHS, NUM_LINKS)
    states = benchmark(process.sample_states, rates, 400, 23)
    assert states.shape == (NUM_LINKS, 400)


def test_congestion_campaign_end_to_end(benchmark):
    """A full congestion-traffic Scenario run (tiny sizing), one round."""
    scenario = Scenario(
        topology="tree",
        params=scale_params("tiny").sized(
            tree_nodes=25, num_end_hosts=6, snapshots=5, probes=150
        ),
        num_training=5,
        traffic="congestion",
        estimators=(EstimatorSpec("lia"),),
    )
    outcome = run_once(benchmark, scenario.run, seed=0)
    assert outcome.evaluation("lia").detection.detection_rate > 0
