"""Phase 2 on the routing matrix's uint8 array against the seed's CSC reads.

The engine's caches, the reduction and the basis sweep read float64
columns straight out of ``RoutingMatrix.matrix``.  Every generator
family, tiny and small scale, seeds 0-2, must reproduce the seed's CSC
column source (``tests/oracles.py``) bit for bit: the kept columns of
every strategy, the QR factors of ``R*`` and the block they factorize,
the ``infer_many`` rates, and an online monitor's cache decisions
(hits, misses, updates, downdates) over a churn stream.
"""

import functools

import numpy as np
import pytest

from tests.oracles import read_phase2_columns_from_csc
from repro.core.engine import InferenceEngine, infer_many
from repro.core.reduction import REDUCTION_STRATEGIES
from repro.experiments.base import scale_params
from repro.monitor import OnlineLossMonitor
from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology

KINDS = ("tree",) + MESH_TOPOLOGY_KINDS
PROBES = 600


@functools.lru_cache(maxsize=None)
def routing_for(kind, scale, seed):
    return prepare_topology(kind, scale_params(scale), seed).routing


def link_log_rates(rng, num_links, congested, steps):
    """``steps`` rows of log link rates: *congested* columns swing
    between loss levels, every other column stays near lossless."""
    x = -rng.random((steps, num_links)) * 1e-5
    x[:, congested] = -rng.uniform(0.01, 0.1, size=(steps, len(congested)))
    return x


def campaign_for(routing, seed, snapshots=12):
    rng = np.random.default_rng(seed)
    congested = rng.choice(
        routing.num_links, size=max(1, routing.num_links // 10), replace=False
    )
    x = link_log_rates(rng, routing.num_links, congested, snapshots)
    R = routing.matrix.astype(np.float64)
    return MeasurementCampaign(
        routing=routing,
        snapshots=[
            Snapshot(path_transmission=np.exp(R @ row), num_probes=PROBES)
            for row in x
        ],
    )


def phase2_state(routing, campaign):
    """Everything phase 2 hands out for one routing matrix, as bytes."""
    training, target = campaign.split_training_target()
    state = []
    runs = []
    for strategy in REDUCTION_STRATEGIES:
        engine = InferenceEngine(routing, reduction_strategy=strategy)
        estimate = engine.learn_variances(training)
        kept = engine.reduce(estimate, target.num_probes).kept_columns
        cache = engine.factorization_cache
        block = cache.block(kept)
        qr = cache.factorization(kept) if len(kept) <= routing.num_paths else None
        state.append(
            (
                strategy,
                kept.tobytes(),
                block.flags.f_contiguous,
                block.tobytes(order="A"),
                None if qr is None else (qr.q.tobytes(), qr.r.tobytes()),
            )
        )
        runs.append((engine, target, estimate))
    rates = [r.transmission_rates.tobytes() for r in infer_many(runs)]
    return state, rates


def churn_stream(routing, seed, steps=30):
    """Snapshots whose congested set loses one column at step 12 and
    gains another at step 20 (refreshes then downdate and update)."""
    rng = np.random.default_rng(100 + seed)
    picked = rng.choice(routing.num_links, size=4, replace=False)
    R = routing.matrix.astype(np.float64)
    for t in range(steps):
        active = list(picked[:3]) if t < 12 else list(picked[1:3])
        if t >= 20:
            active.append(picked[3])
        x = link_log_rates(rng, routing.num_links, active, 1)[0]
        yield Snapshot(path_transmission=np.exp(R @ x), num_probes=PROBES)


def monitor_decisions(routing, seed):
    monitor = OnlineLossMonitor(
        routing, window=6, refresh_interval=2, localize_always=True
    )
    decisions = []
    for snapshot in churn_stream(routing, seed):
        report = monitor.observe(snapshot)
        info = monitor.cache_info()
        decisions.append(
            (
                info["factorization"],
                info["reduction"],
                None if report.loss_rates is None else report.loss_rates.tobytes(),
                [(e.kind, e.column) for e in report.events],
            )
        )
    return decisions


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("kind", KINDS)
def test_uint8_columns_equal_csc_reads(monkeypatch, kind, scale, seed):
    routing = routing_for(kind, scale, seed)
    campaign = campaign_for(routing, seed)
    got = phase2_state(routing, campaign)
    got_monitor = monitor_decisions(routing, seed)
    with monkeypatch.context() as patch:
        read_phase2_columns_from_csc(patch)
        want = phase2_state(routing, campaign)
        want_monitor = monitor_decisions(routing, seed)
    assert got == want
    assert got_monitor == want_monitor


def test_churn_stream_exercises_update_and_downdate():
    """The stream above does reach both incremental paths somewhere."""
    updates = downdates = 0
    for kind in KINDS:
        routing = routing_for(kind, "tiny", 0)
        info = monitor_decisions(routing, 0)[-1][0]
        updates += info.updates
        downdates += info.downdates
    assert updates > 0 and downdates > 0

