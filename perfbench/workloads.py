"""The four benchmark workloads: seeded inputs, one measured pass, checks.

Every workload is a closed loop with one caller: the benchmark makes one
call into the program, waits for it, checks what came back and makes the
next.  A workload builds its inputs from the run's seed in
:meth:`setup` (timed as ``setup_s``), and :meth:`run_pass` does one
measured unit of work and reports how long the measured part took.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import copy
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
from scipy.linalg import hadamard

from repro.api import scenario as api_scenario
from repro.experiments import congestion_vs_analytic, table2_mesh_accuracy
from repro.experiments.base import lia_scenario, scale_params
from repro.lossmodel import BernoulliProcess
from repro.monitor import online
from repro.probing.snapshot import Snapshot
from repro.runner import ParallelRunner
from repro.topology.graph import Link, Path as TopologyPath
from repro.topology.routing import RoutingMatrix

SpanFactory = Callable[[str], object]
#: Measures the host's current speed, outside any measured stretch.
Probe = Callable[[], float]


def no_span(name: str):
    return nullcontext()


def no_probe() -> float:
    return 0.0


def sub_seed(seed: int, *salts: int) -> int:
    """A 32-bit seed derived from the run seed, independent of ``repro``."""
    sequence = np.random.SeedSequence([seed, *salts])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


@dataclass
class PassResult:
    """What one measured pass did and how long its measured part took."""

    seconds: float
    ops: int
    #: Latency of each call the benchmark made into the program.
    calls: List[float]
    attempted: int
    failed: int
    #: The paper's LIA detection rate / false-positive rate, one value
    #: per trial, tree or window-boundary check.
    detection_rates: List[float] = field(default_factory=list)
    false_positive_rates: List[float] = field(default_factory=list)
    #: Per-layer inputs the workload reads from the program's public
    #: counters (runner stats, cache info, observe classes).
    layer: Dict[str, float] = field(default_factory=dict)
    #: monitor-churn only: "plain", "refresh" or "rebase" per observe.
    observe_classes: List[str] = field(default_factory=list)
    #: Measured seconds of each stretch of the pass between two probes of
    #: the host's speed, and those probes: one more than the stretches.
    stretches: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)


class Workload:
    name = ""
    #: Passes every run makes, whatever ``--seconds`` says; accuracy is
    #: averaged over exactly these, so it repeats for a seed.
    min_passes = 1

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run_pass(
        self, state, span: SpanFactory = no_span, probe: Probe = no_probe
    ) -> PassResult:
        raise NotImplementedError

    def fresh(self, state):
        """State for a repeat of the same passes (passes that mutate copy)."""
        return state

    def trace_checks(self, counts: Dict[str, int]) -> "tuple[int, int]":
        """``(attempted, failed)`` of checks on the traced run's counts."""
        return 0, 0


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# -- mesh-campaign ---------------------------------------------------------------


@dataclass
class _CampaignState:
    #: Every pass of a run repeats the campaign for this seed.
    seed: int
    workdir: Path


class MeshCampaign(Workload):
    """Table 2 at small scale through a serial runner, then a cache replay."""

    name = "mesh-campaign"
    min_passes = 3

    def setup(self, seed, workdir):
        state = _CampaignState(sub_seed(seed, 0), workdir)
        # Warm-up: one tiny campaign through the same runner code path.
        self._campaign(state, "tiny", sub_seed(seed, 1))
        return state

    def _campaign(self, state, scale, seed, span=no_span):
        tmp = Path(tempfile.mkdtemp(prefix="mesh-", dir=state.workdir))
        store = tmp / "store"
        try:
            runner = ParallelRunner(
                n_jobs=1, backend="serial", cache_dir=tmp / "cache", store_dir=store
            )
            start = time.perf_counter()
            cold = table2_mesh_accuracy.run(scale=scale, seed=seed, runner=runner)
            cold_s = time.perf_counter() - start
            cold_stats = runner.last_stats
            cold_files = set(store.glob("*.jsonl"))
            with span("bench.replay"):
                table2_mesh_accuracy.run(scale=scale, seed=seed, runner=runner)
            total_s = time.perf_counter() - start
            replay_stats = runner.last_stats
            (replay_file,) = set(store.glob("*.jsonl")) - cold_files
            (cold_file,) = cold_files
            identical = cold_file.read_bytes() == replay_file.read_bytes()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return cold, cold_s, total_s, cold_stats, replay_stats, identical

    def run_pass(self, state, span=no_span, probe=no_probe):
        probes = [probe()]
        cold, cold_s, total_s, cold_stats, replay_stats, identical = self._campaign(
            state, "small", state.seed, span
        )
        probes.append(probe())
        drs, fprs = [], []
        for kind in cold.data.values():
            drs.extend(kind["dr"])
            fprs.extend(kind["fpr"])
        bad_trials = sum(not _finite(d, f) for d, f in zip(drs, fprs))
        replay_ok = (
            identical
            and replay_stats.trials_cached == replay_stats.trials_total
            and replay_stats.trials_executed == 0
        )
        return PassResult(
            seconds=total_s,
            ops=cold_stats.trials_executed,
            calls=[cold_s],
            attempted=len(drs) + 1,
            failed=bad_trials + (not replay_ok),
            detection_rates=drs,
            false_positive_rates=fprs,
            layer={
                "runner.cache_hit_ratio": replay_stats.trials_cached
                / max(replay_stats.trials_total, 1),
            },
            stretches=[total_s],
            probes=probes,
        )


# -- congestion ------------------------------------------------------------------


#: Campaigns per congestion pass.  A tiny campaign is two trees, and a
#: tree's simulation cost depends on how many of its links are congested,
#: so one pass averages ten trees to keep the pass cost steady from seed
#: to seed.
CONGESTION_CAMPAIGNS = 5


class Congestion(Workload):
    """Analytic vs packet-simulator arms on 25-node trees (tiny scale)."""

    name = "congestion"
    min_passes = 3

    def setup(self, seed, workdir):
        # Warm-up: one campaign through both arms.
        congestion_vs_analytic.run(scale="tiny", seed=sub_seed(seed, 1))
        return [sub_seed(seed, 0, k) for k in range(CONGESTION_CAMPAIGNS)]

    def run_pass(self, state, span=no_span, probe=no_probe):
        calls, dr, fpr = [], [], []
        probes = [probe()]
        failed = 0
        for seed in state:
            start = time.perf_counter()
            result = congestion_vs_analytic.run(scale="tiny", seed=seed)
            calls.append(time.perf_counter() - start)
            # A pass is several seconds, longer than the host keeps one
            # speed, so the speed is probed between campaigns.
            probes.append(probe())
            arms = result.data
            for t in range(len(arms["congestion"]["dr"])):
                failed += not all(
                    _finite(*(series[t] for series in arms[arm].values()))
                    for arm in congestion_vs_analytic.ARMS
                )
            dr.extend(arms["congestion"]["dr"])
            fpr.extend(arms["congestion"]["fpr"])
        return PassResult(
            seconds=sum(calls),
            ops=len(dr),
            calls=calls,
            attempted=len(dr),
            failed=failed,
            detection_rates=dr,
            false_positive_rates=fpr,
            stretches=calls,
            probes=probes,
        )

    def trace_checks(self, counts):
        return 1, int(counts.get("netsim.events", 0) <= 0)


# -- forest ----------------------------------------------------------------------

FOREST_TREES = 512
FOREST_SAMPLE = 8


@dataclass
class _ForestState:
    runs: list
    sample: List[int]
    reference: list


def _same_evaluation(a, b) -> bool:
    ea, eb = a.evaluation("lia"), b.evaluation("lia")
    return ea.detections == eb.detections and np.array_equal(
        ea.result.values, eb.result.values
    )


class Forest(Workload):
    """512 31-node trees evaluated with one batched phase-2 solve."""

    name = "forest"
    min_passes = 3

    def setup(self, seed, workdir):
        params = scale_params("tiny").sized(tree_nodes=31)
        # Bernoulli losses keep set-up to about a second, which leaves the
        # run its time for measuring; mesh-campaign measures the Gilbert
        # sampler.  The pass does the same work for either process.
        scenario = lia_scenario(
            topology="tree", params=params,
            snapshots=params.snapshots, probes=params.probes,
            process=BernoulliProcess(),
        )
        runs = []
        for i in range(FOREST_TREES):
            tree_seed = sub_seed(seed, i)
            prepared = scenario.prepare(tree_seed)
            runs.append((scenario, prepared, scenario.simulate(prepared, tree_seed)))
        sample = list(range(0, FOREST_TREES, FOREST_TREES // FOREST_SAMPLE))
        # The sequential path is the reference; computing it also warms
        # every code path the pass uses except the batched solve.
        reference = [runs[i][0].evaluate(runs[i][1], runs[i][2]) for i in sample]
        api_scenario.evaluate_forest(runs[:FOREST_SAMPLE])
        return _ForestState(runs, sample, reference)

    def run_pass(self, state, span=no_span, probe=no_probe):
        before = probe()
        start = time.perf_counter()
        results = api_scenario.evaluate_forest(state.runs)
        seconds = time.perf_counter() - start
        after = probe()
        mismatched = sum(
            not _same_evaluation(results[i], ref)
            for i, ref in zip(state.sample, state.reference)
        )
        detections = [r.evaluation("lia").detection for r in results]
        return PassResult(
            seconds=seconds,
            ops=len(results),
            calls=[seconds],
            attempted=len(results),
            failed=mismatched + (len(results) != len(state.runs)),
            detection_rates=[d.detection_rate for d in detections],
            false_positive_rates=[d.false_positive_rate for d in detections],
            stretches=[seconds],
            probes=[before, after],
        )


# -- monitor-churn ---------------------------------------------------------------

MONITOR_PATHS = 4096
MONITOR_LINKS = 400
MONITOR_LINKS_PER_PATH = 2
MONITOR_WINDOW = 256
#: Columns congested when the stream starts; each window then adds or
#: removes one, so the kept set changes by one column per refresh.
MONITOR_ACTIVE = 250


def synthetic_routing(rng: np.random.Generator) -> RoutingMatrix:
    """A deployment-sized routing matrix without simulating a topology.

    Each path crosses ``MONITOR_LINKS_PER_PATH`` distinct links drawn
    uniformly; the per-path node chains are made up so that ``Path``'s
    continuity checks pass while the column structure stays random.
    """
    paths = []
    node = 0
    for p in range(MONITOR_PATHS):
        columns = np.sort(
            rng.choice(MONITOR_LINKS, size=MONITOR_LINKS_PER_PATH, replace=False)
        )
        links = tuple(
            Link(index=int(j), tail=node + i, head=node + i + 1)
            for i, j in enumerate(columns)
        )
        paths.append(
            TopologyPath(index=p, source=links[0].tail, dest=links[-1].head, links=links)
        )
        node += MONITOR_LINKS_PER_PATH + 1
    return RoutingMatrix.from_paths(paths)


class _ChurnStream:
    """Snapshots whose congested columns follow Hadamard patterns.

    Rows 1..n-1 of an n x n Hadamard matrix are zero-mean and mutually
    orthogonal over any aligned window of n snapshots, so distinct
    congested columns have exactly zero sample covariance and phase 1
    recovers their variances exactly: at each window-boundary refresh
    the monitor must report exactly the active set.
    """

    def __init__(self, routing: RoutingMatrix, rng: np.random.Generator) -> None:
        self.rng = rng
        self.dense = routing.to_dense()
        self.hadamard = hadamard(MONITOR_WINDOW).astype(np.float64)
        candidates = MONITOR_WINDOW - 1  # one Hadamard row per column
        if routing.num_links < candidates:
            raise ValueError("alias reduction left too few columns")
        self.rows = rng.permutation(np.arange(1, MONITOR_WINDOW))
        self.amplitudes = 0.04 + 0.01 * rng.random(candidates)
        self.active = set(
            int(c) for c in rng.choice(candidates, MONITOR_ACTIVE, replace=False)
        )
        self.candidates = candidates

    def churn(self) -> None:
        """One column joins or leaves the congested set."""
        inactive = sorted(set(range(self.candidates)) - self.active)
        if inactive and self.rng.random() < 0.5:
            self.active.add(int(self.rng.choice(inactive)))
        else:
            self.active.remove(int(self.rng.choice(sorted(self.active))))

    def window(self) -> List[Snapshot]:
        columns = np.array(sorted(self.active))
        signs = self.hadamard[self.rows[columns]]  # (active, window)
        x = np.zeros((MONITOR_WINDOW, self.dense.shape[1]))
        x[:, columns] = (-self.amplitudes[columns, None] * (3.0 + signs) / 2.0).T
        transmission = np.exp(x @ self.dense.T)
        return [
            Snapshot(path_transmission=row, num_probes=1000) for row in transmission
        ]


@dataclass
class _MonitorState:
    monitor: online.OnlineLossMonitor
    stream: _ChurnStream
    observed: int = 0


class MonitorChurn(Workload):
    """A 4096-path monitor streaming windows with one-column churn."""

    name = "monitor-churn"
    min_passes = 4  # 1024 observes: at least ten samples beyond p99

    def setup(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4D4F4E]))
        routing = synthetic_routing(rng)
        state = _MonitorState(
            online.OnlineLossMonitor(
                routing,
                window=MONITOR_WINDOW,
                refresh_interval=MONITOR_WINDOW - 1,
                localize_always=True,
            ),
            _ChurnStream(routing, rng),
        )
        for snapshot in state.stream.window():
            state.monitor.observe(snapshot)
        state.observed = MONITOR_WINDOW
        return state

    def fresh(self, state):
        return copy.deepcopy(state)

    def run_pass(self, state, span=no_span, probe=no_probe):
        monitor, stream = state.monitor, state.stream
        stream.churn()
        snapshots = stream.window()
        before = probe()
        rebase_every = getattr(online, "MOMENTS_REBASE_INTERVAL", None)
        info_before = monitor.cache_info()
        latencies, classes = [], []
        refreshes = refreshed_at_boundary = 0
        for snapshot in snapshots:
            refreshes_before = monitor.variance_refreshes
            start = time.perf_counter()
            monitor.observe(snapshot)
            latencies.append(time.perf_counter() - start)
            state.observed += 1
            refreshed = monitor.variance_refreshes > refreshes_before
            refreshes += refreshed
            refreshed_at_boundary = refreshed
            if rebase_every and state.observed % rebase_every == 0:
                classes.append("rebase")
            elif refreshed:
                classes.append("refresh")
            else:
                classes.append("plain")
        after = probe()
        reported = set(monitor.currently_congested())
        active = stream.active
        exact = bool(refreshed_at_boundary) and reported == active
        info_after = monitor.cache_info()
        layer = {"monitor.refreshes": refreshes}
        for cache in ("factorization", "reduction"):
            for counter in ("hits", "misses", "updates", "downdates"):
                layer[f"core.{cache}_{counter}"] = getattr(
                    info_after[cache], counter
                ) - getattr(info_before[cache], counter)
        return PassResult(
            seconds=sum(latencies),
            ops=len(latencies),
            calls=latencies,
            attempted=len(latencies),
            failed=int(not exact),
            detection_rates=[len(reported & active) / len(active)],
            false_positive_rates=[
                len(reported - active) / len(reported) if reported else 0.0
            ],
            layer=layer,
            observe_classes=classes,
            stretches=[sum(latencies)],
            probes=[before, after],
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (MeshCampaign(), Congestion(), MonitorChurn(), Forest())
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
