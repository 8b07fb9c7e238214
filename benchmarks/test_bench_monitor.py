"""Online-monitor benchmarks: warm observe latency and update-vs-refactor.

The tentpole claim of the incremental-cache work is that a warm
``OnlineLossMonitor.observe`` whose variance refresh *grows* the kept
column set rides the CGS2 column-add path (plus the reused phase-2 basis
sweep) instead of refactorizing ``R*`` from scratch — O(changed), not
O(rebuild).  These benchmarks measure exactly that, on a synthetic
deployment sized so the factorization dominates:

* congested columns vary with zero-mean mutually *orthogonal* Hadamard
  patterns over the rolling window, so the sample covariance system is
  exactly consistent, phase-1 recovery is exact, and the kept set is a
  deterministic function of the stream — no statistical flakiness;
* phase A streams one full window with ``kept`` congested columns (the
  first warm refresh caches that factorization), phase B activates one
  more column and streams another full window, so the next refresh sees
  a kept set grown by exactly one column;
* the timed observe is that growth refresh: variance solve + reduction +
  factorization + localisation.  The update monitor (default limits)
  absorbs it with one CGS2 offer against the cached basis and one
  ``add_column``; the refactor monitor (limits 0) re-runs the basis
  sweep and a fresh Householder QR.

``test_monitor_observe_update_path`` asserts the >= 10x acceptance ratio
against inline refactor timings; the separate ``*_refactor_path``
benchmark gives the slow path its own baseline entry so CI's regression
gate sees both.  The steady-state tests record warm per-snapshot latency
percentiles (p50/p99) at 1k and 4k paths in ``extra_info``.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest
from scipy.linalg import hadamard

from benchmarks.conftest import run_once
from repro.monitor.online import OnlineLossMonitor
from repro.probing.snapshot import Snapshot
from repro.topology.graph import Link, Path
from repro.topology.routing import RoutingMatrix


def _synthetic_routing(
    num_paths: int, num_links: int, links_per_path: int, seed: int
) -> RoutingMatrix:
    """A deployment-scale routing matrix without simulating a topology.

    Each path traverses ``links_per_path`` distinct physical links chosen
    uniformly; the fabricated per-path node chains satisfy the ``Path``
    continuity checks while leaving column structure fully random.
    """
    rng = np.random.default_rng(seed)
    paths = []
    node = 0
    for p in range(num_paths):
        columns = np.sort(
            rng.choice(num_links, size=links_per_path, replace=False)
        )
        links = tuple(
            Link(index=int(j), tail=node + i, head=node + i + 1)
            for i, j in enumerate(columns)
        )
        paths.append(
            Path(
                index=p,
                source=links[0].tail,
                dest=links[-1].head,
                links=links,
            )
        )
        node += links_per_path + 1
    return RoutingMatrix.from_paths(paths)


class _Scenario:
    """A warm monitor pair plus the deterministic snapshot stream."""

    def __init__(
        self,
        num_paths: int,
        num_links: int,
        links_per_path: int,
        kept: int,
        window: int,
        seed: int,
        warm_refactor: bool = True,
    ):
        self.routing = _synthetic_routing(
            num_paths, num_links, links_per_path, seed
        )
        if self.routing.num_links <= kept + 1:
            raise AssertionError("alias reduction collapsed too many columns")
        self.window = window
        self.kept = kept
        self._dense = self.routing.to_dense()
        # Zero-mean rows 1..n-1 of the Hadamard matrix are mutually
        # orthogonal over any full window, so distinct congested columns
        # have exactly zero sample covariance and phase 1 recovers their
        # variances exactly: the kept set is deterministic.
        self._hadamard = hadamard(window).astype(np.float64)
        self._amplitudes = {
            c: 0.04 + 0.002 * (c % 5) for c in range(kept)
        }
        self._grown = dict(self._amplitudes)
        self._grown[kept] = 0.05

        # Phase A (one full window, `kept` congested columns), then phase
        # B (one more window, kept + 1).  refresh_interval == window puts
        # the second variance refresh exactly at t == 2 * window, where
        # the rolling window holds one full period of phase B.
        def build(**limits):
            monitor = OnlineLossMonitor(
                self.routing,
                window=window,
                refresh_interval=window,
                localize_always=True,
                **limits,
            )
            for t in range(2 * window):
                monitor.observe(self.snapshot(t))
            return monitor

        self.update_monitor = build()
        self.refactor_monitor = (
            build(incremental_limit=0) if warm_refactor else None
        )
        self.growth_snapshot = self.snapshot(2 * window)

    def snapshot(self, t: int) -> Snapshot:
        active = self._amplitudes if t < self.window else self._grown
        x = np.zeros(self.routing.num_links)
        for column, amplitude in active.items():
            row = (column % (self.window - 1)) + 1
            sign = self._hadamard[row, t % self.window]
            x[column] = -amplitude * (3.0 + sign) / 2.0
        return Snapshot(
            path_transmission=np.exp(self._dense @ x), num_probes=1000
        )

    def time_observe(self, update_rounds: int = 5, refactor_rounds: int = 3):
        """Best-of timings of the growth observe on both monitors.

        The two arms alternate round by round on fresh state copies, so
        a burst of host contention slows both arms alike instead of
        deciding their ratio.  Returns ``(seconds, observed state)`` per
        arm, update first.
        """
        monitors = (self.update_monitor, self.refactor_monitor)
        rounds = (update_rounds, refactor_rounds)
        best = [np.inf, np.inf]
        last = [None, None]
        for round_index in range(max(rounds)):
            for arm, monitor in enumerate(monitors):
                if round_index < rounds[arm]:
                    state = copy.deepcopy(monitor)
                    start = time.perf_counter()
                    state.observe(self.growth_snapshot)
                    best[arm] = min(best[arm], time.perf_counter() - start)
                    last[arm] = state
        return list(zip(best, last))


@pytest.fixture(scope="session")
def growth_scenario():
    """4096 paths, 254 kept columns growing to 255 at the timed refresh."""
    return _Scenario(
        num_paths=4096,
        num_links=400,
        links_per_path=2,
        kept=254,
        window=256,
        seed=42,
    )


@pytest.fixture(scope="session")
def steady_scenario():
    """1024-path steady-state deployment (no refactor twin needed)."""
    return _Scenario(
        num_paths=1024,
        num_links=300,
        links_per_path=3,
        kept=64,
        window=128,
        seed=7,
        warm_refactor=False,
    )


def _observe_growth(scenario, monitor):
    state = copy.deepcopy(monitor)
    return state, state.observe(scenario.growth_snapshot)


def test_monitor_observe_update_path(benchmark, growth_scenario):
    """Warm observe whose refresh grows the kept set by one column.

    The acceptance ratio of the incremental-factorization work: with the
    update paths on (monitor defaults) this observe must be >= 10x
    faster than the refactor-from-scratch monitor fed the identical
    stream.
    """
    scenario = growth_scenario

    def setup():
        return (copy.deepcopy(scenario.update_monitor),), {}

    benchmark.pedantic(
        lambda m: m.observe(scenario.growth_snapshot),
        setup=setup,
        rounds=3,
        iterations=1,
    )

    (t_update, updated), (t_refactor, refactored) = scenario.time_observe()
    # The growth refresh rode the incremental paths, not a rebuild.
    assert updated.factorization_updates >= 1
    assert updated.cache_info()["reduction"].updates >= 1
    assert refactored.factorization_updates == 0
    assert refactored.cache_info()["factorization"].misses >= 2
    benchmark.extra_info["update_seconds"] = t_update
    benchmark.extra_info["refactor_seconds"] = t_refactor
    benchmark.extra_info["speedup"] = t_refactor / t_update
    assert t_refactor >= 10.0 * t_update, (
        f"update path {t_update:.4f}s vs refactor {t_refactor:.4f}s: "
        f"only {t_refactor / t_update:.1f}x"
    )


def test_monitor_observe_refactor_path(benchmark, growth_scenario):
    """The same growth observe with the incremental paths disabled.

    Exists as its own benchmark so the baseline gate tracks the slow
    path and the update-vs-refactor speedup can be read off the two
    entries.
    """
    scenario = growth_scenario

    def setup():
        return (copy.deepcopy(scenario.refactor_monitor),), {}

    benchmark.pedantic(
        lambda m: m.observe(scenario.growth_snapshot),
        setup=setup,
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize("scale", ["1k", "4k"])
def test_monitor_steady_state_latency(
    benchmark, scale, steady_scenario, growth_scenario
):
    """Warm per-snapshot latency percentiles at 1k/4k-path scale.

    Streams 16 further snapshots into a copy of the warm monitor and
    records p50/p99 observe latency in ``extra_info`` — the
    "sub-millisecond online monitoring" number of the README.
    """
    scenario = steady_scenario if scale == "1k" else growth_scenario
    monitor = copy.deepcopy(scenario.update_monitor)
    start_t = 2 * scenario.window
    snapshots = [scenario.snapshot(start_t + i) for i in range(16)]

    def stream():
        latencies = []
        for snap in snapshots:
            t0 = time.perf_counter()
            monitor.observe(snap)
            latencies.append(time.perf_counter() - t0)
        return np.asarray(latencies)

    latencies = run_once(benchmark, stream)
    benchmark.extra_info["p50_ms"] = float(np.percentile(latencies, 50) * 1e3)
    benchmark.extra_info["p99_ms"] = float(np.percentile(latencies, 99) * 1e3)
    benchmark.extra_info["num_paths"] = scenario.routing.num_paths
    benchmark.extra_info["kept_columns"] = scenario.kept
    assert monitor.is_warm
