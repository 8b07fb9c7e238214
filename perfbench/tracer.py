"""Spans around the program's layer entry points, recorded from outside.

The traced run replaces each public entry point named in :data:`TARGETS`
with a thin wrapper that appends one span record (name, start, end,
parent) to an in-memory list, and restores the original objects when it
is done.  Nothing under ``src/`` knows it is being traced.  A span
record is four fields; rates and shares are derived from them when the
run ends.  :func:`chrome_trace` turns the records into trace-event JSON
that opens in Perfetto (ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans the benchmark opens around its own code (passes, set-up, the
#: replay) carry this prefix; every other span name is a program layer.
BENCH_PREFIX = "bench."


def _count_prepared(result: Any) -> Dict[str, int]:
    return {"topology.paths_removed": int(result.num_removed_fluttering)}


def _count_link_slots(result: Any) -> Dict[str, int]:
    return {"lossmodel.link_slots": int(result.size)}


def _count_snapshot(result: Any) -> Dict[str, int]:
    return {
        "netsim.events": int(result.events),
        "netsim.packets_forwarded": int(result.packets_forwarded),
    }


@dataclass(frozen=True)
class Target:
    """One entry point: where it lives, the span it records, its counts."""

    module: str
    attr: str  # "function" or "Class.method", looked up in *module*
    span: str
    count: Optional[Callable[[Any], Dict[str, int]]] = None


#: The layer entry points, wrapped in the namespace their callers use.
TARGETS: Tuple[Target, ...] = (
    Target("repro.api.scenario", "prepare_topology", "topology.prepare",
           _count_prepared),
    Target("repro.topology.prepare", "find_fluttering_pairs", "topology.fluttering"),
    Target("repro.topology.prepare", "remove_fluttering_paths", "topology.fluttering"),
    Target("repro.topology.prepare", "build_paths", "topology.routing"),
    Target("repro.topology.routing", "RoutingMatrix.from_paths", "topology.routing"),
    Target("repro.lossmodel.gilbert", "GilbertProcess.sample_states",
           "lossmodel.sample", _count_link_slots),
    Target("repro.lossmodel.bernoulli", "BernoulliProcess.sample_states",
           "lossmodel.sample", _count_link_slots),
    Target("repro.probing.prober", "ProbingSimulator.run_campaign", "probing.campaign"),
    Target("repro.netsim.sim.simulator", "CongestionSimulator.run_snapshot",
           "netsim.snapshot", _count_snapshot),
    Target("repro.core.engine", "intersecting_pairs", "core.pairs"),
    Target("repro.core.engine", "InferenceEngine.learn_variances", "core.phase1"),
    Target("repro.core.engine", "InferenceEngine.reduce", "core.reduce"),
    Target("repro.core.engine", "FactorizationCache.factorization", "core.factorize"),
    Target("repro.core.engine", "infer_many", "core.infer_many"),
    Target("repro.monitor.online", "estimate_link_variances_from_moments",
           "core.moments_phase1"),
    Target("repro.api.scenario", "Scenario.evaluate", "api.evaluate"),
    Target("repro.api.scenario", "evaluate_forest", "api.evaluate"),
    Target("repro.monitor.online", "OnlineLossMonitor.observe", "monitor.observe"),
    Target("repro.runner.core", "ParallelRunner.run", "runner.run"),
    Target("repro.experiments.table2_mesh_accuracy", "trial", "runner.trial"),
    Target("repro.experiments.congestion_vs_analytic", "trial", "runner.trial"),
)


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw object)`` for *target*, unwrapped.

    The raw object is read from the owner's ``__dict__``, so a
    ``classmethod`` comes back as the descriptor itself and can be put
    back exactly as found.
    """
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Recorder:
    """In-memory span list; ``spans[i] = [name, start_ns, end_ns, parent]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around the benchmark's own code; yields its index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str, count=None) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                for key, value in count(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Swap every entry point in :data:`TARGETS` for its traced wrapper."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for target in TARGETS:
            owner, name, raw = resolve(target)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, target.span, target.count))
            else:
                wrapped = self.wrap(raw, target.span, target.count)
            self._installed.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of install."""
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)


# -- analysis ------------------------------------------------------------------


class SpanTable:
    """Derived views of a span list: durations, self times, ancestry."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.children: List[List[int]] = [[] for _ in spans]
        for index, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(index)

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return (end - start) * 1e-9

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(
            self.duration(c) for c in self.children[index]
        )

    def ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def within(self, root: int) -> List[int]:
        """*root* and every span below it."""
        found, todo = [], [root]
        while todo:
            index = todo.pop()
            found.append(index)
            todo.extend(self.children[index])
        return found

    def total(self, name: str, scope: List[int]) -> float:
        """Inclusive time in *name* spans, nested repeats counted once."""
        return sum(
            self.duration(i)
            for i in scope
            if self.spans[i][0] == name
            and all(self.spans[a][0] != name for a in self.ancestors(i))
        )

    def self_total(self, name: str, scope: List[int]) -> float:
        return sum(self.self_time(i) for i in scope if self.spans[i][0] == name)

    def top_level_layers(self, root: int) -> float:
        """Time in layer spans that have no layer span above them."""
        total = 0.0
        for index in self.within(root):
            name = self.spans[index][0]
            if name.startswith(BENCH_PREFIX):
                continue
            if all(
                self.spans[a][0].startswith(BENCH_PREFIX)
                for a in self.ancestors(index)
            ):
                total += self.duration(index)
        return total

    def self_time_table(self) -> List[Tuple[str, int, float, float]]:
        """``(name, calls, inclusive s, self s)`` per span name, by self time."""
        rows: Dict[str, list] = {}
        for index, (name, _, _, _) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            if all(self.spans[a][0] != name for a in self.ancestors(index)):
                row[1] += self.duration(index)
            row[2] += self.self_time(index)
        return sorted(
            ((name, *row) for name, row in rows.items()),
            key=lambda r: -r[3],
        )


def chrome_trace(spans: List[list], counts: Dict[str, int], meta: dict) -> dict:
    """Trace-event JSON: one complete ("X") event per span, times in µs."""
    origin = min((s[1] for s in spans), default=0)
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": f"perfbench {meta.get('workload', '')}"}},
    ]
    for name, start, end, _ in spans:
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**meta, "counts": counts},
    }
