"""One benchmark run in a fresh process: set-up, measured passes, result.

run.py starts this file with ``python3`` and passes the moment it did so,
so ``setup_s`` covers interpreter start, imports, input generation and
warm-up.  BLAS and OpenMP are pinned to one thread before numpy loads.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (reporting the
median), then makes passes until ``--seconds`` of measured time have
passed and at least the workload's ``min_passes`` have run, and reports
the end-to-end metrics, with pass times counted at the host speed where
:func:`reference_s` reads ``REFERENCE_S``.  With ``--trace 1`` it sets
up once under the layer wrappers, makes ``min_passes`` untraced passes
and the same passes traced on an identical state, reports the per-layer
metrics, and writes
``.perfbench_out/<workload>-seed<N>.trace.json`` (trace-event JSON) and
``.layers.txt`` (self time per span name).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"
#: :func:`reference_s` on the host the figures in README.md were taken
#: on, in its fast phases (it read 1.4-1.7 ms then, 2.2-2.4 ms in its
#: slow ones).
REFERENCE_S = 1.5e-3
REFERENCE_REPS = 21


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


@functools.cache
def _reference_matrix():
    import numpy as np

    return np.random.default_rng(0).random((120, 120))


def reference_s() -> float:
    """Median time of a fixed matrix kernel: the host's speed now.

    The host's speed changes by up to half from one few-second stretch to
    the next (other tenants share it), for the benchmark's code and the
    program's alike.  The kernel is the benchmark's own, so a change to
    the program cannot move it.  Of the kernels tried (interpreter loops,
    a memory sweep, small and 120x120 matrix products), the 120x120
    products tracked the workloads' own times best.
    """
    matrix = _reference_matrix()
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        x = matrix
        for _ in range(20):
            x = (x @ matrix) * 1e-2 + 1.0
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at *root*, read from files (no git needed)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved {ref}"


def environment(root: Path, args) -> dict:
    import numpy
    import scipy

    from repro.core.kernels import current_tier
    from repro.runner.cache import compute_code_version

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "kernel_tier": current_tier(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "source_hash": compute_code_version(),
    }


def make_passes(workload, state, count, seconds, span, probe=None):
    """Passes until *count* ran and *seconds* of measured time passed."""
    from workloads import no_probe, no_span

    passes = []
    measured = 0.0
    while len(passes) < count or measured < seconds:
        gc.collect()
        result = workload.run_pass(state, span or no_span, probe or no_probe)
        passes.append(result)
        measured += result.seconds
    return passes


def scaled_seconds(result) -> float:
    """A pass's measured time counted at the speed where the probe reads
    REFERENCE_S, each stretch at the mean of the probes around it."""
    probes = result.probes
    return sum(
        seconds * 2.0 * REFERENCE_S / (before + after)
        for seconds, before, after in zip(result.stretches, probes, probes[1:])
    )


def end_to_end(workload, passes, setup_s) -> dict:
    """The run's end-to-end metrics.

    The rate is all the passes' work over their time, counted at the
    reference speed so that the host's changing speed cancels out
    (README.md, "Host speed").
    """
    kept = passes[: workload.min_passes]
    detection = [d for p in kept for d in p.detection_rates]
    wall = [p.ops / p.seconds for p in passes]
    ops = sum(p.ops for p in passes)
    probes = [t for p in passes for t in p.probes]
    print(
        f"# {len(passes)} passes; ops_per_s at wall-clock speed: median "
        f"{_median(wall):.6g}, best {max(wall):.6g}; reference kernel: median "
        f"{_median(probes) * 1e3:.4g} ms (REFERENCE_S {REFERENCE_S * 1e3:.4g} ms)"
    )
    return {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": ops / sum(scaled_seconds(p) for p in passes),
        "detection_rate": statistics.fmean(detection),
    }


def untraced_run(workload, args, workdir, imports_s):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous inputs go before building new ones
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    passes = make_passes(
        workload, state, workload.min_passes, args.seconds, None, reference_s
    )
    metrics = end_to_end(workload, passes, imports_s + _median(setup_times))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed


def layer_metrics(table, measure, setup, counts, passes, untraced_s) -> dict:
    scope = table.within(measure)
    setup_scope = table.within(setup)
    replays = [
        i for r in scope if table.spans[r][0] == "bench.replay"
        for i in table.within(r)
    ]

    def total(name, where=scope):
        return table.total(name, where)

    def self_total(name, where=scope):
        return table.self_total(name, where)

    wall = sum(p.seconds for p in passes)
    layer = {}
    for p in passes:
        for key, value in p.layer.items():
            layer[key] = layer.get(key, 0) + value
    latencies = [c for p in passes for c in p.calls]
    classes = [c for p in passes for c in p.observe_classes]

    def observe_ms(cls):
        return _median([t for t, c in zip(latencies, classes) if c == cls]) * 1e3

    def hit_ratio(cache):
        asked = sum(
            layer.get(f"core.{cache}_{c}", 0)
            for c in ("hits", "misses", "updates", "downdates")
        )
        return _ratio(layer.get(f"core.{cache}_hits", 0), asked)

    sample_s = total("lossmodel.sample")
    snapshot_s = total("netsim.snapshot")
    sorted_latencies = sorted(latencies) if classes else []
    return {
        "topology.prepare_s": total("topology.prepare"),
        "topology.fluttering_s": total("topology.fluttering"),
        "topology.routing_s": total("topology.routing"),
        "topology.paths_removed": counts.get("topology.paths_removed", 0),
        "lossmodel.sample_s": sample_s,
        "lossmodel.link_slots": counts.get("lossmodel.link_slots", 0),
        "lossmodel.ns_per_link_slot": _ratio(
            sample_s * 1e9, counts.get("lossmodel.link_slots", 0)
        ),
        "probing.campaign_self_s": self_total("probing.campaign"),
        "netsim.snapshot_s": snapshot_s,
        "netsim.events": counts.get("netsim.events", 0),
        "netsim.packets_forwarded": counts.get("netsim.packets_forwarded", 0),
        "netsim.events_per_s": _ratio(counts.get("netsim.events", 0), snapshot_s),
        "core.pairs_s": total("core.pairs"),
        "core.phase1_s": self_total("core.phase1"),
        "core.reduce_s": total("core.reduce"),
        "core.factorize_s": total("core.factorize"),
        "core.infer_many_s": total("core.infer_many"),
        "core.moments_phase1_s": total("core.moments_phase1"),
        "core.factorization_hit_ratio": hit_ratio("factorization"),
        "core.reduction_hit_ratio": hit_ratio("reduction"),
        "core.factorization_updates": layer.get("core.factorization_updates", 0),
        "api.evaluate_self_s": self_total("api.evaluate"),
        "monitor.plain_observe_ms": observe_ms("plain"),
        "monitor.refresh_observe_ms": observe_ms("refresh"),
        "monitor.refreshes": layer.get("monitor.refreshes", 0),
        "monitor.rebase_observe_ms": observe_ms("rebase"),
        "monitor.rebases": classes.count("rebase"),
        "monitor.rebase_share": _ratio(
            sum(t for t, c in zip(latencies, classes) if c == "rebase"),
            sum(latencies) if classes else 0.0,
        ),
        "monitor.observe_p99_ms": (
            sorted_latencies[int(0.99 * len(sorted_latencies))] * 1e3
            if sorted_latencies else 0.0
        ),
        "monitor.observe_max_ms": max(sorted_latencies, default=0.0) * 1e3,
        "runner.overhead_s": self_total("runner.run")
        - self_total("runner.run", replays),
        "runner.replay_s": total("runner.run", replays),
        "runner.cache_hit_ratio": _ratio(
            layer.get("runner.cache_hit_ratio", 0), len(passes)
        ),
        "lia.false_positive_rate": statistics.fmean(
            [f for p in passes for f in p.false_positive_rates]
        ),
        "setup.topology_s": total("topology.prepare", setup_scope),
        "setup.lossmodel_s": total("lossmodel.sample", setup_scope),
        "trace.pass_s": wall,
        "trace.coverage": _ratio(table.top_level_layers(measure), wall),
        "trace.overhead_frac": _ratio(wall, untraced_s) - 1.0,
    }


def traced_run(workload, args, workdir):
    import tracer

    originals = [tracer.resolve(t)[2] for t in tracer.TARGETS]
    recorder = tracer.Recorder()
    recorder.install()
    try:
        with recorder.span("bench.setup") as setup:
            state = workload.setup(args.seed, workdir)
    finally:
        recorder.uninstall()
    count = workload.min_passes
    untraced_state, traced_state = workload.fresh(state), workload.fresh(state)
    untraced = make_passes(workload, untraced_state, count, 0.0, None)
    counts_before = dict(recorder.counts)
    recorder.install()
    try:
        with recorder.span("bench.measure") as measure:
            passes = make_passes(workload, traced_state, count, 0.0, recorder.span)
    finally:
        recorder.uninstall()
    restored = all(
        tracer.resolve(t)[2] is raw for t, raw in zip(tracer.TARGETS, originals)
    )
    counts = {
        k: v - counts_before.get(k, 0) for k, v in recorder.counts.items()
    }
    table = tracer.SpanTable(recorder.spans)
    metrics = layer_metrics(
        table, measure, setup, counts, passes,
        sum(p.seconds for p in untraced),
    )
    check_attempted, check_failed = workload.trace_checks(counts)
    attempted = sum(p.attempted for p in untraced + passes) + check_attempted + 1
    failed = sum(p.failed for p in untraced + passes) + check_failed + (not restored)
    return metrics, attempted, failed, recorder, table


def write_trace(root, args, env, recorder, table) -> str:
    import tracer

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    trace_path = stem.with_suffix(".trace.json")
    trace_path.write_text(
        json.dumps(tracer.chrome_trace(recorder.spans, recorder.counts, env))
    )
    lines = [f"{'span':<24} {'calls':>8} {'incl s':>10} {'self s':>10}"]
    for name, calls, inclusive, self_s in table.self_time_table():
        lines.append(f"{name:<24} {calls:>8} {inclusive:>10.4f} {self_s:>10.4f}")
    text = "\n".join(lines) + "\n"
    stem.with_suffix(".layers.txt").write_text(text)
    print(text, end="")
    return os.fspath(trace_path.relative_to(root))


def main(argv=None) -> int:
    for name in THREAD_ENV:
        os.environ[name] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, os.fspath(root / "src"))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    imports_s = time.monotonic() - args.spawned_at
    workload = workloads.get(args.workload)
    env = environment(root, args)
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = root / OUT_DIR / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        metrics, attempted, failed, recorder, table = traced_run(workload, args, workdir)
        trace_file = write_trace(root, args, env, recorder, table)
        print(f"# trace written to {trace_file}; open it in https://ui.perfetto.dev")
    else:
        metrics, attempted, failed = untraced_run(workload, args, workdir, imports_s)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        print(
            f"perfbench: computed {sorted(set(metrics) ^ set(units))} "
            "do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 4
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>16.6g} {unit}")
    print(f"# {workload.name}: {attempted} operations attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
