"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs briefly through the real command, so this takes a few
minutes; the repository's own test suite does not collect it.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]

#: Counts that must come out identical from two runs with one seed.
EXACT_COUNTS = (
    "netsim.events",
    "topology.paths_removed",
    "lossmodel.link_slots",
    "monitor.rebases",
    "monitor.refreshes",
)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.cache
def result(workload: str, trace: int, attempt: int = 0) -> dict:
    """The JSON result of one run; *attempt* tells repeated runs apart."""
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted(workload, trace):
    declared = DECLARED["end_to_end" if trace == 0 else "per_layer"]
    got = result(workload, trace)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in got["metrics"].items()
    }
    if trace == 0:
        assert all(m["value"] > 0 for m in got["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counts_repeat_for_one_seed(workload):
    first = result(workload, 1)["metrics"]
    second = result(workload, 1, attempt=1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_wrappers_come_off():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from repro.api import Scenario
    from repro.experiments.base import scale_params

    originals = [tracer.resolve(t)[2] for t in tracer.TARGETS]
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert all(
            tracer.resolve(t)[2] is not raw
            for t, raw in zip(tracer.TARGETS, originals)
        )
        Scenario(topology="tree", params=scale_params("tiny")).prepare(1)
    finally:
        recorder.uninstall()
    assert all(
        tracer.resolve(t)[2] is raw for t, raw in zip(tracer.TARGETS, originals)
    )
    names = {span[0] for span in recorder.spans}
    assert {"topology.prepare", "topology.routing", "topology.fluttering"} <= names
    assert all(end >= start for _, start, end, _ in recorder.spans)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
