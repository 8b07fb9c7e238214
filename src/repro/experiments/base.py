"""Shared machinery of the experiment harness.

Every experiment module exposes ``run(scale="small", seed=0) ->
ExperimentResult``.  ``scale="paper"`` uses the paper's parameters
(1000-node topologies, m = 50, S = 1000, 10 repetitions); ``"small"``
shrinks them so the whole suite regenerates in minutes on a laptop, and
``"tiny"`` is for CI/benchmark smoke runs.  Scaling down changes absolute
numbers, never the qualitative shape the experiments check.

Trial functions phrase their topology → probe → infer → score loop as
:class:`repro.api.Scenario` runs; this module keeps only experiment
*sizing* (the scale presets) plus rendering/aggregation helpers.  The
topology front end (``make_topology``/``prepare_topology``/
``PreparedTopology``) lives in :mod:`repro.topology.prepare` and is
re-exported here for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import EstimatorSpec, Scenario
from repro.lossmodel import LLRD1, LossRateModel
from repro.lossmodel.processes import LossProcess
from repro.probing import ProberConfig
from repro.topology.prepare import (
    MESH_TOPOLOGY_KINDS,
    PreparedTopology,
    make_topology,
    prepare_topology,
)
from repro.runner import ParallelRunner, ResultView, TrialSpec
from repro.utils.rng import derive_seed
from repro.utils.tables import TextTable

__all__ = [
    "MESH_TOPOLOGY_KINDS",
    "SCALES",
    "SCALE_PRESETS",
    "ExperimentResult",
    "PreparedTopology",
    "ScaleParams",
    "execute_trials",
    "fold_grouped",
    "lia_scenario",
    "make_topology",
    "mean_and_ci",
    "prepare_topology",
    "repetition_seeds",
    "scale_params",
]

SCALES = ("tiny", "small", "paper")


@dataclass(frozen=True)
class ScaleParams:
    """Experiment sizing for one scale preset."""

    tree_nodes: int
    mesh_nodes: int
    num_end_hosts: int
    snapshots: int          # the paper's m
    probes: int             # the paper's S
    repetitions: int

    def sized(self, **overrides) -> "ScaleParams":
        return replace(self, **overrides)


SCALE_PRESETS: Dict[str, ScaleParams] = {
    "tiny": ScaleParams(
        tree_nodes=60, mesh_nodes=80, num_end_hosts=10,
        snapshots=15, probes=300, repetitions=2,
    ),
    "small": ScaleParams(
        tree_nodes=250, mesh_nodes=200, num_end_hosts=20,
        snapshots=30, probes=600, repetitions=3,
    ),
    "paper": ScaleParams(
        tree_nodes=1000, mesh_nodes=1000, num_end_hosts=60,
        snapshots=50, probes=1000, repetitions=10,
    ),
}


def scale_params(scale: str) -> ScaleParams:
    if scale not in SCALE_PRESETS:
        raise ValueError(f"unknown scale {scale!r}, want one of {SCALES}")
    return SCALE_PRESETS[scale]


@dataclass
class ExperimentResult:
    """Rendered output plus raw data of one experiment run."""

    name: str
    description: str
    table: TextTable
    data: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    extra_tables: List[Tuple[str, TextTable]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.name} ==", self.description, "", self.table.render()]
        for title, extra in self.extra_tables:
            lines.extend(["", title, extra.render()])
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


# -- campaign + evaluation -----------------------------------------------------


def lia_scenario(
    topology: str = "tree",
    params: Optional[ScaleParams] = None,
    congestion_probability: float = 0.10,
    snapshots: int = 50,
    probes: int = 1000,
    model: LossRateModel = LLRD1,
    process: Optional[LossProcess] = None,
    truth_mode: str = "fixed",
    variance_method: str = "wls",
    reduction_strategy: str = "threshold",
    fidelity: str = "packet",
    **scenario_kwargs,
) -> Scenario:
    """The canonical single-LIA scenario most experiments sweep.

    Extra keyword arguments pass through to :class:`repro.api.Scenario`
    (``topology_salt``, ``training_grid``, ``num_targets``, …).
    """
    return Scenario(
        topology=topology,
        params=params,
        prober=ProberConfig(
            probes_per_snapshot=probes,
            congestion_probability=congestion_probability,
            truth_mode=truth_mode,
            fidelity=fidelity,
        ),
        model=model,
        process=process,
        num_training=snapshots,
        estimators=(
            EstimatorSpec(
                "lia",
                {
                    "variance_method": variance_method,
                    "reduction_strategy": reduction_strategy,
                },
            ),
        ),
        **scenario_kwargs,
    )


def mean_and_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and half-width of a normal 95 % confidence interval."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to average")
    if arr.size == 1:
        return float(arr[0]), 0.0
    half = 1.96 * arr.std(ddof=1) / np.sqrt(arr.size)
    return float(arr.mean()), float(half)


def repetition_seeds(seed: Optional[int], count: int) -> List[Optional[int]]:
    """Independent derived seeds for experiment repetitions."""
    return [derive_seed(seed, i) if seed is not None else None for i in range(count)]


# -- trial scheduling ----------------------------------------------------------


def execute_trials(
    runner: Optional[ParallelRunner],
    experiment: str,
    trial_fn: Callable[[TrialSpec], dict],
    specs: Sequence[TrialSpec],
) -> ResultView:
    """Run an experiment's trial list through a :class:`ParallelRunner`.

    Every experiment module phrases its Monte-Carlo campaign as a list of
    :class:`TrialSpec` (repetition seeds x parameter grid) plus a pure,
    module-level trial function returning a JSON-serialisable payload.
    When *runner* is ``None`` a throwaway sequential runner (``n_jobs=1``,
    no cache) executes the trials in-process in spec order — exactly the
    behaviour the harness had before it learned to parallelise, seed for
    seed.

    The return value is a lazy, index-ordered
    :class:`~repro.runner.store.ResultView`: aggregators fold it in a
    single pass so a disk-backed (``store_dir``) campaign streams one
    payload at a time instead of materialising the whole grid in RAM.
    """
    active = runner if runner is not None else ParallelRunner(n_jobs=1)
    return active.run(experiment, trial_fn, specs)


def fold_grouped(
    payloads: Sequence[dict],
    groups: Sequence[Tuple[object, int]],
    fold: Callable[[object, dict], None],
) -> None:
    """Single-pass fold of a block-layout payload sequence.

    Experiments that build their spec list group-major (all repetitions
    of one topology kind / grid value / ablation label, then the next)
    aggregate with this: *groups* is ``[(key, count), ...]`` in the same
    order the specs were appended, and *fold* is called as
    ``fold(key, payload)`` exactly once per payload, in trial order.
    One pass over the (possibly disk-backed) view, no index arithmetic
    at the call sites.
    """
    total = sum(count for _, count in groups)
    if len(payloads) != total:
        raise ValueError(
            f"group sizes cover {total} payloads, got {len(payloads)}"
        )
    group_iter = iter(groups)
    key, remaining = None, 0
    for payload in payloads:
        while remaining == 0:
            key, remaining = next(group_iter)
        fold(key, payload)
        remaining -= 1
