"""Ablations over the design choices DESIGN.md calls out.

Not a paper table — this sweeps the implementation's own knobs on one
fixed workload (tree, LLRD1, p = 10 %) so the trade-offs are documented
with numbers:

* phase-1 solver: wls / normal / nnls, one row per estimator that
  gives a different answer (the ``variance=wls`` row re-measures the
  default solver on the shared ablation grid so the baseline everything
  else uses is itself in the table, not only in the composite first
  row);
* phase-2 reduction: gap / paper / greedy;
* simulator fidelity: packet / flow;
* loss process: Gilbert / Bernoulli (the paper's "differences are
  insignificant" check);
* negative-covariance equations: dropped (paper) / kept.

Trial params carry only the variant *label* (labels are the cache/JSON
identity); the label is mapped back to ``lia_scenario`` overrides —
which may contain non-serialisable objects like loss processes — inside
the trial function.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.experiments.base import (
    ExperimentResult,
    execute_trials,
    fold_grouped,
    lia_scenario,
    repetition_seeds,
    scale_params,
)
from repro.lossmodel import BernoulliProcess
from repro.runner import ParallelRunner, TrialSpec
from repro.utils.tables import TextTable

# The full canonical solver grid from repro.core, *including* the
# default "wls", so the solver ablation measures the solver everything
# else uses.  Labels keep their exact spelling and payload keys so
# cached trials stay valid.
ABLATED_VARIANCE_METHODS = ("wls", "normal", "nnls")
ABLATED_REDUCTION_STRATEGIES = ("gap", "paper", "greedy")


def variant_labels() -> List[str]:
    """The ablation grid, in presentation order."""
    labels = ["default (wls+threshold)"]
    labels.extend(f"variance={m}" for m in ABLATED_VARIANCE_METHODS)
    labels.extend(f"reduction={s}" for s in ABLATED_REDUCTION_STRATEGIES)
    labels.append("fidelity=flow")
    labels.append("process=bernoulli")
    return labels


def _variant_overrides(label: str) -> dict:
    if label == "default (wls+threshold)":
        return {}
    if label.startswith("variance="):
        return {"variance_method": label.split("=", 1)[1]}
    if label.startswith("reduction="):
        return {"reduction_strategy": label.split("=", 1)[1]}
    if label == "fidelity=flow":
        return {"fidelity": "flow"}
    if label == "process=bernoulli":
        return {"process": BernoulliProcess()}
    raise ValueError(f"unknown ablation variant {label!r}")


def trial(spec: TrialSpec) -> dict:
    """One (variant, repetition) scenario on the fixed tree workload.

    Every variant runs the full tree size for its scale, so solver rows
    are comparable like-for-like with the rest of the table.  The
    ``nnls`` row densifies ``A`` by definition; that is a measured,
    bounded cost (~80 s per trial on a ~600 MiB dense ``A`` at paper
    scale, a small slice of a paper-scale ablation campaign) rather
    than a reason to measure it on a different workload than
    everything else.
    """
    label = spec.params["variant"]
    p = scale_params(spec.params["scale"])
    scenario = lia_scenario(
        topology="tree",
        params=p,
        snapshots=p.snapshots,
        probes=p.probes,
        **_variant_overrides(label),
    )
    evaluation = scenario.run(seed=spec.seed).evaluations[0]
    return {
        "dr": evaluation.detection.detection_rate,
        "fpr": evaluation.detection.false_positive_rate,
        "median_ae": evaluation.accuracy.absolute_errors.median,
        "max_ae": evaluation.accuracy.absolute_errors.maximum,
    }


def run(
    scale: str = "small",
    seed: Optional[int] = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    params = scale_params(scale)
    table = TextTable(["variant", "DR", "FPR", "median AE", "max AE"])

    labels = variant_labels()
    specs = []
    reps_of: dict = {}
    for label in labels:
        reps_of[label] = params.repetitions
        for rep_seed in repetition_seeds(seed, reps_of[label]):
            specs.append(
                TrialSpec(
                    "ablations", len(specs), seed=rep_seed,
                    params={"scale": scale, "variant": label},
                )
            )
    payloads = execute_trials(runner, "ablations", trial, specs)

    # One streaming pass: payloads arrive label-major (variable
    # repetitions per label), folding into per-label metric lists.
    folds: dict = {
        label: {"dr": [], "fpr": [], "median_ae": [], "max_ae": []}
        for label in labels
    }

    def fold(label, payload):
        for metric in ("dr", "fpr", "median_ae", "max_ae"):
            folds[label][metric].append(payload[metric])

    fold_grouped(
        payloads, [(label, reps_of[label]) for label in labels], fold
    )

    for label in labels:
        metrics = folds[label]
        table.add_row(
            [
                label,
                float(np.mean(metrics["dr"])),
                float(np.mean(metrics["fpr"])),
                float(np.mean(metrics["median_ae"])),
                float(np.mean(metrics["max_ae"])),
            ]
        )

    result = ExperimentResult(
        name="ablations",
        description=(
            "Design-choice ablations on trees (LLRD1, p=10%); each row "
            "changes one knob relative to the default in the first row"
        ),
        table=table,
    )
    return result
