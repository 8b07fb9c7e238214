"""Experiment harness: one runner per table/figure of the paper.

Every module exposes ``run(scale, seed) -> ExperimentResult``; the
registry below maps experiment ids to runners.  Use the CLI::

    repro experiments fig5 --scale small --seed 0
    repro experiments all --scale tiny
"""

from typing import Callable, Dict

from repro.experiments import (
    ablations,
    congestion_vs_analytic,
    duration,
    fig3_mean_variance,
    fig5_tree_accuracy,
    fig6_error_cdfs,
    fig7_rank_ratio,
    fig8_sweeps,
    fig9_cross_validation,
    table2_mesh_accuracy,
    table3_as_location,
    timing,
)
from repro.experiments.base import (
    SCALES,
    ExperimentResult,
    ScaleParams,
    prepare_topology,
    scale_params,
)

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3": fig3_mean_variance.run,
    "fig5": fig5_tree_accuracy.run,
    "fig6": fig6_error_cdfs.run,
    "fig7": fig7_rank_ratio.run,
    "fig8": fig8_sweeps.run,
    "fig9": fig9_cross_validation.run,
    "table2": table2_mesh_accuracy.run,
    "table3": table3_as_location.run,
    "timing": timing.run,
    "duration": duration.run,
    "ablations": ablations.run,
    "congestion": congestion_vs_analytic.run,
}

__all__ = [
    "EXPERIMENTS",
    "SCALES",
    "ExperimentResult",
    "ScaleParams",
    "prepare_topology",
    "scale_params",
]
