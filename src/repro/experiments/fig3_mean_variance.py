"""Figure 3: mean versus variance of end-to-end path loss rates.

The paper measured 17 200 PlanetLab paths for a day (250 loss-rate
samples per path, 1000 probes each) and found variance to be a
monotonically increasing function of the mean — the empirical basis of
Assumption S.3.  We reproduce the measurement over the PlanetLab-like
topology with churning (propensity-mode) congestion, bin paths by mean
loss rate, and report the mean variance per bin plus the rank
correlation.  The expected shape: variance rises with the mean, strongly
positive Spearman correlation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api import Scenario
from repro.experiments.base import (
    ExperimentResult,
    execute_trials,
    scale_params,
)
from repro.lossmodel import INTERNET
from repro.probing import ProberConfig
from repro.runner import ParallelRunner, TrialSpec
from repro.utils.tables import TextTable

NUM_BINS = 8


def trial(spec: TrialSpec) -> dict:
    """The (single) measurement campaign: per-path loss means/variances.

    A measurement-only study: only the scenario's topology and probing
    stages run (no estimators), with an explicit campaign length.
    """
    params = scale_params(spec.params["scale"])
    num_samples = spec.params["num_samples"]

    scenario = Scenario(
        topology="planetlab",
        params=params,
        prober=ProberConfig(
            probes_per_snapshot=params.probes,
            congestion_probability=0.08,
            truth_mode="propensity",
            propensity_range=(0.1, 0.7),
        ),
        model=INTERNET,
        topology_salt=1,
        campaign_salt=2,
    )
    prepared = scenario.prepare(spec.seed)
    campaign = scenario.simulate(prepared, spec.seed, length=num_samples)

    loss = np.vstack([s.path_loss_rates() for s in campaign.snapshots])
    return {
        "means": loss.mean(axis=0).tolist(),
        "variances": loss.var(axis=0, ddof=1).tolist(),
    }


def run(
    scale: str = "small",
    seed: Optional[int] = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    # 250 samples per path in the paper; scale the sample count, not S.
    num_samples = {"tiny": 40, "small": 100, "paper": 250}[scale]
    scale_params(scale)  # validate early, before any worker dispatch

    specs = [
        TrialSpec(
            "fig3", 0, seed=seed,
            params={"scale": scale, "num_samples": num_samples},
        )
    ]
    (payload,) = execute_trials(runner, "fig3", trial, specs)
    # Imported here: scipy.stats is the one heavy module the experiment
    # registry would otherwise load for every CLI verb.
    from scipy import stats

    means = np.asarray(payload["means"])
    variances = np.asarray(payload["variances"])
    rho = float(stats.spearmanr(means, variances).statistic)

    table = TextTable(
        ["mean-loss bin", "paths", "mean of means", "mean variance"],
        float_fmt="{:.6f}",
    )
    edges = np.quantile(means, np.linspace(0.0, 1.0, NUM_BINS + 1))
    edges[-1] += 1e-12
    bin_variances = []
    for b in range(NUM_BINS):
        mask = (means >= edges[b]) & (means < edges[b + 1])
        if not mask.any():
            continue
        bin_mean = float(means[mask].mean())
        bin_var = float(variances[mask].mean())
        bin_variances.append(bin_var)
        table.add_row(
            [f"[{edges[b]:.4f}, {edges[b + 1]:.4f})", int(mask.sum()), bin_mean, bin_var]
        )

    monotone_fraction = float(
        np.mean(np.diff(bin_variances) >= 0) if len(bin_variances) > 1 else 1.0
    )
    result = ExperimentResult(
        name="fig3",
        description=(
            "Mean vs variance of path loss rates "
            f"({means.size} paths x {num_samples} samples)"
        ),
        table=table,
        data={
            "means": means,
            "variances": variances,
            "spearman": rho,
            "monotone_fraction": monotone_fraction,
        },
    )
    result.notes.append(f"Spearman rank correlation (mean, variance) = {rho:.3f}")
    result.notes.append(
        f"fraction of adjacent bins with non-decreasing variance = "
        f"{monotone_fraction:.2f}"
    )
    return result
