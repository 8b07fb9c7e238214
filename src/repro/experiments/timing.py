"""Section 6.4: running times of the algorithm's pieces.

The paper reports (Matlab, 2 GHz Pentium 4): solving the first-order
system (3) takes milliseconds; solving the reduced system (9) is about
10x longer; computing the augmented matrix A can take up to an hour but
is done once; after that, inference runs in under a second even for
thousand-node networks.

We time the same stages on the tree topology: building the
intersecting-pairs structure (A), phase 1 (variance learning), the
full-rank reduction, and the phase-2 solve.  Expected shape: building A
dominates; it amortises across snapshots; per-snapshot inference is
sub-second.

The measurement is one trial through the sharded runner, marked
``cacheable=False``: wall-clock numbers are live state, so the shard
cache must never replay them — every invocation re-times the stages on
the current machine.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.augmented import intersecting_pairs
from repro.core.engine import InferenceEngine, infer_many
from repro.core.linalg import QRFactorization
from repro.core.reduction import reduce_to_full_rank
from repro.experiments.base import (
    ExperimentResult,
    execute_trials,
    prepare_topology,
    scale_params,
)
from repro.probing import ProberConfig, ProbingSimulator
from repro.runner import ParallelRunner, TrialSpec
from repro.utils.rng import derive_seed
from repro.utils.tables import TextTable


def trial(spec: TrialSpec) -> dict:
    """Time each pipeline stage once on the tree topology."""
    params = scale_params(spec.params["scale"])
    seed = spec.seed
    prepared = prepare_topology("tree", params, derive_seed(seed, 0))
    simulator = ProbingSimulator(
        prepared.paths,
        prepared.topology.network.num_links,
        config=ProberConfig(probes_per_snapshot=params.probes),
    )
    campaign = simulator.run_campaign(
        params.snapshots + 1, prepared.routing, seed=derive_seed(seed, 1)
    )
    training, target = campaign.split_training_target()

    t0 = time.perf_counter()
    pairs = intersecting_pairs(prepared.routing.matrix)
    t_build_a = time.perf_counter() - t0

    lia = InferenceEngine(prepared.routing)
    lia.pairs = pairs  # reuse, as a monitoring service would

    t0 = time.perf_counter()
    estimate = lia.learn_variances(training)
    t_phase1 = time.perf_counter() - t0

    # The reduction the engine itself runs: its strategy and cutoff.
    t0 = time.perf_counter()
    reduction = reduce_to_full_rank(
        prepared.routing.matrix,
        estimate.variances,
        strategy=lia.reduction_strategy,
        variance_cutoff=lia.variance_cutoff(target.num_probes),
    )
    t_reduce = time.perf_counter() - t0

    # Eq. (9) from scratch: factorize the kept block R*, then solve.
    y = target.path_log_rates()
    t0 = time.perf_counter()
    R_star = prepared.routing.matrix[:, reduction.kept_columns]
    QRFactorization.factorize(R_star).solve(y)
    t_phase2_solve = time.perf_counter() - t0

    t0 = time.perf_counter()
    lia.infer(target, estimate)
    t_infer = time.perf_counter() - t0

    # Second inference against the same estimate: the engine's reduction
    # memo and R* factorization cache are warm, so this is the marginal
    # cost a monitoring service pays per snapshot.
    t0 = time.perf_counter()
    lia.infer(target, estimate)
    t_infer_warm = time.perf_counter() - t0

    # Forest stage: the campaign-scale shape is many *small* independent
    # trees inferred per round.  Time a Python loop of engine.infer
    # against infer_many's packed pass (bit-identical output).  One
    # untimed pass first so both measurements run against warm
    # reduction/factorization caches.
    num_trees = {"tiny": 16, "small": 64, "paper": 256}.get(
        spec.params["scale"], 64
    )
    forest_runs = []
    for i in range(num_trees):
        tree = prepare_topology(
            "tree", params.sized(tree_nodes=31), derive_seed(seed, 100 + i)
        )
        tree_simulator = ProbingSimulator(
            tree.paths,
            tree.topology.network.num_links,
            config=ProberConfig(probes_per_snapshot=params.probes),
        )
        tree_campaign = tree_simulator.run_campaign(
            params.snapshots + 1, tree.routing, seed=derive_seed(seed, 1000 + i)
        )
        tree_training, tree_target = tree_campaign.split_training_target()
        engine = InferenceEngine(tree.routing)
        forest_runs.append(
            (engine, tree_target, engine.learn_variances(tree_training))
        )
    for engine, snapshot, estimate in forest_runs:  # warm the caches
        engine.infer(snapshot, estimate)

    t0 = time.perf_counter()
    for engine, snapshot, estimate in forest_runs:
        engine.infer(snapshot, estimate)
    t_forest_loop = time.perf_counter() - t0

    t0 = time.perf_counter()
    infer_many(forest_runs)
    t_forest_batched = time.perf_counter() - t0

    cache_info = {
        name: info.as_dict() for name, info in lia.cache_info().items()
    }

    return {
        "cache_info": cache_info,
        "build_a": t_build_a,
        "phase1": t_phase1,
        "reduce": t_reduce,
        "phase2_solve": t_phase2_solve,
        "infer": t_infer,
        "infer_warm": t_infer_warm,
        "forest_loop": t_forest_loop,
        "forest_batched": t_forest_batched,
        "forest_trees": num_trees,
        "num_paths": prepared.routing.num_paths,
        "num_links": prepared.routing.num_links,
    }


def run(
    scale: str = "small",
    seed: Optional[int] = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    params = scale_params(scale)
    specs = [
        TrialSpec(
            "timing", 0, seed=seed, params={"scale": scale}, cacheable=False
        )
    ]
    (payload,) = execute_trials(runner, "timing", trial, specs)

    table = TextTable(["stage", "seconds"], float_fmt="{:.4f}")
    table.add_row(["build A (once per network)", payload["build_a"]])
    table.add_row(["phase 1: learn variances", payload["phase1"]])
    table.add_row(["phase 2: full-rank reduction", payload["reduce"]])
    table.add_row(["phase 2: reduced solve (eq. 9)", payload["phase2_solve"]])
    table.add_row(["per-snapshot inference total", payload["infer"]])
    table.add_row(
        ["per-snapshot inference (warm engine)", payload["infer_warm"]]
    )
    trees = payload["forest_trees"]
    table.add_row([f"forest: {trees}-tree loop (warm)", payload["forest_loop"]])
    table.add_row(
        [f"forest: {trees}-tree batched solve", payload["forest_batched"]]
    )

    cache_table = TextTable(["cache", "hits", "misses", "updates", "downdates"])
    for cache_name, info in payload["cache_info"].items():
        cache_table.add_row(
            [
                cache_name,
                info["hits"],
                info["misses"],
                info["updates"],
                info["downdates"],
            ]
        )

    result = ExperimentResult(
        name="timing",
        description=(
            f"Running times on the tree topology "
            f"({payload['num_paths']} paths, "
            f"{payload['num_links']} links, m={params.snapshots})"
        ),
        table=table,
        extra_tables=[("engine cache statistics (warm state):", cache_table)],
        data={
            "cache_info": payload["cache_info"],
            "build_a": payload["build_a"],
            "phase1": payload["phase1"],
            "reduce": payload["reduce"],
            "phase2_solve": payload["phase2_solve"],
            "infer": payload["infer"],
            "infer_warm": payload["infer_warm"],
            "forest_loop": payload["forest_loop"],
            "forest_batched": payload["forest_batched"],
            "forest_trees": payload["forest_trees"],
        },
    )
    result.notes.append(
        "A is computed once per network and reused across snapshots, as in "
        "Section 5.1"
    )
    return result
