"""Micro-benchmarks of the core kernels (Section 6.4 analogue).

These time the stages the paper discusses: building the augmented matrix
(once per network), phase-1 variance learning, phase-2 reduction and the
reduced solve.  pytest-benchmark's calibration applies (they are fast).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles import log_matrix_reference, phase1_reference
from repro.core.augmented import intersecting_pairs
from repro.core.covariance import sample_covariance_pairs
from repro.core.engine import InferenceEngine
from repro.core.linalg import basis_sweep
from repro.core.reduction import reduce_to_full_rank
from repro.core.variance import estimate_link_variances


def test_build_intersecting_pairs(benchmark, bench_tree):
    prepared, _, _ = bench_tree
    pairs = benchmark(intersecting_pairs, prepared.routing.matrix)
    assert pairs.num_links == prepared.routing.num_links


@pytest.mark.parametrize("method", ["wls", "normal"])
def test_variance_learning(benchmark, bench_tree, method):
    prepared, _, campaign = bench_tree
    training, _ = campaign.split_training_target()
    pairs = intersecting_pairs(prepared.routing.matrix)
    estimate = benchmark(
        estimate_link_variances, training, method=method, pairs=pairs
    )
    assert estimate.num_links == prepared.routing.num_links


@pytest.mark.parametrize("strategy", ["threshold", "gap", "paper", "greedy"])
def test_reduction_strategies(benchmark, bench_tree, strategy):
    prepared, _, campaign = bench_tree
    training, _ = campaign.split_training_target()
    estimate = estimate_link_variances(training)
    kwargs = {}
    if strategy == "threshold":
        kwargs["variance_cutoff"] = 16 * 0.002 / 400
    result = benchmark(
        reduce_to_full_rank,
        prepared.routing.matrix,
        estimate.variances,
        strategy,
        **kwargs,
    )
    sub = prepared.routing.to_dense()[:, result.kept_columns]
    if result.num_kept:
        assert np.linalg.matrix_rank(sub) == result.num_kept


def test_per_snapshot_inference(benchmark, bench_tree):
    """The paper's headline: after A is built, inference is sub-second."""
    prepared, _, campaign = bench_tree
    training, target = campaign.split_training_target()
    lia = InferenceEngine(prepared.routing)
    estimate = lia.learn_variances(training)  # warm: A cached
    result = benchmark(lia.infer, target, estimate)
    assert result.num_links == prepared.routing.num_links


# -- mesh-scale kernels (the blocked/reuse-aware hot path) ----------------------


@pytest.fixture(scope="module")
def mesh_estimate(bench_mesh):
    prepared, _, campaign = bench_mesh
    training, _ = campaign.split_training_target()
    return estimate_link_variances(training)


def test_mesh_reduction_paper(benchmark, bench_mesh, mesh_estimate):
    """Phase-2 paper reduction: one basis sweep vs the seed's SVD search."""
    prepared, _, _ = bench_mesh
    result = benchmark(
        reduce_to_full_rank,
        prepared.routing.matrix,
        mesh_estimate.variances,
        "paper",
    )
    sub = prepared.routing.to_dense()[:, result.kept_columns]
    assert np.linalg.matrix_rank(sub) == result.num_kept


def test_mesh_reduced_solve_warm(benchmark, bench_mesh, mesh_estimate):
    """Reduced solve with a warm engine: two triangular-cost operations.

    The seed re-ran ``np.linalg.lstsq`` per snapshot; the engine pays one
    factorization per kept-column set and this bench measures the
    marginal (cached) per-snapshot solve.
    """
    prepared, _, campaign = bench_mesh
    _, target = campaign.split_training_target()
    lia = InferenceEngine(prepared.routing)
    lia.infer(target, mesh_estimate)  # warm: reduction memo + factorization
    result = benchmark(lia.infer, target, mesh_estimate)
    assert result.num_links == prepared.routing.num_links


def test_mesh_infer_batch(benchmark, bench_mesh, mesh_estimate):
    """A 16-snapshot window as one multi-RHS solve."""
    prepared, _, campaign = bench_mesh
    tail = campaign.snapshots[-16:]
    lia = InferenceEngine(prepared.routing)
    lia.infer(tail[0], mesh_estimate)  # warm
    results = benchmark(lia.infer_batch, tail, mesh_estimate)
    assert len(results) == len(tail)


def test_mesh_infer_loop_warm(benchmark, bench_mesh, mesh_estimate):
    """The same 16 snapshots as per-snapshot calls (infer_batch's foil)."""
    prepared, _, campaign = bench_mesh
    tail = campaign.snapshots[-16:]
    lia = InferenceEngine(prepared.routing)
    lia.infer(tail[0], mesh_estimate)  # warm

    def loop():
        return [lia.infer(snapshot, mesh_estimate) for snapshot in tail]

    results = benchmark(loop)
    assert len(results) == len(tail)


def test_mesh_greedy_independent_columns(benchmark, bench_mesh, mesh_estimate):
    """Batched-MGS greedy column scan over the full mesh matrix."""
    prepared, _, _ = bench_mesh
    descending = np.argsort(mesh_estimate.variances)[::-1]
    sweep = benchmark(basis_sweep, prepared.routing.to_sparse(), descending)
    assert len(sweep.kept) > 0


# -- campaign-scale forest: per-tree phase 1, packed phase 2 --------------------


@pytest.fixture(scope="module")
def bench_forest():
    """512 independent 31-node trees: (engine, target, estimate, training).

    The campaign-scale shape: thousands of trees whose individual solves
    are far too small to saturate BLAS, so the Python dispatch around
    each one dominates a loop.  Fitting (phase 1) happens here once, so
    every engine holds its augmented matrix ``A``, and one loop pass
    warms every engine's reduction and factorization caches.  The
    benches below time phase 1 again on those warm engines, and the
    phase-2 inference dispatch.
    """
    from repro.experiments.base import prepare_topology, scale_params
    from repro.probing import MeasurementCampaign, ProberConfig, ProbingSimulator
    from repro.utils.rng import derive_seed

    params = scale_params("tiny").sized(tree_nodes=31)
    runs = []
    for i in range(512):
        prepared = prepare_topology("tree", params, derive_seed(7, 100 + i))
        simulator = ProbingSimulator(
            prepared.paths,
            prepared.topology.network.num_links,
            config=ProberConfig(
                probes_per_snapshot=200, congestion_probability=0.15
            ),
        )
        campaign = simulator.run_campaign(
            9, prepared.routing, seed=derive_seed(7, 1000 + i)
        )
        training = MeasurementCampaign(
            routing=campaign.routing, snapshots=campaign.snapshots[:-1]
        )
        engine = InferenceEngine(prepared.routing)
        estimate = engine.learn_variances(training)
        runs.append((engine, campaign.snapshots[-1], estimate, training))
    for engine, snapshot, estimate, _ in runs:
        engine.infer(snapshot, estimate)
    return runs


def test_forest_learn_variances(benchmark, bench_forest):
    """512 per-tree phase-1 solves, held to the ``scipy.sparse`` oracle."""

    def loop():
        return [
            engine.learn_variances(training)
            for engine, _, _, training in bench_forest
        ]

    estimates = benchmark(loop)
    for (engine, _, _, training), estimate in zip(bench_forest, estimates):
        pairs = engine.pairs
        Y = log_matrix_reference(training)
        v, residual, weighted = phase1_reference(
            pairs,
            sample_covariance_pairs(Y, pairs.pair_i, pairs.pair_j),
            Y.var(axis=0, ddof=1),
            len(training),
        )
        assert np.array_equal(estimate.variances, v)
        assert estimate.residual_norm == residual
        assert estimate.weighted_residual_norm == weighted


def test_forest_infer_loop_warm(benchmark, bench_forest):
    """512 per-tree ``engine.infer`` calls, the packed pass's foil."""

    def loop():
        return [engine.infer(snap, est) for engine, snap, est, _ in bench_forest]

    results = benchmark(loop)
    assert len(results) == 512


def test_forest_infer_batched(benchmark, bench_forest):
    """The same 512 trees through one packed ``infer_many`` call."""
    from repro.core.engine import infer_many

    runs = [run[:3] for run in bench_forest]
    results = benchmark(infer_many, runs)
    assert len(results) == 512
