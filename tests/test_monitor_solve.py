"""The incremental engine's solve: corrected semi-normal equations (CSNE).

An engine with ``incremental_limit > 0`` solves ``R* x = y`` from ``R``
and the kept block's nonzeros; every other engine keeps the ``Q^T y``
product.  The two must agree to 1e-12 relative on every generator
family, tiny and small, seeds 0-2, for one right-hand side and for a
stack; an ill-conditioned ``R`` must send the incremental engine back
to ``Q``; and the limit-0 path must stay the ``Q^T y`` product to the
byte.
"""

import functools

import numpy as np
import pytest

from repro.core.covariance import CovarianceSummary
from repro.core.engine import (
    CSNE_MIN_RCOND,
    FactorizationCache,
    InferenceEngine,
)
from repro.core.linalg import QRFactorization, solve_upper_triangular
from repro.core.variance import VarianceEstimate
from repro.experiments.base import scale_params
from repro.monitor import OnlineLossMonitor
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology

KINDS = ("tree",) + MESH_TOPOLOGY_KINDS


@functools.lru_cache(maxsize=None)
def routing_for(kind, scale, seed):
    return prepare_topology(kind, scale_params(scale), seed).routing


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def kept_sets(routing, rng):
    """The greedy strategy's kept set for random variances (the
    highest-variance independent columns) and a random half of it."""
    engine = InferenceEngine(routing, reduction_strategy="greedy")
    estimate = VarianceEstimate(
        variances=rng.random(routing.num_links),
        method="wls",
        covariance_summary=CovarianceSummary(2, 1, 0),
        residual_norm=0.0,
    )
    greedy = engine.reduce(estimate, 600).kept_columns
    half = np.sort(rng.choice(greedy, size=max(1, len(greedy) // 2), replace=False))
    return greedy, half


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("kind", KINDS)
def test_csne_matches_q_path(kind, scale, seed):
    routing = routing_for(kind, scale, seed)
    rng = np.random.default_rng(seed)
    incremental = FactorizationCache(routing.matrix, incremental_limit=2)
    batch = FactorizationCache(routing.matrix, incremental_limit=0)
    y = -rng.random(routing.num_paths) * 0.1
    stack = -rng.random((routing.num_paths, 5)) * 0.1
    for kept in kept_sets(routing, rng):
        assert incremental.factorization(kept).rcond >= CSNE_MIN_RCOND
        for rhs in (y, stack, np.asfortranarray(stack)):
            got = incremental.solve(kept, rhs)
            want = batch.solve(kept, rhs)
            assert got.shape == want.shape
            assert relative_error(got, want) <= 1e-12


def test_empty_kept_set():
    routing = routing_for("tree", "tiny", 0)
    empty = np.array([], dtype=np.int64)
    for limit in (0, 2):
        cache = FactorizationCache(routing.matrix, incremental_limit=limit)
        assert cache.solve(empty, np.ones(routing.num_paths)).shape == (0,)
        assert cache.solve(empty, np.ones((routing.num_paths, 3))).shape == (0, 3)


def conditioned_matrix(rng, rows, cols, cond):
    """A dense ``rows x cols`` matrix with singular values from 1 to 1/cond."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    return (u * np.geomspace(1.0, 1.0 / cond, cols)) @ v.T


def test_ill_conditioned_takes_q_path():
    rng = np.random.default_rng(4)
    matrix = conditioned_matrix(rng, 60, 8, 1e9)
    kept = np.arange(8)
    cache = FactorizationCache(matrix, incremental_limit=2)
    factorization = cache.factorization(kept)
    assert factorization.full_rank
    assert factorization.rcond < CSNE_MIN_RCOND
    y = rng.normal(size=60)
    want = solve_upper_triangular(factorization.r, factorization.q.T @ y)
    assert cache.solve(kept, y).tobytes() == want.tobytes()


@pytest.mark.parametrize("cond, accurate", [(1e5, True), (1e9, False)])
def test_rcond_floor_separates_accurate_from_inaccurate_csne(cond, accurate):
    """Why the floor sits near 1e-6.  With a residual, the semi-normal
    error grows like ``u cond^2``: just inside the floor the CSNE body
    still recovers the exact answer to 1e-9 relative; well outside it is
    off by more than 1e-3 while the ``Q`` path stays within 1e-7."""
    rng = np.random.default_rng(5)
    matrix = conditioned_matrix(rng, 80, 10, cond)
    x_true = rng.normal(size=10)
    # A residual orthogonal to the columns keeps x_true the exact answer.
    noise = rng.normal(size=80)
    q, _ = np.linalg.qr(matrix)
    y = matrix @ x_true + 1e-3 * (noise - q @ (q.T @ noise))
    kept = np.arange(10)
    cache = FactorizationCache(matrix, incremental_limit=2)
    factorization = cache.factorization(kept)
    assert (factorization.rcond >= CSNE_MIN_RCOND) is accurate
    csne = cache._solve_seminormal(kept, factorization, y)
    qr = solve_upper_triangular(factorization.r, factorization.q.T @ y)
    assert relative_error(qr, x_true) <= 1e-7
    if accurate:
        assert relative_error(csne, x_true) <= 1e-9
    else:
        assert relative_error(csne, x_true) > 1e-3
        assert cache.solve(kept, y).tobytes() == qr.tobytes()


def test_limit_zero_is_the_q_product_to_the_byte():
    routing = routing_for("waxman", "small", 0)
    rng = np.random.default_rng(0)
    cache = FactorizationCache(routing.matrix)
    for kept in kept_sets(routing, rng):
        factorization = cache.factorization(kept)
        for rhs in (
            rng.normal(size=routing.num_paths),
            rng.normal(size=(routing.num_paths, 4)),
        ):
            want = solve_upper_triangular(factorization.r, factorization.q.T @ rhs)
            assert cache.solve(kept, rhs).tobytes() == want.tobytes()


def test_rcond_is_cached():
    factorization = QRFactorization.factorize(
        np.random.default_rng(1).normal(size=(12, 5))
    )
    assert "rcond" not in factorization.__dict__
    first = factorization.rcond
    assert factorization.__dict__["rcond"] == first
    assert 0 < first <= 1


class TestArgumentChecks:
    @pytest.mark.parametrize("limit", [1.5, 0.5, True, 2.0])
    def test_incremental_limit_must_be_a_count(self, limit):
        routing = routing_for("tree", "tiny", 0)
        with pytest.raises(ValueError, match="incremental_limit"):
            FactorizationCache(routing.matrix, incremental_limit=limit)
        with pytest.raises(ValueError, match="incremental_limit"):
            InferenceEngine(routing, incremental_limit=limit)
        with pytest.raises(ValueError, match="incremental_limit"):
            OnlineLossMonitor(routing, incremental_limit=limit)

    def test_numpy_integer_limit_passes(self):
        routing = routing_for("tree", "tiny", 0)
        engine = InferenceEngine(routing, incremental_limit=np.int64(2))
        assert engine.factorization_cache.incremental_limit == 2

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    def test_cutoff_scale_must_be_finite_and_positive(self, scale):
        routing = routing_for("tree", "tiny", 0)
        with pytest.raises(ValueError, match="cutoff_scale"):
            InferenceEngine(routing, cutoff_scale=scale)
