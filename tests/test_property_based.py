"""Property-based tests (hypothesis) for the core invariants.

The headline property is Theorem 1 itself: for every topology our
generators produce (trees and meshes, any size/seed), the augmented
matrix has full column rank — the variances are identifiable — even
though the routing matrix itself is rank deficient.  Its consequence is
checked too: phase 1 fed exact covariances returns the exact variances.
The streaming monitor is held to the batch engine over long churning
streams.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.augmented import (
    augmented_rank,
    intersecting_pairs,
    num_pair_rows,
    pair_from_row_index,
    pair_row_index,
)
from repro.core.engine import InferenceEngine
from repro.core.linalg import QRFactorization, basis_sweep
from repro.core.reduction import reduce_to_full_rank
from repro.core.variance import estimate_link_variances_from_moments
from repro.experiments.base import scale_params
from repro.lossmodel import GilbertProcess
from repro.monitor import OnlineLossMonitor
from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.fluttering import find_fluttering_pairs
from repro.topology.generators import planetlab_like, random_tree, waxman
from repro.topology.graph import build_paths
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology
from repro.topology.routing import RoutingMatrix
from tests.oracles import pairs_matrix

FAST = settings(max_examples=15, deadline=None)
SLOW = settings(max_examples=8, deadline=None)


class TestTheorem1:
    @SLOW
    @given(
        num_nodes=st.integers(min_value=8, max_value=120),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_trees_identifiable(self, num_nodes, seed):
        """Lemma 3: single-beacon trees always have full-rank A."""
        topo = random_tree(num_nodes=num_nodes, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        routing = RoutingMatrix.from_paths(paths)
        assert augmented_rank(routing.matrix) == routing.num_links

    @SLOW
    @given(
        num_sites=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_planetlab_meshes_identifiable(self, num_sites, seed):
        """Theorem 1: multi-beacon meshes (T.2 holding) have full-rank A."""
        topo = planetlab_like(num_sites=num_sites, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        if find_fluttering_pairs(paths):
            return  # premises fail; theorem says nothing
        routing = RoutingMatrix.from_paths(paths)
        assert augmented_rank(routing.matrix) == routing.num_links

    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_waxman_meshes_identifiable(self, seed):
        topo = waxman(num_nodes=60, num_end_hosts=8, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        if find_fluttering_pairs(paths):
            return
        routing = RoutingMatrix.from_paths(paths)
        assert augmented_rank(routing.matrix) == routing.num_links


class TestExactMomentsRecoverVariances:
    """Theorem 1 in practice: exact covariances give exact variances.

    With ``sigma = A v`` and path variances ``R v`` taken straight from a
    true ``v >= 0`` (no sampling noise), phase 1 must hand ``v`` back on
    every generator family.  Most links are drawn exactly quiet, as in
    the paper's networks, so the system carries many exact zeros.
    """

    EXACT = settings(max_examples=4, deadline=None, derandomize=True)

    @staticmethod
    def solve(kind, topology_seed, v_seed, method):
        routing = prepare_topology(kind, scale_params("tiny"), topology_seed).routing
        pairs = intersecting_pairs(routing.matrix)
        rng = np.random.default_rng(v_seed)
        n = routing.num_links
        v = np.where(rng.random(n) < 0.1, rng.uniform(1e-4, 0.1, n), 0.0)
        v[rng.integers(n)] = 0.05  # at least one congested link
        estimate = estimate_link_variances_from_moments(
            pairs,
            pairs_matrix(pairs) @ v,
            routing.matrix.astype(np.float64) @ v,
            num_snapshots=100,
            method=method,
        )
        return estimate.variances, v

    @pytest.mark.parametrize("kind", ("tree",) + MESH_TOPOLOGY_KINDS)
    @EXACT
    @given(
        topology_seed=st.integers(min_value=0, max_value=10_000),
        v_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_unweighted_and_nonnegative(self, kind, topology_seed, v_seed):
        for method in ("normal", "nnls"):
            v_hat, v = self.solve(kind, topology_seed, v_seed, method)
            assert np.abs(v_hat - v).max() <= 1e-6 * v.max(), method

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the eq_var floor makes quiet equations' weights up to 3.2e4x "
            "larger, and they then dominate the 1e-10 * trace(A^T W A) / n "
            "ridge; unridged lstsq on the same weighted system recovers v"
        ),
    )
    def test_weighted(self):
        v_hat, v = self.solve("tree", 0, 0, "wls")
        assert np.abs(v_hat - v).max() <= 1e-6 * v.max()


class TestPairIndexBijection:
    @FAST
    @given(n=st.integers(min_value=1, max_value=60))
    def test_bijection(self, n):
        rows = [
            pair_row_index(i, j, n) for i in range(n) for j in range(i, n)
        ]
        assert sorted(rows) == list(range(num_pair_rows(n)))
        for i in range(n):
            for j in range(i, n):
                assert pair_from_row_index(pair_row_index(i, j, n), n) == (i, j)


class TestRoutingInvariants:
    @FAST
    @given(
        num_nodes=st.integers(min_value=8, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_alias_reduction_is_sound(self, num_nodes, seed):
        """Columns are distinct, non-zero, and partition the covered links."""
        topo = random_tree(num_nodes=num_nodes, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        routing = RoutingMatrix.from_paths(paths)
        R = routing.matrix
        assert R.sum(axis=0).min() >= 1
        assert len({R[:, c].tobytes() for c in range(R.shape[1])}) == R.shape[1]
        members = [
            m for v in routing.virtual_links for m in v.member_indices()
        ]
        assert len(members) == len(set(members))

    @FAST
    @given(
        num_nodes=st.integers(min_value=8, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_paths_from_one_beacon_form_tree(self, num_nodes, seed):
        topo = random_tree(num_nodes=num_nodes, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        assert find_fluttering_pairs(paths) == []


class TestLinalgProperties:
    @FAST
    @given(
        m=st.integers(min_value=3, max_value=20),
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_qr_least_squares_matches_numpy(self, m, n, seed):
        if m < n:
            m, n = n, m
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        ours = QRFactorization.factorize(A).solve(b)
        theirs, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(ours, theirs, atol=1e-6)

    @FAST
    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_greedy_columns_span(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n + 3, n))
        extra = A @ rng.normal(size=(n, 2))
        B = np.hstack([A, extra])
        kept = basis_sweep(B, list(range(B.shape[1]))).kept
        assert np.linalg.matrix_rank(B[:, kept]) == np.linalg.matrix_rank(B)
        assert len(kept) == np.linalg.matrix_rank(B)


class TestReductionProperties:
    @FAST
    @given(
        num_nodes=st.integers(min_value=10, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_kept_columns_always_independent(self, num_nodes, seed):
        topo = random_tree(num_nodes=num_nodes, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        routing = RoutingMatrix.from_paths(paths)
        rng = np.random.default_rng(seed)
        v = rng.random(routing.num_links)
        for strategy, kwargs in (
            ("paper", {}),
            ("greedy", {}),
            ("gap", {}),
            ("threshold", {"variance_cutoff": 0.5}),
        ):
            result = reduce_to_full_rank(
                routing.matrix, v, strategy=strategy, **kwargs
            )
            if result.num_kept:
                sub = routing.to_dense()[:, result.kept_columns]
                assert np.linalg.matrix_rank(sub) == result.num_kept


class TestGilbertProperties:
    @FAST
    @given(
        rate=st.floats(min_value=0.01, max_value=0.9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_stationary_rate(self, rate, seed):
        states = GilbertProcess().sample_states(
            np.array([rate]), 30_000, seed=seed
        )
        assert states.mean() == pytest.approx(rate, abs=0.05)

    @FAST
    @given(
        rate=st.floats(min_value=0.05, max_value=0.6),
        stay_bad=st.floats(min_value=0.05, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_long_run_fraction_converges_for_any_chain(self, rate, stay_bad, seed):
        """The stationary loss fraction hits the target for every chain."""
        process = GilbertProcess(stay_bad=stay_bad)
        states = process.sample_states(np.array([rate]), 50_000, seed=seed)
        assert states.mean() == pytest.approx(rate, abs=0.05)

    @FAST
    @given(
        rate=st.floats(min_value=0.1, max_value=0.5),
        stay_bad=st.floats(min_value=0.1, max_value=0.7),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mean_burst_length_matches_chain_expectation(
        self, rate, stay_bad, seed
    ):
        """Empirical bad-run length ~ 1/(1 - stay_bad), the chain mean."""
        process = GilbertProcess(stay_bad=stay_bad)
        states = process.sample_states(np.array([rate]), 120_000, seed=seed)[0]
        padded = np.concatenate(([False], states, [False])).astype(np.int8)
        edges = np.diff(padded)
        run_lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        assert run_lengths.size > 50  # enough bursts to average
        assert np.mean(run_lengths) == pytest.approx(
            process.burst_length_mean(), rel=0.15
        )


class TestMonitorMatchesBatch:
    """Over a stream that churns the kept set, every monitor refresh
    agrees with the batch engine on the same window: variances within
    1e-10 relative, and the kept set of a cold reduction.

    Both sides keep every covariance equation.  Dropping the negative
    ones can leave phase 1 rank-deficient (cond(A) about 1e16 on 40-node
    trees); the ridge-regularised solution then moves by about 1e-7
    under any 1e-16 change of its inputs, batch against batch included.
    """

    WINDOW = 12
    STEPS = 150
    MONITOR = settings(max_examples=5, deadline=None, derandomize=True)

    @classmethod
    def stream(cls, routing, seed):
        """Log link rates: quiet links jitter far below the variance
        cutoff, congested ones swing far above it, and one link joins
        or leaves the congested set every half window."""
        rng = np.random.default_rng(seed)
        n = routing.num_links
        R = routing.matrix.astype(np.float64)
        congested = rng.random(n) < 0.3
        for t in range(cls.STEPS):
            if t and t % (cls.WINDOW // 2) == 0:
                congested[rng.integers(n)] ^= True
            x = -0.01 * rng.random(n)
            x[congested] = -rng.uniform(0.02, 0.1, int(congested.sum()))
            yield Snapshot(path_transmission=np.exp(R @ x), num_probes=1000)

    def check(self, routing, seed):
        monitor = OnlineLossMonitor(
            routing, window=self.WINDOW, refresh_interval=3, localize_always=True
        )
        monitor.engine.drop_negative = False
        batch = InferenceEngine(routing, drop_negative=False)
        window = deque(maxlen=self.WINDOW)
        kept_sets = set()
        for snapshot in self.stream(routing, seed):
            before = monitor.variance_refreshes
            monitor.observe(snapshot)
            window.append(snapshot)
            if monitor.variance_refreshes == before:
                continue
            got = monitor._estimate.variances
            want = batch.learn_variances(
                MeasurementCampaign(routing=routing, snapshots=list(window))
            ).variances
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            kept = monitor.engine.reduce(monitor._estimate, 1000).kept_columns
            cold = reduce_to_full_rank(
                routing.matrix,
                got,
                strategy="threshold",
                variance_cutoff=monitor.engine.variance_cutoff(1000),
            )
            assert np.array_equal(kept, cold.kept_columns)
            kept_sets.add(kept.tobytes())
        assert monitor.variance_refreshes >= 30
        assert len(kept_sets) >= 3  # the stream did churn the kept set

    @MONITOR
    @given(
        num_nodes=st.integers(min_value=15, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_trees(self, num_nodes, seed):
        topo = random_tree(num_nodes=num_nodes, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        self.check(RoutingMatrix.from_paths(paths), seed)

    @MONITOR
    @given(
        num_sites=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_planetlab_meshes(self, num_sites, seed):
        topo = planetlab_like(num_sites=num_sites, seed=seed)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        assume(not find_fluttering_pairs(paths))
        self.check(RoutingMatrix.from_paths(paths), seed)
