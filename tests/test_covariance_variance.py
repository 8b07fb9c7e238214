"""Tests for covariance estimation and phase-1 variance learning."""

import functools

import numpy as np
import pytest

from tests.oracles import pairs_matrix, phase1_reference
from repro.core.augmented import intersecting_pairs
from repro.core.covariance import (
    negative_pair_mask,
    sample_covariance_matrix,
    sample_covariance_pairs,
)
from repro.core.variance import (
    VARIANCE_METHODS,
    estimate_link_variances,
    estimate_link_variances_from_moments,
    variance_recovery_error,
)
from repro.delay import DelayCampaign, DelayInferenceAlgorithm, DelaySnapshot
from repro.experiments.base import scale_params
from repro.probing import MeasurementCampaign, ProberConfig, ProbingSimulator, Snapshot
from repro.topology.graph import Link, Path
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology
from repro.topology.routing import RoutingMatrix


class TestSampleCovariance:
    def test_matches_numpy_cov(self):
        Y = np.random.default_rng(0).normal(size=(40, 7))
        ours = sample_covariance_matrix(Y)
        theirs = np.cov(Y, rowvar=False)
        assert np.allclose(ours, theirs)

    def test_pairs_match_full_matrix(self):
        Y = np.random.default_rng(1).normal(size=(25, 9))
        full = sample_covariance_matrix(Y)
        i = np.array([0, 3, 8, 2])
        j = np.array([0, 5, 8, 7])
        assert np.allclose(
            sample_covariance_pairs(Y, i, j), full[i, j]
        )

    def test_blocked_extraction(self):
        Y = np.random.default_rng(2).normal(size=(10, 50))
        i, j = np.triu_indices(50)
        small_blocks = sample_covariance_pairs(Y, i, j, block_size=17)
        one_block = sample_covariance_pairs(Y, i, j)
        assert np.allclose(small_blocks, one_block)

    def test_requires_two_snapshots(self):
        with pytest.raises(ValueError):
            sample_covariance_matrix(np.ones((1, 4)))

    def test_negative_mask(self):
        assert negative_pair_mask(np.array([-1.0, 0.0, 2.0])).tolist() == [
            True,
            False,
            False,
        ]


def synthetic_campaign(routing, link_std, m, seed):
    """Generate snapshots whose log rates follow Y = R X exactly.

    X ~ per-link independent with the given std devs; the resulting
    campaign has known ground-truth variances link_std**2.
    """
    rng = np.random.default_rng(seed)
    R = routing.to_dense()
    campaign = MeasurementCampaign(routing=routing)
    for _ in range(m):
        x = -np.abs(rng.normal(0.0, link_std))  # log rates <= 0
        y = R @ x
        campaign.append(
            Snapshot(path_transmission=np.exp(y), num_probes=10**9)
        )
    return campaign


class TestVarianceEstimation:
    @pytest.mark.parametrize("method", VARIANCE_METHODS)
    def test_recovers_known_variances(self, figure2, method):
        """With many exact snapshots, every solver recovers v."""
        _, _, routing = figure2
        link_std = np.linspace(0.02, 0.2, routing.num_links)
        campaign = synthetic_campaign(routing, link_std, m=4000, seed=3)
        estimate = estimate_link_variances(campaign, method=method)
        true_var = link_std**2 * (1 - 2 / np.pi)  # var of -|N(0, s)|
        assert variance_recovery_error(estimate, true_var) < 0.15

    def test_methods_agree_on_same_data(self, figure2):
        """``normal`` is the plain least-squares answer of the filtered system."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=300, seed=4
        )
        pairs = intersecting_pairs(routing.matrix)
        sigma = sample_covariance_pairs(
            campaign.log_matrix(None), pairs.pair_i, pairs.pair_j
        )
        keep = ~negative_pair_mask(sigma)
        expected, *_ = np.linalg.lstsq(
            pairs_matrix(pairs)[keep].toarray(), sigma[keep], rcond=None
        )
        normal = estimate_link_variances(campaign, method="normal").variances
        assert np.allclose(normal, expected, atol=1e-8)

    def test_nnls_never_negative(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.05), m=20, seed=5
        )
        estimate = estimate_link_variances(campaign, method="nnls")
        assert (estimate.variances >= 0).all()

    def test_diagnostics_populated(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.05), m=30, seed=6
        )
        estimate = estimate_link_variances(campaign)
        assert estimate.covariance_summary.num_snapshots == 30
        assert estimate.covariance_summary.num_pairs > 0
        assert estimate.residual_norm >= 0

    def test_order_by_variance(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.linspace(0.01, 0.3, routing.num_links), m=2000, seed=7
        )
        estimate = estimate_link_variances(campaign)
        order = estimate.order_by_variance()
        assert (np.diff(estimate.variances[order]) >= 0).all()

    def test_unknown_method_rejected(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=5, seed=8
        )
        with pytest.raises(ValueError, match="unknown method"):
            estimate_link_variances(campaign, method="bogus")

    def test_needs_two_snapshots(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=1, seed=9
        )
        with pytest.raises(ValueError, match="two snapshots"):
            estimate_link_variances(campaign)

    @pytest.mark.parametrize(
        "argument, bad_entry, keep",
        [
            ("sigma", np.nan, None),
            ("sigma", np.inf, None),
            ("path_variances", np.nan, None),
            ("path_variances", 0.02, -1),
        ],
        ids=["nan-sigma", "inf-sigma", "nan-path-variances", "short-path-variances"],
    )
    def test_moments_reject_bad_input(self, figure2, argument, bad_entry, keep):
        """A bad moment raises an error naming it, not a NaN estimate."""
        _, _, routing = figure2
        pairs = intersecting_pairs(routing.matrix)
        moments = {
            "sigma": np.full(pairs.num_pairs, 0.01),
            "path_variances": np.full(routing.num_paths, 0.02),
        }
        moments[argument][-1] = bad_entry
        moments[argument] = moments[argument][:keep]
        with pytest.raises(ValueError, match=argument):
            estimate_link_variances_from_moments(
                pairs, num_snapshots=10, **moments
            )

    @pytest.mark.parametrize(
        "count", [15.5, np.float64(3.7), "15", True], ids=repr
    )
    def test_moments_reject_non_integral_snapshot_count(self, figure2, count):
        _, _, routing = figure2
        pairs = intersecting_pairs(routing.matrix)
        with pytest.raises(ValueError, match="num_snapshots"):
            estimate_link_variances_from_moments(
                pairs,
                np.full(pairs.num_pairs, 0.01),
                np.full(routing.num_paths, 0.02),
                num_snapshots=count,
            )

    def test_moments_accept_numpy_integer_snapshot_count(self, figure2):
        _, _, routing = figure2
        pairs = intersecting_pairs(routing.matrix)
        moments = (np.full(pairs.num_pairs, 0.01), np.full(routing.num_paths, 0.02))
        from_numpy = estimate_link_variances_from_moments(
            pairs, *moments, num_snapshots=np.int64(15)
        )
        from_int = estimate_link_variances_from_moments(
            pairs, *moments, num_snapshots=15
        )
        assert np.array_equal(from_numpy.variances, from_int.variances)

    def test_pairs_reuse(self, figure2):
        _, _, routing = figure2
        pairs = intersecting_pairs(routing.matrix)
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=50, seed=10
        )
        with_reuse = estimate_link_variances(campaign, pairs=pairs)
        without = estimate_link_variances(campaign)
        assert np.allclose(with_reuse.variances, without.variances)

    def test_recovery_error_requires_alignment(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=10, seed=11
        )
        estimate = estimate_link_variances(campaign)
        with pytest.raises(ValueError):
            variance_recovery_error(estimate, np.ones(3))


@functools.lru_cache(maxsize=None)
def _family_moments(kind):
    """Sampled phase-1 moments of one tiny-scale topology of *kind*."""
    prepared = prepare_topology(kind, scale_params("tiny"), 3)
    simulator = ProbingSimulator(
        prepared.paths,
        prepared.topology.network.num_links,
        config=ProberConfig(probes_per_snapshot=200, congestion_probability=0.15),
    )
    campaign = simulator.run_campaign(12, prepared.routing, seed=5)
    pairs = intersecting_pairs(prepared.routing.matrix)
    Y = campaign.log_matrix()
    sigma = sample_covariance_pairs(Y, pairs.pair_i, pairs.pair_j)
    return pairs, sigma, Y.var(axis=0, ddof=1), len(campaign)


def _synthetic_routing(rng, num_paths=4096, num_links=400, per_path=2):
    """The monitor-churn benchmark's routing: random two-link paths."""
    paths = []
    node = 0
    for p in range(num_paths):
        columns = np.sort(rng.choice(num_links, size=per_path, replace=False))
        links = tuple(
            Link(index=int(j), tail=node + i, head=node + i + 1)
            for i, j in enumerate(columns)
        )
        paths.append(
            Path(index=p, source=links[0].tail, dest=links[-1].head, links=links)
        )
        node += per_path + 1
    return RoutingMatrix.from_paths(paths)


def _assert_matches_oracle(pairs, sigma, path_variances, m, method, drop):
    v, residual, weighted = phase1_reference(
        pairs, sigma, path_variances, m, method, drop
    )
    estimate = estimate_link_variances_from_moments(
        pairs, sigma, path_variances, m, method=method, drop_negative=drop
    )
    assert np.array_equal(estimate.variances, v)
    assert estimate.residual_norm == residual
    assert estimate.weighted_residual_norm == weighted


class TestFlatArraysMatchSparseOracle:
    """Phase 1 on flat index arrays equals the ``scipy.sparse`` body bit
    for bit: same filtered rows, same sums in the same order."""

    @pytest.mark.parametrize("drop", [True, False], ids=["drop-neg", "keep-neg"])
    @pytest.mark.parametrize("method", VARIANCE_METHODS)
    @pytest.mark.parametrize("kind", ("tree",) + MESH_TOPOLOGY_KINDS)
    def test_generator_families(self, kind, method, drop):
        pairs, sigma, path_variances, m = _family_moments(kind)
        assert (sigma < 0).any()  # the filter has rows to drop
        _assert_matches_oracle(pairs, sigma, path_variances, m, method, drop)

    @pytest.mark.parametrize("drop", [True, False], ids=["drop-neg", "keep-neg"])
    @pytest.mark.parametrize("method", ["wls", "normal"])
    def test_monitor_scale_routing(self, method, drop):
        """The 4096-path system the monitor-churn benchmark solves
        (``nnls`` would densify its ~88k rows, so it is left out)."""
        rng = np.random.default_rng(0)
        routing = _synthetic_routing(rng)
        pairs = intersecting_pairs(routing.matrix)
        x = -np.abs(rng.normal(size=(32, routing.num_links)))
        x *= np.where(rng.random(routing.num_links) < 0.1, 0.05, 0.001)
        Y = x @ routing.to_dense().T + rng.normal(0.0, 1e-4, (32, routing.num_paths))
        sigma = sample_covariance_pairs(Y, pairs.pair_i, pairs.pair_j)
        assert (sigma < 0).any()
        _assert_matches_oracle(
            pairs, sigma, Y.var(axis=0, ddof=1), 32, method, drop
        )


class TestResidualNorm:
    def test_wls_residual_is_unweighted(self, figure2):
        """Regression: wls used to report the *weighted* residual."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=100, seed=6
        )
        pairs = intersecting_pairs(routing.matrix)
        estimate = estimate_link_variances(campaign, method="wls", pairs=pairs)
        # Recompute the unweighted residual over the surviving equations.
        sigma = sample_covariance_pairs(
            campaign.log_matrix(None), pairs.pair_i, pairs.pair_j
        )
        keep = ~negative_pair_mask(sigma)
        expected = np.linalg.norm(
            pairs_matrix(pairs)[keep] @ estimate.variances - sigma[keep]
        )
        assert estimate.residual_norm == pytest.approx(expected)
        assert estimate.weighted_residual_norm is not None
        assert estimate.weighted_residual_norm != pytest.approx(
            estimate.residual_norm
        )

    def test_residuals_comparable_across_solvers(self, figure2):
        """On one system, every solver's residual_norm is now commensurate."""
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=150, seed=7
        )
        residuals = {
            m: estimate_link_variances(campaign, method=m).residual_norm
            for m in VARIANCE_METHODS
        }
        # "normal" minimises this residual; wls trades a little of it for
        # statistical efficiency and nnls for feasibility, so both sit
        # within a small factor rather than orders of magnitude away.
        assert residuals["wls"] <= 3.0 * residuals["normal"]
        assert residuals["normal"] <= residuals["nnls"] * (1 + 1e-9)
        assert residuals["nnls"] <= 3.0 * residuals["normal"]

    def test_unweighted_methods_have_no_weighted_residual(self, figure2):
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=50, seed=8
        )
        estimate = estimate_link_variances(campaign, method="normal")
        assert estimate.weighted_residual_norm is None


class _StubRouting:
    """The minimal routing surface DelayInferenceAlgorithm touches."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.uint8)

    @property
    def num_links(self):
        return int(self.matrix.shape[1])

    @property
    def num_paths(self):
        return int(self.matrix.shape[0])


class TestEmptySystemGuard:
    def test_core_raises_on_underdetermined_filtered_system(self):
        pairs = intersecting_pairs(np.array([[1, 1, 0], [1, 0, 1]]))
        assert pairs.num_pairs == 3
        sigma = np.array([-1.0, -2.0, -0.5])  # every equation dropped
        with pytest.raises(ValueError, match="equations remain"):
            estimate_link_variances_from_moments(
                pairs, sigma, np.ones(2), 5, method="normal"
            )

    def test_delay_layer_raises_same_error(self):
        """Regression: this used to crash in a degenerate dense solve.

        Two paths share one link and carry one private link each; their
        cross covariance is negative by construction, so after the
        paper's filter only the two self-pair equations survive for
        three unknowns.
        """
        routing = _StubRouting([[1, 1, 0], [1, 0, 1]])
        delays = np.array(
            [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.5, 1.5]]
        )
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        algorithm = DelayInferenceAlgorithm(routing)
        with pytest.raises(ValueError, match="equations remain"):
            algorithm.learn_variances(campaign)

    def test_delay_layer_weight_floor_matches_core(self, small_tree):
        """The drifted copy-paste floor is gone: quiet systems still solve."""
        _, _, routing = small_tree
        rng = np.random.default_rng(9)
        m, n_paths = 12, routing.matrix.shape[0]
        delays = np.abs(rng.normal(5.0, 1.0, size=(m, n_paths)))
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        estimate = DelayInferenceAlgorithm(routing).learn_variances(campaign)
        assert estimate.num_links == routing.num_links
        assert np.isfinite(estimate.variances).all()

    def test_delay_variance_method_validated(self, small_tree):
        _, _, routing = small_tree
        with pytest.raises(ValueError, match="unknown variance method"):
            DelayInferenceAlgorithm(routing, variance_method="bogus")

    def test_delay_unweighted_solvers_end_to_end(self, small_tree):
        """The delay layer reaches every phase-1 solver through the seam."""
        _, _, routing = small_tree
        rng = np.random.default_rng(10)
        m, n_paths = 25, routing.matrix.shape[0]
        base = rng.uniform(1.0, 3.0, size=n_paths)
        delays = base + np.abs(rng.normal(0.0, 2.0, size=(m, n_paths)))
        campaign = DelayCampaign(
            routing=routing,
            snapshots=[
                DelaySnapshot(path_delays=row, num_probes=100) for row in delays
            ],
        )
        wls = DelayInferenceAlgorithm(routing).learn_variances(campaign)
        for method in ("normal", "nnls"):
            algorithm = DelayInferenceAlgorithm(routing, variance_method=method)
            estimate = algorithm.learn_variances(campaign)
            assert estimate.num_links == routing.num_links
            # Unweighted solvers land near the weighted default on a
            # well-conditioned system.
            assert np.corrcoef(estimate.variances, wls.variances)[0, 1] > 0.9
