"""Tests for covariance estimation and phase-1 variance learning."""

import numpy as np
import pytest

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
from repro.probing import MeasurementCampaign, Snapshot


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
        _, _, routing = figure2
        campaign = synthetic_campaign(
            routing, np.full(routing.num_links, 0.1), m=300, seed=4
        )
        estimates = {
            m: estimate_link_variances(campaign, method=m).variances
            for m in ("lsmr", "normal", "qr")
        }
        assert np.allclose(estimates["lsmr"], estimates["normal"], atol=1e-8)
        assert np.allclose(estimates["qr"], estimates["normal"], atol=1e-8)

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
