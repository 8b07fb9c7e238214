"""Tests for snapshots, the probing simulator and campaign plumbing."""

import numpy as np
import pytest

from repro.lossmodel import BernoulliProcess
from repro.probing import (
    MeasurementCampaign,
    ProberConfig,
    ProbingSimulator,
    Snapshot,
    log_with_floor,
)


class TestLogFloor:
    def test_floor_default_half_probe(self):
        rates = np.array([0.0, 1.0])
        logs = log_with_floor(rates, num_probes=1000)
        assert logs[0] == pytest.approx(np.log(0.0005))
        assert logs[1] == 0.0

    def test_explicit_floor(self):
        logs = log_with_floor(np.array([0.0]), 100, floor=0.01)
        assert logs[0] == pytest.approx(np.log(0.01))

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            log_with_floor(np.array([0.5]), 100, floor=2.0)


class TestSnapshot:
    def test_validation(self):
        with pytest.raises(ValueError):
            Snapshot(path_transmission=np.array([1.5]), num_probes=10)
        with pytest.raises(ValueError):
            Snapshot(path_transmission=np.array([0.5]), num_probes=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="path_transmission"):
            Snapshot(path_transmission=[0.9, bad], num_probes=10)
        with pytest.raises(ValueError, match="realized_loss_fractions"):
            Snapshot(
                path_transmission=[0.9, 1.0],
                num_probes=10,
                realized_loss_fractions=[0.0, bad],
            )

    def test_loss_complement(self):
        snap = Snapshot(path_transmission=np.array([0.9, 1.0]), num_probes=10)
        assert np.allclose(snap.path_loss_rates(), [0.1, 0.0])

    def test_truth_required_for_virtual_queries(self, small_tree):
        _, _, routing = small_tree
        snap = Snapshot(
            path_transmission=np.ones(routing.num_paths), num_probes=10
        )
        with pytest.raises(ValueError, match="ground truth"):
            snap.virtual_loss_rates(routing)
        with pytest.raises(ValueError, match="realized"):
            snap.realized_virtual_loss_rates(routing)


class TestProberPacketMode:
    def test_s1_holds_exactly(self, small_tree):
        """All paths through a link see the same realized loss fraction.

        With shared per-link realizations, a path's measured rate can
        deviate from the product of realized link fractions only through
        cross-link timing noise, which vanishes for single-link paths.
        """
        topo, paths, routing = small_tree
        sim = ProbingSimulator(paths, topo.network.num_links)
        snap = sim.run_snapshot(seed=5)
        for path in paths:
            if path.length == 1:
                realized = 1 - snap.realized_loss_fractions[path.links[0].index]
                assert snap.path_transmission[path.index] == pytest.approx(
                    realized
                )

    def test_path_rate_close_to_link_product(self, small_tree):
        topo, paths, routing = small_tree
        sim = ProbingSimulator(paths, topo.network.num_links)
        snap = sim.run_snapshot(seed=6)
        survival = 1 - snap.realized_loss_fractions
        for path in paths[:30]:
            product = np.prod([survival[link.index] for link in path.links])
            assert snap.path_transmission[path.index] == pytest.approx(
                product, abs=0.05
            )

    def test_realized_fractions_near_assigned(self, small_tree):
        topo, paths, routing = small_tree
        config = ProberConfig(probes_per_snapshot=5000)
        sim = ProbingSimulator(paths, topo.network.num_links, config=config)
        snap = sim.run_snapshot(seed=7)
        congested = snap.truth.congested
        assert np.allclose(
            snap.realized_loss_fractions[congested],
            snap.truth.loss_rates[congested],
            atol=0.05,
        )


class TestProberFlowMode:
    def test_flow_without_noise_is_exact_product(self, small_tree):
        topo, paths, routing = small_tree
        config = ProberConfig(fidelity="flow", path_sampling_noise=False)
        sim = ProbingSimulator(paths, topo.network.num_links, config=config)
        snap = sim.run_snapshot(seed=8)
        survival = 1 - snap.realized_loss_fractions
        for path in paths:
            product = np.prod([survival[link.index] for link in path.links])
            assert snap.path_transmission[path.index] == pytest.approx(product)

    def test_flow_with_noise_differs(self, small_tree):
        topo, paths, routing = small_tree
        config = ProberConfig(fidelity="flow", path_sampling_noise=True)
        sim = ProbingSimulator(paths, topo.network.num_links, config=config)
        snap = sim.run_snapshot(seed=9)
        survival = 1 - snap.realized_loss_fractions
        products = np.array(
            [
                np.prod([survival[link.index] for link in p.links])
                for p in paths
            ]
        )
        assert not np.allclose(snap.path_transmission, products)


class TestCampaigns:
    def test_fixed_mode_shares_truth(self, small_tree):
        topo, paths, routing = small_tree
        sim = ProbingSimulator(paths, topo.network.num_links)
        campaign = sim.run_campaign(5, routing, seed=1, truth_mode="fixed")
        first = campaign[0].truth
        assert all(s.truth is first for s in campaign.snapshots)

    def test_redraw_mode_changes_truth(self, small_tree):
        topo, paths, routing = small_tree
        sim = ProbingSimulator(paths, topo.network.num_links)
        campaign = sim.run_campaign(5, routing, seed=1, truth_mode="redraw")
        marks = {s.truth.congested.tobytes() for s in campaign.snapshots}
        assert len(marks) > 1

    def test_propensity_mode_concentrates_congestion(self, small_tree):
        topo, paths, routing = small_tree
        config = ProberConfig(
            truth_mode="propensity",
            congestion_probability=0.05,
            propensity_range=(0.5, 0.9),
        )
        sim = ProbingSimulator(paths, topo.network.num_links, config=config)
        campaign = sim.run_campaign(20, routing, seed=2)
        counts = sum(s.truth.congested.astype(int) for s in campaign.snapshots)
        # Trouble links recur; others never congest.
        assert (counts >= 5).any()
        assert (counts == 0).mean() > 0.8

    def test_explicit_propensities(self, small_tree):
        topo, paths, routing = small_tree
        config = ProberConfig(truth_mode="propensity")
        sim = ProbingSimulator(paths, topo.network.num_links, config=config)
        propensities = np.zeros(topo.network.num_links)
        propensities[0] = 1.0
        campaign = sim.run_campaign(
            4, routing, seed=3, propensities=propensities
        )
        for snap in campaign.snapshots:
            assert snap.truth.congested[0]
            assert snap.truth.congested.sum() == 1

    def test_explicit_propensities_need_propensity_mode(self, small_tree):
        topo, paths, routing = small_tree
        sim = ProbingSimulator(paths, topo.network.num_links)
        with pytest.raises(ValueError, match="propensity"):
            sim.run_campaign(
                2, routing, seed=3,
                propensities=np.zeros(topo.network.num_links),
            )

    def test_split_training_target(self, tree_campaign):
        training, target = tree_campaign.split_training_target()
        assert len(training) == len(tree_campaign) - 1
        assert target is tree_campaign[-1]

    def test_log_matrix_shape(self, tree_campaign):
        Y = tree_campaign.log_matrix()
        assert Y.shape == (len(tree_campaign), tree_campaign.routing.num_paths)
        assert (Y <= 0).all()

    def test_campaign_rejects_misshaped_snapshot(self, small_tree):
        _, _, routing = small_tree
        campaign = MeasurementCampaign(routing=routing)
        with pytest.raises(ValueError):
            campaign.append(
                Snapshot(path_transmission=np.ones(3), num_probes=10)
            )

    def test_custom_process(self, small_tree):
        topo, paths, routing = small_tree
        sim = ProbingSimulator(
            paths, topo.network.num_links, process=BernoulliProcess()
        )
        snap = sim.run_snapshot(seed=11)
        assert snap.num_paths == routing.num_paths
