"""Tests for snapshots, the probing simulator and campaign plumbing."""

import numpy as np
import pytest

from tests.oracles import log_matrix_reference, packet_counts_reference
from repro.delay import DelayProbingSimulator
from repro.experiments.base import scale_params
from repro.lossmodel import LLRD2, BernoulliProcess, GilbertProcess
from repro.lossmodel.assignment import SnapshotGroundTruth, draw_snapshot_truth
from repro.lossmodel.processes import LossProcess
from repro.probing import (
    MeasurementCampaign,
    ProberConfig,
    ProbingSimulator,
    Snapshot,
    log_with_floor,
)
from repro.topology.graph import Link, Path
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology


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

    @pytest.mark.parametrize("num_probes", [0, -4, 2.5, True])
    def test_invalid_num_probes(self, num_probes):
        with pytest.raises(ValueError, match="num_probes"):
            log_with_floor(np.array([0.5]), num_probes)

    def test_numpy_integer_num_probes(self):
        logs = log_with_floor(np.array([0.0]), np.int64(1000))
        assert logs[0] == pytest.approx(np.log(0.0005))


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

    @pytest.mark.parametrize("bad", [200.7, 200.0, True, "200"])
    def test_non_integer_probe_count_rejected(self, bad):
        with pytest.raises(ValueError, match="num_probes must be an integer"):
            Snapshot(path_transmission=[0.9, 1.0], num_probes=bad)

    def test_numpy_integer_probe_count_accepted(self):
        snap = Snapshot(path_transmission=[0.9], num_probes=np.int64(200))
        assert snap.num_probes == 200

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


class TestPacketCounts:
    """The sparse fan-out count against the dense membership product."""

    @pytest.mark.parametrize("mesh", [False, True])
    def test_matches_dense_product(self, small_tree, small_mesh, mesh):
        topo, paths, _ = small_mesh if mesh else small_tree
        # A path that visits its links twice (through an extra link back
        # to its source) counts each dropped slot once.
        first, num_links = paths[0], topo.network.num_links + 1
        back = Link(index=num_links - 1, tail=first.dest, head=first.source)
        paths = list(paths) + [
            Path(index=len(paths), source=first.source, dest=first.dest,
                 links=first.links + (back,) + first.links)
        ]
        config = ProberConfig(probes_per_snapshot=300, congestion_probability=0.3)
        sim = ProbingSimulator(paths, num_links, model=LLRD2, config=config)
        truth = draw_snapshot_truth(num_links, 0.3, LLRD2, seed=1)
        snap = sim.run_snapshot(seed=2, truth=truth)
        drops = GilbertProcess().sample_states(
            truth.loss_rates, 300, seed=np.random.default_rng(2)
        )
        membership = np.zeros((len(paths), num_links))
        for row, path in enumerate(paths):
            membership[row, [link.index for link in path.links]] = 1.0
        counts = membership @ drops.astype(np.float64)
        assert np.array_equal(
            snap.path_transmission, 1.0 - (counts > 0).mean(axis=1)
        )
        assert np.array_equal(snap.realized_loss_fractions, drops.mean(axis=1))


class RecordingProcess(LossProcess):
    """Gilbert losses that keep the last drop matrix handed to the prober."""

    def __init__(self):
        self.drops = None

    def sample_states(self, loss_rates, num_probes, seed=None):
        self.drops = GilbertProcess().sample_states(loss_rates, num_probes, seed)
        return self.drops


class TestPackedScan:
    """The packed 64-bit word counts against the fan-out scan, bit for bit."""

    _prepared = {}

    @classmethod
    def paths_for(cls, kind):
        """The family's tiny-scale paths plus a one-link path."""
        if kind not in cls._prepared:
            prepared = prepare_topology(kind, scale_params("tiny"), 3)
            paths = list(prepared.paths)
            link = paths[0].links[0]
            paths.append(
                Path(index=len(paths), source=link.tail, dest=link.head, links=(link,))
            )
            cls._prepared[kind] = (paths, prepared.topology.network.num_links)
        return cls._prepared[kind]

    @staticmethod
    def measure(paths, num_links, loss_rates, num_probes):
        process = RecordingProcess()
        config = ProberConfig(probes_per_snapshot=num_probes)
        sim = ProbingSimulator(paths, num_links, process=process, config=config)
        truth = SnapshotGroundTruth(congested=loss_rates > 0, loss_rates=loss_rates)
        snap = sim.run_snapshot(seed=4, truth=truth)
        want = packet_counts_reference(paths, num_links, process.drops)
        return snap, process.drops, want

    @pytest.mark.parametrize("num_probes", [1, 63, 64, 65, 600])
    @pytest.mark.parametrize("kind", ("tree",) + MESH_TOPOLOGY_KINDS)
    def test_matches_fanout_scan(self, kind, num_probes):
        paths, num_links = self.paths_for(kind)
        rates = draw_snapshot_truth(num_links, 0.3, LLRD2, seed=5).loss_rates.copy()
        rates[paths[-1].links[0].index] = 1.0  # an all-dropped row
        snap, drops, (want_rates, want_fractions) = self.measure(
            paths, num_links, rates, num_probes
        )
        assert drops[paths[-1].links[0].index].all()
        assert np.array_equal(snap.path_transmission, want_rates)
        assert np.array_equal(snap.realized_loss_fractions, want_fractions)
        assert snap.path_transmission[-1] == 0.0

    @pytest.mark.parametrize("num_probes", [1, 64, 65])
    def test_all_clear_snapshot(self, num_probes):
        paths, num_links = self.paths_for("tree")
        snap, drops, (want_rates, want_fractions) = self.measure(
            paths, num_links, np.zeros(num_links), num_probes
        )
        assert not drops.any()
        assert np.array_equal(snap.path_transmission, np.ones(len(paths)))
        assert np.array_equal(snap.path_transmission, want_rates)
        assert np.array_equal(snap.realized_loss_fractions, want_fractions)


class TestInputValidation:
    @staticmethod
    def paths_with(bad_index):
        links = (Link(index=0, tail=0, head=1), Link(index=bad_index, tail=1, head=2))
        return [
            Path(index=0, source=0, dest=1, links=links[:1]),
            Path(index=1, source=0, dest=2, links=links),
        ]

    @pytest.mark.parametrize("bad_index", [-1, 3])
    @pytest.mark.parametrize(
        "make", [ProbingSimulator, DelayProbingSimulator], ids=["loss", "delay"]
    )
    def test_link_index_out_of_range(self, make, bad_index):
        with pytest.raises(ValueError, match=f"path 1 names link {bad_index}"):
            make(self.paths_with(bad_index), 3)

    @pytest.mark.parametrize("count", [10.5, 10.0, "10", True])
    def test_non_integer_probe_count(self, count):
        with pytest.raises(ValueError, match="probes_per_snapshot"):
            ProberConfig(probes_per_snapshot=count)

    def test_numpy_integer_probe_count(self):
        config = ProberConfig(probes_per_snapshot=np.int64(10))
        assert config.probes_per_snapshot == 10


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

    @pytest.mark.parametrize("floor", [None, 0.01], ids=["default", "explicit"])
    def test_log_matrix_matches_per_snapshot_logs(self, small_tree, floor):
        """One clip and one log, with one floor per row, equal the
        per-snapshot logs bit for bit, across mixed probe counts."""
        _, _, routing = small_tree
        rng = np.random.default_rng(4)
        rates = rng.uniform(0.0, 1.0, (6, routing.num_paths))
        rates[:, :3] = [0.0, 1e-4, 1.0]  # below, near and at the clip bounds
        campaign = MeasurementCampaign(
            routing=routing,
            snapshots=[
                Snapshot(path_transmission=row, num_probes=probes)
                for row, probes in zip(rates, [10, 200, 3, 10**6, np.int64(77), 1])
            ],
        )
        assert np.array_equal(
            campaign.log_matrix(floor), log_matrix_reference(campaign, floor)
        )

    def test_log_matrix_rejects_bad_floor(self, tree_campaign):
        with pytest.raises(ValueError, match="floor"):
            tree_campaign.log_matrix(1.5)

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
