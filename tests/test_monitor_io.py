"""Tests for the online monitor and the JSON storage seam."""

import numpy as np
import pytest

from repro import ProberConfig, ProbingSimulator
from repro.io import (
    CampaignDocument,
    document_from_dict,
    document_to_dict,
    load_campaign,
    save_campaign,
)
from repro.monitor import OnlineLossMonitor


@pytest.fixture(scope="module")
def monitored_stream(small_tree):
    """A warm-up stream plus a congestion flip for event testing."""
    topo, paths, routing = small_tree
    config = ProberConfig(probes_per_snapshot=400, congestion_probability=0.1)
    simulator = ProbingSimulator(paths, topo.network.num_links, config=config)
    calm = simulator.run_campaign(14, routing, seed=31, truth_mode="fixed")
    return topo, paths, routing, simulator, calm


class TestMonitor:
    def test_warms_up_then_localizes(self, monitored_stream):
        topo, paths, routing, simulator, calm = monitored_stream
        monitor = OnlineLossMonitor(
            routing, window=10, refresh_interval=3, localize_always=True
        )
        reports = [monitor.observe(s) for s in calm.snapshots]
        assert not any(r.loss_rates is not None for r in reports[:9])
        assert monitor.is_warm
        assert reports[-1].loss_rates is not None

    def test_detects_persistent_congestion(self, monitored_stream):
        topo, paths, routing, simulator, calm = monitored_stream
        monitor = OnlineLossMonitor(
            routing, window=10, refresh_interval=3, localize_always=True
        )
        for snap in calm.snapshots:
            monitor.observe(snap)
        truth = calm[-1].virtual_congested(routing)
        flagged = set(monitor.currently_congested())
        actual = set(int(c) for c in np.flatnonzero(truth))
        if actual:
            overlap = len(flagged & actual) / len(actual)
            assert overlap >= 0.7

    def test_onset_and_cleared_events(self, monitored_stream):
        topo, paths, routing, simulator, calm = monitored_stream
        monitor = OnlineLossMonitor(
            routing, window=6, refresh_interval=2, localize_always=True
        )
        for snap in calm.snapshots:
            monitor.observe(snap)
        # A quiet network from here on: everything should clear.
        from repro.lossmodel import SnapshotGroundTruth

        quiet_truth = SnapshotGroundTruth(
            congested=np.zeros(topo.network.num_links, dtype=bool),
            loss_rates=np.zeros(topo.network.num_links),
        )
        cleared = []
        for seed in range(6):
            snap = simulator.run_snapshot(seed=1000 + seed, truth=quiet_truth)
            report = monitor.observe(snap)
            cleared.extend(e for e in report.events if e.kind == "cleared")
        assert cleared
        assert all(e.duration_snapshots >= 1 for e in cleared)
        assert monitor.currently_congested() == []

    def test_screening_flags_sudden_loss(self, monitored_stream):
        topo, paths, routing, simulator, calm = monitored_stream
        monitor = OnlineLossMonitor(routing, window=10, z_threshold=4.0)
        for snap in calm.snapshots:
            monitor.observe(snap)
        # Craft a snapshot where one path collapses.
        from repro.probing import Snapshot

        rates = calm[-1].path_transmission.copy()
        rates[0] = max(rates[0] - 0.5, 0.0)
        report = monitor.observe(
            Snapshot(path_transmission=rates, num_probes=400)
        )
        assert report.screened_anomalous
        assert 0 in report.anomalous_paths

    def test_validation(self, monitored_stream):
        _, _, routing, _, _ = monitored_stream
        with pytest.raises(ValueError):
            OnlineLossMonitor(routing, window=1)
        with pytest.raises(ValueError):
            OnlineLossMonitor(routing, refresh_interval=0)
        with pytest.raises(ValueError):
            OnlineLossMonitor(routing, z_threshold=0)
        with pytest.raises(ValueError, match="incremental_limit"):
            OnlineLossMonitor(routing, incremental_limit=-1)

    @pytest.mark.parametrize("z_threshold", [float("nan"), float("inf"), -1.0])
    def test_z_threshold_must_be_finite_and_positive(
        self, monitored_stream, z_threshold
    ):
        # NaN or infinity would silently switch screening off.
        _, _, routing, _, _ = monitored_stream
        with pytest.raises(ValueError, match="z_threshold"):
            OnlineLossMonitor(routing, z_threshold=z_threshold)

    @pytest.mark.parametrize("field", ["window", "refresh_interval"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_counts_must_be_integers(self, monitored_stream, field, value):
        _, _, routing, _, _ = monitored_stream
        with pytest.raises(ValueError, match=field):
            OnlineLossMonitor(routing, **{field: value})

    def test_numpy_integer_counts_accepted(self, monitored_stream):
        _, _, routing, _, calm = monitored_stream
        monitor = OnlineLossMonitor(
            routing, window=np.int64(4), refresh_interval=np.int32(2)
        )
        for snap in calm.snapshots[:6]:
            monitor.observe(snap)
        assert monitor.is_warm and monitor.variance_refreshes == 1

    def test_cache_info_passthrough(self, monitored_stream):
        _, _, routing, _, _ = monitored_stream
        monitor = OnlineLossMonitor(routing)
        info = monitor.cache_info()
        assert set(info) == {"factorization", "reduction"}
        assert all(not any(value.as_dict().values()) for value in info.values())

    @pytest.mark.parametrize(
        "refresh_interval, expected", [(1, [3, 5, 7, 9, 11, 13]), (2, [3, 6, 9, 12])]
    )
    def test_refresh_cadence(self, monitored_stream, refresh_interval, expected):
        # The first warm snapshot refreshes, then one in every
        # refresh_interval + 1.
        _, _, routing, _, calm = monitored_stream
        monitor = OnlineLossMonitor(
            routing, window=4, refresh_interval=refresh_interval
        )
        refreshed_at = []
        for t, snap in enumerate(calm.snapshots):
            before = monitor.variance_refreshes
            monitor.observe(snap)
            if monitor.variance_refreshes > before:
                refreshed_at.append(t)
        assert refreshed_at == expected

    def test_congestion_age(self, small_tree):
        _, _, routing = small_tree
        monitor = OnlineLossMonitor(
            routing, window=6, refresh_interval=2, localize_always=True
        )
        onsets = {}
        congested_steps = 0
        for t in range(28):
            report = monitor.observe(
                TestRefreshUpdate.snapshot_at(routing, t, joining=20)
            )
            for event in report.events:
                if event.kind == "onset":
                    onsets[event.column] = t
                else:
                    del onsets[event.column]
            assert sorted(onsets) == monitor.currently_congested()
            for column in range(routing.num_links):
                onset = onsets.get(column)
                expected = None if onset is None else t - onset + 1
                assert monitor.congestion_age(column) == expected
            congested_steps += bool(onsets)
        assert congested_steps >= 10


class TestRefreshDowndate:
    """A refresh that clears a link downdates R* instead of refactorizing."""

    def test_shrinking_kept_set_downdates(self, small_tree):
        from repro.probing.snapshot import Snapshot

        _, _, routing = small_tree
        R = routing.matrix.astype(np.float64)
        varying = [2, 10, 20]
        clearing = 20

        def snapshot_at(t):
            # Noise-free log link rates: the varying columns alternate
            # between two congestion levels (across-window variance
            # ~2e-4, far above the 16 * t_l / S = 3.2e-5 cutoff); the
            # clearing column goes exactly quiet from t = 14 on, so a
            # later refresh drops exactly one kept column.
            x = np.zeros(routing.num_links)
            level = -0.02 if t % 2 == 0 else -0.05
            for column in varying:
                if column == clearing and t >= 14:
                    continue
                x[column] = level
            return Snapshot(
                path_transmission=np.exp(R @ x), num_probes=1000
            )

        monitor = OnlineLossMonitor(
            routing,
            window=6,
            refresh_interval=2,
            localize_always=True,
        )
        saw_all_varying = False
        for t in range(28):
            report = monitor.observe(snapshot_at(t))
            if report.loss_rates is not None and t < 14:
                flagged = set(
                    int(c)
                    for c in np.flatnonzero(report.loss_rates > 0.002)
                )
                saw_all_varying |= flagged == set(varying)

        assert saw_all_varying  # all three links localized while varying
        assert monitor.cache_info()["factorization"].downdates >= 1
        assert clearing not in monitor.currently_congested()


class TestRefreshUpdate:
    """A refresh that re-flags a link updates R* instead of refactorizing."""

    @staticmethod
    def snapshot_at(routing, t, joining):
        from repro.probing.snapshot import Snapshot

        # Noise-free log link rates (the downdate test's stream run in
        # reverse): two columns vary throughout, the joining column goes
        # active at t = 14, so a later refresh adds exactly one kept
        # column.
        R = routing.matrix.astype(np.float64)
        x = np.zeros(routing.num_links)
        level = -0.02 if t % 2 == 0 else -0.05
        for column in (2, 10):
            x[column] = level
        if t >= 14:
            x[joining] = level
        return Snapshot(path_transmission=np.exp(R @ x), num_probes=1000)

    def test_growing_kept_set_updates(self, small_tree):
        _, _, routing = small_tree
        joining = 20
        monitor = OnlineLossMonitor(
            routing, window=6, refresh_interval=2, localize_always=True
        )
        report = None
        for t in range(28):
            report = monitor.observe(self.snapshot_at(routing, t, joining))

        assert monitor.cache_info()["factorization"].updates >= 1
        assert monitor.cache_info()["reduction"].updates >= 1
        assert joining in monitor.currently_congested()

        # A refactor-from-scratch monitor fed the identical stream
        # localizes the same losses to update-path precision.
        cold = OnlineLossMonitor(
            routing,
            window=6,
            refresh_interval=2,
            localize_always=True,
            incremental_limit=0,
        )
        cold_report = None
        for t in range(28):
            cold_report = cold.observe(self.snapshot_at(routing, t, joining))
        assert cold.cache_info()["factorization"].updates == 0
        assert np.allclose(
            report.loss_rates, cold_report.loss_rates, atol=1e-8
        )


class TestIncrementalVariance:
    """Rolling-moment refreshes agree with batch phase 1 over the window."""

    @staticmethod
    def stream(routing, steps):
        from repro.probing.snapshot import Snapshot

        R = routing.matrix.astype(np.float64)
        for t in range(steps):
            x = np.zeros(routing.num_links)
            x[2] = -0.02 - 0.01 * (t % 3)
            x[10] = -0.03 - 0.01 * ((t + 1) % 2)
            yield Snapshot(path_transmission=np.exp(R @ x), num_probes=800)

    def test_matches_batch_refresh(self, small_tree, monkeypatch):
        from collections import deque

        import repro.monitor.online as online
        from repro.core.engine import InferenceEngine
        from repro.probing.snapshot import MeasurementCampaign

        # A tiny re-sum interval so every sum is re-summed from the
        # window several times mid-stream.
        monkeypatch.setattr(online, "MOMENTS_REBASE_INTERVAL", 7)
        _, _, routing = small_tree
        monitor = OnlineLossMonitor(
            routing, window=6, refresh_interval=2, localize_always=True
        )
        batch = InferenceEngine(routing)
        window = deque(maxlen=6)
        refreshes = localisations = 0
        for snap in self.stream(routing, 24):
            before = monitor.variance_refreshes
            report = monitor.observe(snap)
            window.append(snap)
            if monitor.variance_refreshes > before:
                estimate = batch.learn_variances(
                    MeasurementCampaign(routing=routing, snapshots=list(window))
                )
                assert np.allclose(
                    monitor._estimate.variances, estimate.variances, atol=1e-8
                )
                refreshes += 1
            if report.loss_rates is not None:
                assert np.allclose(
                    report.loss_rates,
                    batch.infer(snap, estimate).loss_rates,
                    atol=1e-8,
                )
                localisations += 1
        assert refreshes >= 5
        assert localisations >= 10

    def test_constant_stream_solves_to_zero_variances(self, small_tree):
        from repro.probing.snapshot import Snapshot

        _, _, routing = small_tree
        snap = Snapshot(
            path_transmission=np.full(routing.num_paths, 0.99),
            num_probes=500,
        )
        monitor = OnlineLossMonitor(
            routing, window=4, refresh_interval=1, localize_always=True
        )
        events = []
        solves = 0
        for _ in range(12):
            previous = monitor._estimate
            events.extend(monitor.observe(snap).events)
            if monitor._estimate is not previous:
                # Every refresh solves; constant paths have no variance.
                assert np.all(monitor._estimate.variances <= 1e-12)
                solves += 1
        assert solves == monitor.variance_refreshes >= 2
        assert events == []
        assert monitor.currently_congested() == []


class TestStateTracking:
    """Mask-diffed link states reproduce the set-based seed bookkeeping."""

    def test_events_match_the_set_based_oracle(self, small_tree):
        from tests.oracles import update_states_reference

        _, _, routing = small_tree
        monitor = OnlineLossMonitor(routing, congestion_threshold=0.01)
        rng = np.random.default_rng(17)
        congested_since = {}
        fired = 0
        for t in range(200):
            # A few links flip per step, so onsets and clears interleave.
            rates = np.where(
                rng.random(routing.num_links) < 0.08,
                rng.uniform(0.0, 0.05, routing.num_links),
                0.0,
            )
            monitor._time = t
            got = monitor._update_states(rates)
            want = update_states_reference(
                congested_since, t, rates, monitor.congestion_threshold
            )
            assert got == want
            assert all(type(e.column) is int for e in got)
            assert monitor.currently_congested() == sorted(congested_since)
            fired += len(got)
        assert fired > 100


class TestRollingMoments:
    """Path sums stay exact to rounding; pair covariances match batch."""

    # More paths than re-sum slices, so no slice is empty.
    NUM_PATHS = 80
    NUM_LINKS = 10
    WINDOW = 50

    @classmethod
    def moments(cls):
        from repro.core.augmented import intersecting_pairs
        from repro.monitor.online import _RollingMoments

        rng = np.random.default_rng(3)
        routing = np.zeros((cls.NUM_PATHS, cls.NUM_LINKS), dtype=np.uint8)
        for row in routing:
            row[rng.choice(cls.NUM_LINKS, size=2, replace=False)] = 1
        pairs = intersecting_pairs(routing)
        return _RollingMoments(routing, pairs, cls.WINDOW), pairs

    @classmethod
    def rows(cls, count, seed):
        rng = np.random.default_rng(seed)
        return -0.02 + 0.002 * rng.standard_normal((count, cls.NUM_PATHS))

    @staticmethod
    def assert_close(got, exact):
        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_long_stream_stays_within_drift_bound(self):
        from repro.core.covariance import sample_covariance_pairs

        moments, pairs = self.moments()
        rows = self.rows(100_000, seed=5)
        for t, y in enumerate(rows, start=1):
            moments.push(y)
            if t % 20_000:
                continue
            window = rows[t - self.WINDOW : t]
            self.assert_close(
                moments.pair_covariances(),
                sample_covariance_pairs(window, pairs.pair_i, pairs.pair_j),
            )
            self.assert_close(moments.path_variances(), window.var(axis=0, ddof=1))
            self.assert_close(moments.path_means(), window.mean(axis=0))

    def test_partial_window_covariances(self):
        from repro.core.covariance import sample_covariance_pairs

        moments, pairs = self.moments()
        rows = self.rows(7, seed=6)
        for y in rows:
            moments.push(y)
        # Only the pushed rows count, not the ring's zero columns.
        self.assert_close(
            moments.pair_covariances(),
            sample_covariance_pairs(rows, pairs.pair_i, pairs.pair_j),
        )

    @pytest.mark.parametrize("interval", [7, 64])
    def test_every_sum_is_resummed_once_per_interval(self, monkeypatch, interval):
        import repro.monitor.online as online

        monkeypatch.setattr(online, "MOMENTS_REBASE_INTERVAL", interval)
        moments, _ = self.moments()
        rows = self.rows(2 * self.WINDOW + interval, seed=9)
        for y in rows[: 2 * self.WINDOW]:
            moments.push(y)
        # Corrupt every sum; rolling updates keep NaN, only a re-sum
        # from the window clears it.
        for sums in (moments.sum_y, moments.sum_sq):
            sums[:] = np.nan
        for y in rows[2 * self.WINDOW : -1]:
            moments.push(y)
        # The re-sum is staggered: one push short, a slice is still stale.
        assert np.isnan(moments.sum_y).any()
        moments.push(rows[-1])

        # The sums are of the window shifted by each path's first value.
        window = rows[-self.WINDOW :] - rows[0]
        for got, exact in (
            (moments.sum_y, window.sum(axis=0)),
            (moments.sum_sq, (window * window).sum(axis=0)),
        ):
            assert np.allclose(got, exact, rtol=1e-12, atol=0)
        assert moments.count == self.WINDOW


class TestSerialization:
    def test_round_trip(self, small_tree, tree_campaign, tmp_path):
        topo, paths, routing = small_tree
        document = CampaignDocument(
            network=topo.network,
            beacons=topo.beacons,
            destinations=topo.destinations,
            paths=paths,
            snapshots=list(tree_campaign.snapshots),
        )
        target = tmp_path / "campaign.json"
        save_campaign(document, target)
        loaded = load_campaign(target)

        assert loaded.network.num_links == topo.network.num_links
        assert [p.link_indices() for p in loaded.paths] == [
            p.link_indices() for p in paths
        ]
        for original, restored in zip(
            tree_campaign.snapshots, loaded.snapshots
        ):
            assert np.allclose(
                original.path_transmission, restored.path_transmission
            )
        # The reloaded document reproduces the same routing matrix.
        assert np.array_equal(loaded.routing().matrix, routing.matrix)

    def test_lia_runs_on_loaded_document(
        self, small_tree, tree_campaign, tmp_path
    ):
        topo, paths, routing = small_tree
        document = CampaignDocument(
            network=topo.network,
            beacons=topo.beacons,
            destinations=topo.destinations,
            paths=paths,
            snapshots=list(tree_campaign.snapshots),
        )
        target = tmp_path / "campaign.json"
        save_campaign(document, target)
        loaded = load_campaign(target)

        from repro import LossInferenceAlgorithm

        result = LossInferenceAlgorithm(loaded.routing()).run(loaded.campaign())
        assert result.num_links == routing.num_links

    def test_format_tag_checked(self):
        with pytest.raises(ValueError, match="format"):
            document_from_dict({"format": "something-else"})

    def test_width_mismatch_rejected(self, small_tree, tree_campaign):
        topo, paths, _ = small_tree
        document = CampaignDocument(
            network=topo.network,
            beacons=topo.beacons,
            destinations=topo.destinations,
            paths=paths,
            snapshots=list(tree_campaign.snapshots),
        )
        payload = document_to_dict(document)
        payload["snapshots"][0]["path_transmission"] = [1.0]
        with pytest.raises(ValueError, match="width"):
            document_from_dict(payload)

    @pytest.mark.parametrize("link", [10**6, -1])
    def test_unknown_link_index_rejected(self, small_tree, tree_campaign, link):
        topo, paths, _ = small_tree
        document = CampaignDocument(
            network=topo.network,
            beacons=topo.beacons,
            destinations=topo.destinations,
            paths=paths,
            snapshots=list(tree_campaign.snapshots),
        )
        payload = document_to_dict(document)
        payload["paths"][3]["links"][0] = link
        with pytest.raises(ValueError, match=f"path 3 names link {link}"):
            document_from_dict(payload)

    @staticmethod
    def payload(small_tree, tree_campaign):
        topo, paths, _ = small_tree
        return document_to_dict(
            CampaignDocument(
                network=topo.network,
                beacons=topo.beacons,
                destinations=topo.destinations,
                paths=paths,
                snapshots=list(tree_campaign.snapshots),
            )
        )

    @pytest.mark.parametrize("link", [2.9, 2.0, True])
    def test_non_integer_link_index_rejected(
        self, small_tree, tree_campaign, link
    ):
        """Regression: link 2.9 used to load silently as link 2."""
        payload = self.payload(small_tree, tree_campaign)
        payload["paths"][3]["links"][0] = link
        with pytest.raises(
            ValueError, match="path 3 link index must be an integer"
        ):
            document_from_dict(payload)

    @pytest.mark.parametrize("count", [200.7, True])
    def test_non_integer_probe_count_rejected(
        self, small_tree, tree_campaign, count
    ):
        """Regression: num_probes 200.7 used to load silently as 200."""
        payload = self.payload(small_tree, tree_campaign)
        payload["snapshots"][2]["num_probes"] = count
        with pytest.raises(ValueError, match="num_probes must be an integer"):
            document_from_dict(payload)
