"""Tests for the factorization-reusing inference engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.covariance import CovarianceSummary
from repro.core.engine import (
    CACHE_ENTRIES,
    FactorizationCache,
    InferenceEngine,
    ReductionCache,
    infer_many,
)
from repro.core.reduction import reduce_to_full_rank
from repro.core.variance import VarianceEstimate


@pytest.fixture(scope="module")
def trained(small_tree, tree_campaign):
    _, _, routing = small_tree
    lia = InferenceEngine(routing)
    training, target = tree_campaign.split_training_target()
    estimate = lia.learn_variances(training)
    return routing, lia, training, target, estimate


class TestFactorizationCache:
    def test_block_and_factorization(self):
        rng = np.random.default_rng(0)
        R = (rng.random(size=(20, 10)) < 0.4).astype(np.float64)
        cache = FactorizationCache(R)
        kept = np.array([1, 4, 7])
        assert np.array_equal(cache.block(kept), R[:, kept])
        factorization = cache.factorization(kept)
        assert np.allclose(factorization.q @ factorization.r, R[:, kept], atol=1e-10)

    def test_hit_and_miss_accounting(self):
        R = np.eye(6)
        cache = FactorizationCache(sparse.csr_matrix(R))
        kept = np.array([0, 2])
        first = cache.factorization(kept)
        second = cache.factorization(np.array([0, 2]))
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        R = np.eye(CACHE_ENTRIES + 1)
        cache = FactorizationCache(R)
        a = cache.factorization(np.array([0]))
        for column in range(1, CACHE_ENTRIES + 1):
            cache.factorization(np.array([column]))  # the last evicts [0]
        assert len(cache) == CACHE_ENTRIES
        assert cache.evictions == 1
        again = cache.factorization(np.array([0]))
        assert again is not a

    def test_reduction_cache_shares_the_entry_bound(self):
        cache = ReductionCache(np.eye(4))
        for scale in range(CACHE_ENTRIES + 1):
            cache.reduce(np.full(4, 1.0 + scale), "greedy")
        assert len(cache) == CACHE_ENTRIES
        assert cache.cache_info().evictions == 1


class TestFactorizationDowndate:
    """Shrinking kept sets reuse the cached QR via Givens downdates."""

    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(3)
        return rng.random(size=(24, 12)) + np.vstack(
            [np.eye(12), np.zeros((12, 12))]
        )

    def test_subset_request_downdates(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        full = np.arange(8)
        cache.factorization(full)
        shrunk = np.array([0, 1, 2, 4, 5, 7])  # drops columns 3 and 6
        downdated = cache.factorization(shrunk)
        assert cache.downdates == 1
        assert cache.misses == 1  # only the initial full factorization
        assert downdated.columns == tuple(int(c) for c in shrunk)

        fresh = FactorizationCache(matrix).factorization(shrunk)
        rhs = np.linspace(-1.0, 1.0, matrix.shape[0])
        assert np.allclose(downdated.solve(rhs), fresh.solve(rhs), atol=1e-10)
        assert np.allclose(
            downdated.q @ downdated.r, matrix[:, shrunk], atol=1e-10
        )

    def test_shrink_beyond_limit_refactorizes(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.arange(8))
        cache.factorization(np.array([0, 2, 4, 6, 7]))  # 3 columns removed
        assert cache.downdates == 0
        assert cache.misses == 2

    def test_growing_set_is_an_update_not_a_downdate(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.array([0, 1, 2]))
        cache.factorization(np.array([0, 1, 2, 3]))
        assert cache.downdates == 0
        assert cache.updates == 1
        assert cache.misses == 1

    def test_downdate_is_off_by_default(self, matrix):
        """Batch pipelines stay bit-identical: only opted-in consumers
        (the monitor) downdate."""
        cache = FactorizationCache(matrix)
        cache.factorization(np.arange(8))
        cache.factorization(np.arange(7))
        assert cache.downdates == 0
        assert cache.misses == 2

    def test_downdated_entry_is_cached(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.arange(6))
        shrunk = np.arange(5)
        first = cache.factorization(shrunk)
        second = cache.factorization(shrunk)
        assert first is second
        assert cache.downdates == 1 and cache.hits == 1

    def test_engine_downdates_on_shrinking_kept_set(self, small_tree):
        """A refresh that exonerates ≤2 columns rides the downdate path."""
        from repro.core.covariance import CovarianceSummary
        from repro.core.variance import VarianceEstimate
        from repro.probing.snapshot import Snapshot

        _, _, routing = small_tree
        engine = InferenceEngine(routing)
        # Opt in the way OnlineLossMonitor does.
        engine.factorization_cache.incremental_limit = 2

        def estimate_with(columns):
            variances = np.zeros(routing.num_links)
            variances[list(columns)] = 1e-2
            return VarianceEstimate(
                variances=variances,
                method="wls",
                covariance_summary=CovarianceSummary(2, 1, 0),
                residual_norm=0.0,
            )

        snapshot = Snapshot(
            path_transmission=np.full(routing.num_paths, 0.98),
            num_probes=1000,
        )
        wide = engine.infer(snapshot, estimate_with([1, 3, 5, 7]))
        assert len(wide.reduction.kept_columns) == 4
        narrow = engine.infer(snapshot, estimate_with([1, 5, 7]))
        assert engine.factorization_cache.downdates == 1
        assert engine.factorization_cache.misses == 1

        # The downdated solve equals a cold engine's exact factorization.
        cold = InferenceEngine(routing).infer(snapshot, estimate_with([1, 5, 7]))
        assert np.allclose(
            narrow.transmission_rates, cold.transmission_rates, atol=1e-10
        )


class TestFactorizationUpdate:
    """Growing kept sets reuse the cached QR via CGS2 column adds."""

    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(3)
        return rng.random(size=(24, 12)) + np.vstack(
            [np.eye(12), np.zeros((12, 12))]
        )

    def test_superset_request_updates(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.array([0, 1, 2, 4, 5, 7]))
        grown = np.arange(8)  # adds columns 3 and 6
        updated = cache.factorization(grown)
        assert cache.updates == 1
        assert cache.misses == 1  # only the initial subset factorization
        assert updated.columns == tuple(range(8))

        fresh = FactorizationCache(matrix).factorization(grown)
        rhs = np.linspace(-1.0, 1.0, matrix.shape[0])
        assert np.allclose(updated.solve(rhs), fresh.solve(rhs), atol=1e-10)
        assert np.allclose(
            updated.q @ updated.r, matrix[:, grown], atol=1e-10
        )

    def test_grow_beyond_limit_refactorizes(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.arange(5))
        cache.factorization(np.arange(8))  # 3 columns added
        assert cache.updates == 0
        assert cache.misses == 2

    def test_update_is_off_by_default(self, matrix):
        """Batch pipelines stay bit-identical: only opted-in consumers
        (the monitor) ride the column-add path."""
        cache = FactorizationCache(matrix)
        cache.factorization(np.arange(5))
        cache.factorization(np.arange(6))
        assert cache.updates == 0
        assert cache.misses == 2

    def test_dependent_column_falls_back_to_fresh_qr(self):
        rng = np.random.default_rng(5)
        A = rng.random(size=(10, 6))
        A[:, 4] = A[:, 0] + A[:, 1]
        cache = FactorizationCache(A, incremental_limit=2)
        cache.factorization(np.array([0, 1, 2]))
        grown = cache.factorization(np.array([0, 1, 2, 4]))
        # The CGS2 offer rejects the dependent column; the cache falls
        # back to a fresh (rank-deficient) factorization instead.
        assert cache.updates == 0
        assert cache.misses == 2
        assert not grown.full_rank

    def test_updated_entry_is_cached(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.arange(5))
        grown = np.arange(6)
        first = cache.factorization(grown)
        second = cache.factorization(grown)
        assert first is second
        assert cache.updates == 1 and cache.hits == 1

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError, match="incremental_limit"):
            FactorizationCache(np.eye(2), incremental_limit=-1)

    def test_engine_updates_on_growing_kept_set(self, small_tree):
        """A refresh that implicates ≤2 new columns rides the add path."""
        from repro.probing.snapshot import Snapshot

        _, _, routing = small_tree
        engine = InferenceEngine(routing, incremental_limit=2)

        def estimate_with(columns):
            variances = np.zeros(routing.num_links)
            variances[list(columns)] = 1e-2
            return VarianceEstimate(
                variances=variances,
                method="wls",
                covariance_summary=CovarianceSummary(2, 1, 0),
                residual_norm=0.0,
            )

        snapshot = Snapshot(
            path_transmission=np.full(routing.num_paths, 0.98),
            num_probes=1000,
        )
        engine.infer(snapshot, estimate_with([1, 5, 7]))
        wide = engine.infer(snapshot, estimate_with([1, 3, 5, 7]))
        assert engine.factorization_cache.updates == 1
        assert engine.factorization_cache.misses == 1

        cold = InferenceEngine(routing).infer(
            snapshot, estimate_with([1, 3, 5, 7])
        )
        assert np.allclose(
            wide.transmission_rates, cold.transmission_rates, atol=1e-10
        )


class TestCacheBudgets:
    """Both caches count hits, misses, updates, downdates and evictions."""

    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(3)
        return rng.random(size=(24, 12)) + np.vstack(
            [np.eye(12), np.zeros((12, 12))]
        )

    def test_cache_info_snapshot(self, matrix):
        cache = FactorizationCache(matrix, incremental_limit=2)
        cache.factorization(np.arange(6))
        cache.factorization(np.arange(6))  # hit
        cache.factorization(np.arange(5))  # downdate
        cache.factorization(np.arange(7))  # update from the 6-column entry
        info = cache.cache_info()
        assert info.as_dict() == {
            "hits": 1,
            "misses": 1,
            "updates": 1,
            "downdates": 1,
            "evictions": 0,
            "entries": 3,
        }

    def test_engine_cache_info_keys(self, small_tree):
        _, _, routing = small_tree
        info = InferenceEngine(routing).cache_info()
        assert set(info) == {"factorization", "reduction"}
        assert all(value.entries == 0 for value in info.values())


class TestReductionReuse:
    """Threshold-strategy reuse across variance vectors (opt-in)."""

    CUTOFF = 1e-4

    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(3)
        return rng.random(size=(24, 12)) + np.vstack(
            [np.eye(12), np.zeros((12, 12))]
        )

    @staticmethod
    def variances_for(columns, num_links=12, scale=1.0):
        variances = np.zeros(num_links)
        for i, column in enumerate(columns):
            variances[column] = scale * 0.01 * (1 + i)
        return variances

    def reduce(self, cache, columns, scale=1.0):
        return cache.reduce(
            self.variances_for(columns, scale=scale),
            "threshold",
            variance_cutoff=self.CUTOFF,
        )

    def test_exact_vector_hits(self, matrix):
        cache = ReductionCache(matrix, incremental_limit=2)
        first = self.reduce(cache, [0, 3, 5])
        second = self.reduce(cache, [0, 3, 5])
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_identical_candidates_skip_the_sweep(self, matrix):
        """Same above-cutoff set under different variance values."""
        cache = ReductionCache(matrix, incremental_limit=2)
        first = self.reduce(cache, [0, 3, 5])
        second = self.reduce(cache, [0, 3, 5], scale=2.0)
        assert cache.updates == 1 and cache.misses == 1
        assert np.array_equal(first.kept_columns, second.kept_columns)

    def test_shrunk_candidates_skip_the_sweep(self, matrix):
        cache = ReductionCache(matrix, incremental_limit=2)
        self.reduce(cache, [0, 3, 5, 8])
        shrunk = self.reduce(cache, [0, 5, 8])
        assert cache.updates == 1 and cache.misses == 1
        assert list(shrunk.kept_columns) == [0, 5, 8]

    def test_grown_candidates_offer_only_new_columns(self, matrix):
        cache = ReductionCache(matrix, incremental_limit=2)
        self.reduce(cache, [0, 3, 5])
        grown = self.reduce(cache, [0, 3, 5, 8, 9])
        assert cache.updates == 1 and cache.misses == 1
        assert list(grown.kept_columns) == [0, 3, 5, 8, 9]
        # Decision-identical to the cold sweep.
        cold = reduce_to_full_rank(
            matrix,
            self.variances_for([0, 3, 5, 8, 9]),
            strategy="threshold",
            variance_cutoff=self.CUTOFF,
        )
        assert np.array_equal(grown.kept_columns, cold.kept_columns)

    def test_grow_beyond_limit_sweeps(self, matrix):
        cache = ReductionCache(matrix, incremental_limit=2)
        self.reduce(cache, [0, 3])
        self.reduce(cache, [0, 3, 5, 8, 9])  # 3 new candidates
        assert cache.updates == 0 and cache.misses == 2

    def test_reuse_is_off_by_default(self, matrix):
        cache = ReductionCache(matrix)
        self.reduce(cache, [0, 3, 5])
        self.reduce(cache, [0, 3, 5], scale=2.0)
        assert cache.updates == 0 and cache.misses == 2

    def test_dependent_growth_falls_back_to_the_sweep(self, matrix):
        dependent = np.array(matrix)
        dependent[:, 11] = dependent[:, 0] + dependent[:, 3]
        cache = ReductionCache(dependent, incremental_limit=2)
        self.reduce(cache, [0, 3])
        grown = self.reduce(cache, [0, 3, 11])
        # The basis offer rejects column 11, so the cold sweep runs; its
        # descending-variance scan keeps {3, 11} and rejects 0 instead.
        assert cache.updates == 0 and cache.misses == 2
        cold = reduce_to_full_rank(
            dependent,
            self.variances_for([0, 3, 11]),
            strategy="threshold",
            variance_cutoff=self.CUTOFF,
        )
        assert np.array_equal(grown.kept_columns, cold.kept_columns)
        assert list(grown.kept_columns) == [3, 11]

    def test_negative_reuse_limit_rejected(self):
        with pytest.raises(ValueError):
            ReductionCache(np.eye(2), incremental_limit=-1)

    @staticmethod
    def bases(cache):
        """Each cached basis's accepted columns, copied."""
        return {
            id(entry.basis): np.array(entry.basis.basis_matrix)
            for entry in cache._cache.values()
            if entry.basis is not None
        }

    def test_shrink_grow_readd_never_sweeps_again(self, matrix):
        cache = ReductionCache(matrix, incremental_limit=2)
        self.reduce(cache, [0, 3, 5, 8])
        # Shrink (3 drops out), grow (9 joins), then 3 is re-added: the
        # shrink keeps 3 in the covering span, so re-adding it offers
        # nothing, and a distinct scan order rules out an exact reuse.
        steps = ([0, 5, 8], [0, 5, 8, 9], [9, 8, 5, 3, 0])
        for columns in steps:
            before = self.bases(cache)
            reduced = self.reduce(cache, columns)
            assert list(reduced.kept_columns) == sorted(columns)
            for key, basis in before.items():
                assert np.array_equal(self.bases(cache)[key], basis)
        assert cache.misses == 1 and cache.updates == 3
        entries = list(cache._cache.values())
        # The shrink shares its parent's basis; the re-add shares the
        # grown one, whose span covers every column seen.
        assert entries[1].basis is entries[0].basis
        assert entries[3].basis is entries[2].basis
        assert entries[3].span == {0, 3, 5, 8, 9}
        cold = reduce_to_full_rank(
            matrix,
            self.variances_for([9, 8, 5, 3, 0]),
            strategy="threshold",
            variance_cutoff=self.CUTOFF,
        )
        assert np.array_equal(reduced.kept_columns, cold.kept_columns)

    def test_growth_dependent_on_the_covering_span_sweeps(self, matrix):
        dependent = np.array(matrix)
        dependent[:, 11] = dependent[:, 0] + dependent[:, 3]
        cache = ReductionCache(dependent, incremental_limit=2)
        self.reduce(cache, [0, 3, 5])
        self.reduce(cache, [0, 5])  # 3 stays in the covering span
        before = self.bases(cache)
        grown = self.reduce(cache, [0, 5, 11])
        # Column 11 is independent of {0, 5} but not of the span
        # {0, 3, 5}, so the offer is rejected and the cold sweep runs.
        assert cache.misses == 2 and cache.updates == 1
        cold = reduce_to_full_rank(
            dependent,
            self.variances_for([0, 5, 11]),
            strategy="threshold",
            variance_cutoff=self.CUTOFF,
        )
        assert np.array_equal(grown.kept_columns, cold.kept_columns)
        assert list(grown.kept_columns) == [0, 5, 11]
        for key, basis in before.items():
            assert np.array_equal(self.bases(cache)[key], basis)


class TestBatchByteIdentity:
    """Knob-free engines never touch the incremental paths.

    Batch pipelines construct their engines with the defaults, so their
    payloads stay seed-for-seed byte-identical to the pre-incremental
    code: the new paths are opt-in and only the monitor opts in.
    """

    def test_batch_inference_is_byte_identical_to_cold_engines(
        self, trained
    ):
        routing, lia, training, target, estimate = trained
        snapshots = list(training.snapshots[-3:]) + [target]
        warm_lia = InferenceEngine(routing)
        results = [warm_lia.infer(s, estimate) for s in snapshots]
        info = warm_lia.cache_info()
        assert info["factorization"].updates == 0
        assert info["factorization"].downdates == 0
        assert info["reduction"].updates == 0
        for snapshot, warm in zip(snapshots, results):
            cold = InferenceEngine(routing).infer(snapshot, estimate)
            assert np.array_equal(warm.loss_rates, cold.loss_rates)
            assert np.array_equal(
                warm.transmission_rates, cold.transmission_rates
            )


class TestEngineInference:
    def test_matches_seed_pipeline(self, trained):
        """Engine inference == reduce + numpy lstsq on dense R*, to tight tolerance."""
        routing, lia, _, target, estimate = trained
        result = lia.infer(target, estimate)
        cutoff = (
            lia.cutoff_scale * lia.congestion_threshold / target.num_probes
        )
        reduction = reduce_to_full_rank(
            routing.matrix.astype(np.float64),
            estimate.variances,
            strategy="threshold",
            variance_cutoff=cutoff,
        )
        assert np.array_equal(
            result.reduction.kept_columns, reduction.kept_columns
        )
        kept = reduction.kept_columns
        x_star, *_ = np.linalg.lstsq(
            routing.to_dense()[:, kept], target.path_log_rates(), rcond=None
        )
        x = np.zeros(routing.num_links)
        x[kept] = np.minimum(x_star, 0.0)
        assert np.allclose(result.transmission_rates, np.exp(x), atol=1e-9)

    def test_reduction_memoized_per_estimate(self, trained):
        _, lia, _, target, estimate = trained
        first = lia.infer(target, estimate)
        second = lia.infer(target, estimate)
        assert first.reduction is second.reduction

    def test_factorization_reused_across_snapshots(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = InferenceEngine(routing)
        training, _ = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        cache = lia.factorization_cache
        for snapshot in tree_campaign.snapshots[-5:]:
            lia.infer(snapshot, estimate)
        assert cache.misses == 1
        assert cache.hits == 4

    def test_estimate_shape_validated(self, trained):
        _, lia, _, target, _ = trained
        from repro.core.variance import VarianceEstimate
        from repro.core.covariance import CovarianceSummary

        bogus = VarianceEstimate(
            variances=np.ones(target.num_paths + 123),
            method="wls",
            covariance_summary=CovarianceSummary(2, 1, 0),
            residual_norm=0.0,
        )
        with pytest.raises(ValueError, match="does not match"):
            lia.infer(target, bogus)

    def test_pairs_setter_validates(self, trained, small_mesh):
        routing, lia, _, _, _ = trained
        _, _, other_routing = small_mesh
        other = InferenceEngine(other_routing)
        with pytest.raises(ValueError, match="do not match"):
            lia.pairs = other.pairs
        lia.pairs = lia.pairs  # same structure is accepted

    def test_paper_name_is_the_engine(self):
        import repro
        import repro.core

        assert repro.LossInferenceAlgorithm is InferenceEngine
        assert repro.core.LossInferenceAlgorithm is InferenceEngine


def _estimate_flagging(routing, columns):
    variances = np.zeros(routing.num_links)
    variances[list(columns)] = 1e-2
    return VarianceEstimate(
        variances=variances,
        method="wls",
        covariance_summary=CovarianceSummary(2, 1, 0),
        residual_norm=0.0,
    )


class TestSnapshotPathCount:
    """A snapshot with the wrong path count is rejected, naming both counts."""

    @pytest.fixture(params=["empty kept set", "kept columns"])
    def case(self, request, small_tree):
        from repro.probing.snapshot import Snapshot

        _, _, routing = small_tree
        columns = [] if request.param == "empty kept set" else [1, 3]
        short = Snapshot(
            path_transmission=np.full(routing.num_paths - 3, 0.98),
            num_probes=1000,
        )
        return InferenceEngine(routing), short, _estimate_flagging(routing, columns)

    def message(self, engine):
        paths = engine.routing.num_paths
        return f"snapshot has {paths - 3} paths but the routing matrix has {paths}"

    def test_infer(self, case):
        engine, short, estimate = case
        with pytest.raises(ValueError, match=self.message(engine)):
            engine.infer(short, estimate)

    def test_infer_batch(self, case):
        engine, short, estimate = case
        with pytest.raises(ValueError, match=self.message(engine)):
            engine.infer_batch([short], estimate)

    def test_infer_many(self, case):
        engine, short, estimate = case
        with pytest.raises(ValueError, match=self.message(engine)):
            infer_many([(engine, short, estimate)])


class TestInferBatch:
    def test_matches_per_snapshot_infer(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = InferenceEngine(routing)
        training, _ = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        tail = tree_campaign.snapshots[-6:]
        batched = lia.infer_batch(tail, estimate)
        assert len(batched) == len(tail)
        for snapshot, result in zip(tail, batched):
            single = lia.infer(snapshot, estimate)
            assert np.allclose(
                result.transmission_rates,
                single.transmission_rates,
                atol=1e-12,
            )
            assert np.array_equal(
                result.reduction.kept_columns,
                single.reduction.kept_columns,
            )

    def test_single_factorization_for_uniform_batch(self, small_tree, tree_campaign):
        _, _, routing = small_tree
        lia = InferenceEngine(routing)
        training, _ = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        cache = lia.factorization_cache
        lia.infer_batch(tree_campaign.snapshots[-8:], estimate)
        assert cache.misses == 1

    def test_empty_batch(self, trained):
        _, lia, _, _, estimate = trained
        assert lia.infer_batch([], estimate) == []

    def test_empty_kept_set_batch(self, small_tree, tree_campaign):
        """All-quiet variances keep nothing: rates are exactly 1."""
        _, _, routing = small_tree
        from repro.core.variance import VarianceEstimate
        from repro.core.covariance import CovarianceSummary

        engine = InferenceEngine(routing)
        quiet = VarianceEstimate(
            variances=np.zeros(routing.num_links),
            method="wls",
            covariance_summary=CovarianceSummary(2, 1, 0),
            residual_norm=0.0,
        )
        results = engine.infer_batch(tree_campaign.snapshots[-3:], quiet)
        for result in results:
            assert np.array_equal(
                result.transmission_rates, np.ones(routing.num_links)
            )

    def test_mixed_probe_counts_grouped(self, small_tree, tree_campaign):
        """Snapshots with different S get their own cutoff (and group)."""
        from dataclasses import replace

        _, _, routing = small_tree
        lia = InferenceEngine(routing)
        training, target = tree_campaign.split_training_target()
        estimate = lia.learn_variances(training)
        halved = replace(target, num_probes=target.num_probes // 2)
        batched = lia.infer_batch([target, halved, target], estimate)
        singles = [lia.infer(s, estimate) for s in (target, halved, target)]
        for batch_result, single in zip(batched, singles):
            assert np.allclose(
                batch_result.transmission_rates,
                single.transmission_rates,
                atol=1e-12,
            )


def _forest(count, first_seed=300):
    """*count* small trees with distinct sizes and probe counts."""
    from repro import (
        ProberConfig,
        ProbingSimulator,
        RoutingMatrix,
        build_paths,
        random_tree,
    )

    runs = []
    for i in range(count):
        topo = random_tree(num_nodes=25 + 3 * i, seed=first_seed + i)
        paths = build_paths(topo.network, topo.beacons, topo.destinations)
        routing = RoutingMatrix.from_paths(paths)
        simulator = ProbingSimulator(
            paths,
            topo.network.num_links,
            config=ProberConfig(
                probes_per_snapshot=200 + 50 * i,
                congestion_probability=0.15,
            ),
        )
        campaign = simulator.run_campaign(9, routing, seed=first_seed + 200 + i)
        training, target = campaign.split_training_target()
        engine = InferenceEngine(routing)
        runs.append((engine, target, engine.learn_variances(training)))
    return runs


def assert_matches_loop(runs, results):
    """*results* equal a loop of ``engine.infer`` to the byte."""
    loop = [engine.infer(snap, est) for engine, snap, est in runs]
    assert len(results) == len(loop)
    for reference, batched in zip(loop, results):
        assert np.array_equal(
            reference.transmission_rates, batched.transmission_rates
        )
        assert np.array_equal(
            reference.reduction.kept_columns, batched.reduction.kept_columns
        )


class TestInferMany:
    """Packed inference across independent trees."""

    @pytest.fixture(scope="class")
    def forest_runs(self):
        return _forest(5)

    def test_packed_matches_loop_to_the_byte(self, forest_runs):
        assert_matches_loop(forest_runs, infer_many(forest_runs))

    def test_empty_runs(self):
        assert infer_many([]) == []

    def test_empty_kept_set_tree(self, small_tree, tree_campaign):
        """A tree whose reduction keeps nothing still lands rate 1.0."""
        _, _, routing = small_tree
        engine = InferenceEngine(routing)
        quiet = VarianceEstimate(
            variances=np.zeros(routing.num_links),
            method="wls",
            covariance_summary=CovarianceSummary(2, 1, 0),
            residual_norm=0.0,
        )
        target = tree_campaign.snapshots[-1]
        runs = [(engine, target, quiet)]
        (result,) = infer_many(runs)
        assert np.array_equal(
            result.transmission_rates, np.ones(routing.num_links)
        )
        assert_matches_loop(runs, [result])

    def test_downdating_engines_match_loop(self, forest_runs):
        engine, target, estimate = forest_runs[0]
        engine._factorizations.incremental_limit = 2
        try:
            runs = [(engine, target, estimate)]
            assert_matches_loop(runs, infer_many(runs))
        finally:
            engine._factorizations.incremental_limit = 0

    def test_sees_estimates_mutated_in_place(self):
        """Nothing is keyed on object identity across calls: zeroing an
        estimate's variances in place changes the next call's answer
        exactly as it changes a loop of ``engine.infer``."""
        runs = _forest(3)
        infer_many(runs)
        for _, _, estimate in runs:
            estimate.variances[:] = 0.0
        assert_matches_loop(runs, infer_many(runs))

    def test_full_rank_property_is_cached(self):
        from repro.core.linalg import QRFactorization

        rng = np.random.default_rng(1)
        factorization = QRFactorization.factorize(rng.normal(size=(12, 5)))
        assert "full_rank" not in factorization.__dict__
        assert factorization.full_rank == factorization.is_full_rank()
        assert "full_rank" in factorization.__dict__
