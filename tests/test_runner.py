"""The parallel sharded runner: determinism, caching, failure paths.

The acceptance bar: a fig5-style campaign run through ``ParallelRunner``
with ``n_jobs=1`` reproduces the sequential harness seed for seed, every
``n_jobs`` value agrees with every other, and a cached re-run skips all
completed shards.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.runner import (
    ParallelRunner,
    ResultView,
    SerialBackend,
    ShardExecutionError,
    TrialSpec,
    available_backends,
    compute_code_version,
    get_backend,
    shard_key,
    shard_specs,
)
from repro.runner.spec import json_roundtrip


def square_trial(spec: TrialSpec) -> dict:
    """Module-level so worker processes can unpickle it by reference."""
    return {"value": spec.seed ** 2, "tag": spec.params.get("tag")}


def fragile_trial(spec: TrialSpec) -> dict:
    if spec.index == 2:
        raise ValueError("probe storm in trial 2")
    return {"ok": spec.index}


def messy_trial(spec: TrialSpec) -> dict:
    # Tuples and int keys: JSON normalisation must canonicalise these.
    return {"pair": (1, 2), "by_m": {10: 0.5}}


def index_trial(spec: TrialSpec) -> dict:
    return {"index": spec.index}


def interrupting_trial(spec: TrialSpec) -> dict:
    raise KeyboardInterrupt


def make_specs(n: int, experiment: str = "unit") -> list:
    return [
        TrialSpec(experiment, i, seed=i + 3, params={"tag": f"t{i % 2}"})
        for i in range(n)
    ]


class TestSpecs:
    def test_key_stable_and_param_sensitive(self):
        a = TrialSpec("e", 0, seed=1, params={"x": 1, "y": [1, 2]})
        b = TrialSpec("e", 0, seed=1, params={"y": [1, 2], "x": 1})
        c = TrialSpec("e", 0, seed=1, params={"x": 2, "y": [1, 2]})
        assert a.key() == b.key()  # dict order is not identity
        assert a.key() != c.key()

    def test_sharding_is_independent_of_jobs(self):
        specs = make_specs(7)
        assert [len(s) for s in shard_specs(specs, 1)] == [1] * 7
        assert [len(s) for s in shard_specs(specs, 3)] == [3, 3, 1]
        with pytest.raises(ValueError):
            shard_specs(specs, 0)

    def test_shard_key_mixes_code_version(self):
        shard = make_specs(2)[:1]
        assert shard_key("e", shard, "v1") != shard_key("e", shard, "v2")

    def test_runner_rejects_bad_indices(self):
        specs = [TrialSpec("e", 0, seed=1), TrialSpec("e", 2, seed=1)]
        with pytest.raises(ValueError, match="0..n-1"):
            ParallelRunner().run("e", square_trial, specs)

    def test_runner_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(n_jobs=0)

    def test_runner_rejects_below_minus_one(self):
        # -1 means "all cores"; other negatives are typos, not requests
        with pytest.raises(ValueError):
            ParallelRunner(n_jobs=-5)
        assert ParallelRunner(n_jobs=-1).n_jobs >= 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_jobs", 2.5),
            ("n_jobs", True),
            ("n_jobs", "2"),
            ("shard_size", 2.5),
            ("shard_size", True),
            ("shard_size", 0),
        ],
    )
    def test_runner_rejects_bad_counts_at_construction(self, name, value):
        # Each of these used to construct, then fail inside run() or run
        # silently as 1.
        with pytest.raises(ValueError, match=name):
            ParallelRunner(**{name: value})

    def test_runner_accepts_numpy_integer_counts(self):
        runner = ParallelRunner(
            n_jobs=np.int64(2), shard_size=np.int32(3), backend="thread"
        )
        assert (runner.n_jobs, runner.shard_size) == (2, 3)
        got = runner.run("unit", square_trial, make_specs(4))
        assert got == ParallelRunner().run("unit", square_trial, make_specs(4))


class TestBackends:
    """The pluggable execution seam: registry + payload identity."""

    def test_registry_lists_builtins(self):
        assert available_backends() == ("process", "serial", "thread")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown execution backend"):
            ParallelRunner(backend="carrier-pigeon")

    def test_default_backend_tracks_n_jobs(self):
        assert ParallelRunner(n_jobs=1).backend.name == "serial"
        assert ParallelRunner(n_jobs=2).backend.name == "process"
        assert ParallelRunner(n_jobs=2, backend="thread").backend.name == "thread"

    def test_every_backend_matches_serial(self):
        specs = make_specs(9)
        expected = ParallelRunner(n_jobs=1).run("unit", square_trial, specs)
        for backend in ("serial", "process", "thread"):
            got = ParallelRunner(n_jobs=3, backend=backend).run(
                "unit", square_trial, specs
            )
            assert got == expected

    def test_thread_backend_crash_carries_traceback(self):
        with pytest.raises(ShardExecutionError, match="probe storm"):
            ParallelRunner(n_jobs=2, backend="thread").run(
                "unit", fragile_trial, make_specs(4)
            )

    def test_serial_backend_chains_original_exception(self):
        # In-process runs keep the live exception as __cause__ (parity
        # with the pre-seam sequential path) so callers can classify it.
        with pytest.raises(ShardExecutionError) as excinfo:
            ParallelRunner(n_jobs=1).run("unit", fragile_trial, make_specs(4))
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_serial_backend_propagates_keyboard_interrupt(self):
        # Ctrl-C during an in-process run is the user talking to the
        # runner, not a trial crash: it must not be swallowed into a
        # ShardExecutionError.
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(n_jobs=1).run(
                "unit", interrupting_trial, make_specs(2)
            )

    def test_register_custom_backend(self):
        # The "write your own backend" contract from the README: one
        # class, passed to the runner as an instance.
        class LoggingBackend(SerialBackend):
            name = "logging"
            seen: list = []

            def run_shards(self, trial_fn, shards):
                self.seen.append(len(shards))
                return super().run_shards(trial_fn, shards)

        specs = make_specs(4)
        runner = ParallelRunner(backend=LoggingBackend())
        got = runner.run("unit", square_trial, specs)
        assert got == ParallelRunner().run("unit", square_trial, specs)
        assert runner.backend.name == "logging"
        assert LoggingBackend.seen == [4]
        with pytest.raises(ValueError):
            get_backend("logging")

    def test_get_backend_takes_no_options(self):
        with pytest.raises(TypeError):
            get_backend("serial", bind="x")

    def test_shared_cache_across_backends(self, tmp_path):
        specs = make_specs(6)
        ParallelRunner(n_jobs=1, cache_dir=tmp_path).run(
            "unit", square_trial, specs
        )
        for backend in ("process", "thread"):
            runner = ParallelRunner(n_jobs=2, backend=backend, cache_dir=tmp_path)
            runner.run("unit", square_trial, specs)
            assert runner.last_stats.shards_executed == 0


class TestResultStore:
    """Streaming spill-to-disk results and the lazy view."""

    def test_view_behaves_like_a_list(self):
        specs = make_specs(5)
        view = ParallelRunner().run("unit", square_trial, specs)
        assert isinstance(view, ResultView)
        assert len(view) == 5
        assert view[0]["value"] == 9
        assert view[-1]["value"] == 49
        assert view[1:3] == [view[1], view[2]]
        assert view.materialize() == list(view)
        with pytest.raises(IndexError):
            view[5]

    def test_jsonl_store_matches_memory(self, tmp_path):
        specs = make_specs(7)
        in_ram = ParallelRunner(n_jobs=1).run("unit", square_trial, specs)
        streamed = ParallelRunner(n_jobs=1, store_dir=tmp_path).run(
            "unit", square_trial, specs
        )
        assert streamed == in_ram
        assert streamed.materialize() == in_ram.materialize()
        (spill,) = tmp_path.glob("unit-*.jsonl")
        records = [json.loads(line) for line in spill.read_text().splitlines()]
        assert sorted(r["index"] for r in records) == list(range(7))

    def test_jsonl_store_under_parallel_backends(self, tmp_path):
        specs = make_specs(8)
        expected = ParallelRunner().run("unit", square_trial, specs)
        for backend in ("process", "thread"):
            store = tmp_path / backend
            got = ParallelRunner(
                n_jobs=3, backend=backend, store_dir=store
            ).run("unit", square_trial, specs)
            assert got == expected

    def test_jsonl_store_with_cache_hits(self, tmp_path):
        specs = make_specs(5)
        cache = tmp_path / "cache"
        first = ParallelRunner(cache_dir=cache).run("unit", square_trial, specs)
        replay = ParallelRunner(cache_dir=cache, store_dir=tmp_path / "store")
        got = replay.run("unit", square_trial, specs)
        assert replay.last_stats.trials_cached == 5
        assert got == first

    def test_close_releases_handles_and_reads_still_work(self, tmp_path):
        specs = make_specs(3)
        view = ParallelRunner(store_dir=tmp_path).run(
            "unit", square_trial, specs
        )
        first = view[0]
        view.close()  # fd released; subsequent reads reopen the file
        assert view[0] == first
        assert view.materialize() == ParallelRunner().run(
            "unit", square_trial, specs
        )
        # memory-backed views accept close() as a no-op
        ParallelRunner().run("unit", square_trial, specs).close()

    def test_empty_run_returns_empty_view(self):
        view = ParallelRunner().run("unit", square_trial, [])
        assert len(view) == 0
        assert view == []


class TestDeterminismAcrossJobs:
    def test_parallel_matches_sequential(self):
        specs = make_specs(9)
        expected = ParallelRunner(n_jobs=1).run("unit", square_trial, specs)
        for n_jobs in (2, 4):
            got = ParallelRunner(n_jobs=n_jobs).run("unit", square_trial, specs)
            assert got == expected
        got = ParallelRunner(n_jobs=2, shard_size=4).run(
            "unit", square_trial, specs
        )
        assert got == expected

    def test_arrival_order_recorded_but_merge_is_index_order(self):
        specs = make_specs(6)
        runner = ParallelRunner(n_jobs=3)
        results = runner.run("unit", square_trial, specs)
        assert [r["value"] for r in results] == [(i + 3) ** 2 for i in range(6)]
        assert sorted(runner.last_stats.arrival_order) == list(range(6))

    def test_payloads_are_json_normalised_without_cache(self):
        (result,) = ParallelRunner().run(
            "unit", messy_trial, [TrialSpec("unit", 0, seed=1)]
        )
        assert result == {"pair": [1, 2], "by_m": {"10": 0.5}}
        assert result == json_roundtrip(result)


class TestShardCache:
    def test_second_run_skips_all_shards(self, tmp_path):
        specs = make_specs(5)
        first = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        a = first.run("unit", square_trial, specs)
        assert first.last_stats.trials_executed == 5

        second = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        b = second.run("unit", square_trial, specs)
        assert b == a
        assert second.last_stats.trials_executed == 0
        assert second.last_stats.trials_cached == 5

    def test_cache_shared_across_jobs_values(self, tmp_path):
        specs = make_specs(6)
        ParallelRunner(n_jobs=1, cache_dir=tmp_path).run(
            "unit", square_trial, specs
        )
        parallel = ParallelRunner(n_jobs=3, cache_dir=tmp_path)
        parallel.run("unit", square_trial, specs)
        assert parallel.last_stats.shards_executed == 0

    def test_overlapping_sweep_reuses_finished_trials(self, tmp_path):
        ParallelRunner(cache_dir=tmp_path).run(
            "unit", square_trial, make_specs(4)
        )
        wider = ParallelRunner(cache_dir=tmp_path)
        wider.run("unit", square_trial, make_specs(7))
        assert wider.last_stats.trials_cached == 4
        assert wider.last_stats.trials_executed == 3

    def test_grid_shift_keeps_cache_hits(self, tmp_path):
        # Widening a sweep shifts trial indices; cached trials whose
        # (seed, params) are unchanged must still hit.
        base = [
            TrialSpec("unit", i, seed=10 + i, params={"v": i}) for i in range(3)
        ]
        ParallelRunner(cache_dir=tmp_path).run("unit", square_trial, base)
        widened = [TrialSpec("unit", 0, seed=99, params={"v": 99})] + [
            TrialSpec("unit", i + 1, seed=10 + i, params={"v": i})
            for i in range(3)
        ]
        runner = ParallelRunner(cache_dir=tmp_path)
        results = runner.run("unit", square_trial, widened)
        assert runner.last_stats.trials_cached == 3
        assert runner.last_stats.trials_executed == 1
        assert [r["value"] for r in results] == [99 ** 2, 100, 121, 144]

    def test_seed_none_trials_are_never_cached(self, tmp_path):
        specs = [TrialSpec("unit", i, seed=None) for i in range(3)]
        for _ in range(2):
            runner = ParallelRunner(cache_dir=tmp_path)
            runner.run("unit", index_trial, specs)
            # fresh random draws by contract: always executed, never stored
            assert runner.last_stats.trials_executed == 3
            assert runner.last_stats.trials_cached == 0
        assert not list(tmp_path.iterdir())

    def test_code_version_change_invalidates(self, tmp_path):
        specs = make_specs(3)
        ParallelRunner(cache_dir=tmp_path, code_version="v1").run(
            "unit", square_trial, specs
        )
        stale = ParallelRunner(cache_dir=tmp_path, code_version="v2")
        stale.run("unit", square_trial, specs)
        assert stale.last_stats.trials_executed == 3

    def test_param_change_invalidates(self, tmp_path):
        ParallelRunner(cache_dir=tmp_path).run(
            "unit", square_trial, make_specs(3)
        )
        changed = [
            TrialSpec("unit", i, seed=i + 3, params={"tag": "other"})
            for i in range(3)
        ]
        runner = ParallelRunner(cache_dir=tmp_path)
        runner.run("unit", square_trial, changed)
        assert runner.last_stats.trials_executed == 3

    def test_truncated_entry_is_a_miss_and_repaired(self, tmp_path):
        # A torn write (killed run, full disk) leaves a JSON prefix; the
        # cache must re-execute the shard, not crash or return garbage.
        specs = make_specs(3)
        ParallelRunner(cache_dir=tmp_path).run("unit", square_trial, specs)
        for entry in (tmp_path / "unit").iterdir():
            text = entry.read_text()
            entry.write_text(text[: len(text) // 2])
        runner = ParallelRunner(cache_dir=tmp_path)
        results = runner.run("unit", square_trial, specs)
        assert runner.last_stats.trials_executed == 3
        assert [r["value"] for r in results] == [9, 16, 25]
        again = ParallelRunner(cache_dir=tmp_path)
        again.run("unit", square_trial, specs)
        assert again.last_stats.trials_executed == 0

    def test_empty_entry_is_a_miss(self, tmp_path):
        specs = make_specs(2)
        ParallelRunner(cache_dir=tmp_path).run("unit", square_trial, specs)
        for entry in (tmp_path / "unit").iterdir():
            entry.write_text("")
        runner = ParallelRunner(cache_dir=tmp_path)
        runner.run("unit", square_trial, specs)
        assert runner.last_stats.trials_executed == 2

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        # Valid JSON that is not a shard document (or disagrees with the
        # shard's trial identities) must be ignored, never trusted.
        specs = make_specs(2)
        ParallelRunner(cache_dir=tmp_path).run("unit", square_trial, specs)
        entries = sorted((tmp_path / "unit").iterdir())
        entries[0].write_text(json.dumps({"format": "alien/9", "payloads": [1]}))
        document = json.loads(entries[1].read_text())
        document["trials"][0]["seed"] = 10_000
        entries[1].write_text(json.dumps(document))
        runner = ParallelRunner(cache_dir=tmp_path)
        results = runner.run("unit", square_trial, specs)
        assert runner.last_stats.trials_executed == 2
        assert [r["value"] for r in results] == [9, 16]

    def test_code_version_hash_tracks_source_content(self, tmp_path):
        # The invalidation key is a content hash: editing any source
        # must change it, touching nothing must not.
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "mod.py").write_text("A = 1\n")
        first = compute_code_version(root=tree)
        assert first == compute_code_version(root=tree)
        (tree / "mod.py").write_text("A = 2\n")
        assert compute_code_version(root=tree) != first
        (tree / "extra.py").write_text("")
        assert compute_code_version(root=tree) not in (first,)

    def test_non_cacheable_trials_never_stored(self, tmp_path):
        specs = [
            TrialSpec("unit", i, seed=i + 3, cacheable=False) for i in range(3)
        ]
        for _ in range(2):
            runner = ParallelRunner(cache_dir=tmp_path)
            runner.run("unit", square_trial, specs)
            assert runner.last_stats.trials_executed == 3
            assert runner.last_stats.trials_cached == 0
        assert not list(tmp_path.iterdir())

    def test_cacheable_flag_is_not_identity(self, tmp_path):
        # cacheable is bookkeeping: flipping it must not re-key the cache.
        a = TrialSpec("unit", 0, seed=1, cacheable=True)
        b = TrialSpec("unit", 0, seed=1, cacheable=False)
        assert a.identity() == b.identity()
        assert a.key() == b.key()

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        specs = make_specs(2)
        ParallelRunner(cache_dir=tmp_path).run("unit", square_trial, specs)
        for entry in (tmp_path / "unit").iterdir():
            entry.write_text("{ not json")
        runner = ParallelRunner(cache_dir=tmp_path)
        results = runner.run("unit", square_trial, specs)
        assert runner.last_stats.trials_executed == 2
        assert [r["value"] for r in results] == [9, 16]
        # repaired entries hit again
        again = ParallelRunner(cache_dir=tmp_path)
        again.run("unit", square_trial, specs)
        assert again.last_stats.trials_executed == 0

    def test_entries_are_valid_json_documents(self, tmp_path):
        ParallelRunner(cache_dir=tmp_path).run(
            "unit", square_trial, make_specs(1)
        )
        (entry,) = (tmp_path / "unit").iterdir()
        document = json.loads(entry.read_text())
        assert document["format"] == "repro-shard/1"
        assert document["experiment"] == "unit"
        assert len(document["payloads"]) == len(document["trials"]) == 1


class TestWorkerFailure:
    def test_sequential_crash_carries_traceback(self):
        with pytest.raises(ShardExecutionError, match="probe storm"):
            ParallelRunner(n_jobs=1).run("unit", fragile_trial, make_specs(4))

    def test_parallel_crash_carries_traceback(self):
        with pytest.raises(ShardExecutionError, match="probe storm"):
            ParallelRunner(n_jobs=2).run("unit", fragile_trial, make_specs(4))

    def test_every_backend_carries_worker_traceback_verbatim(self):
        # The worker-side traceback — file, line, exception text — must
        # survive every transport (in-process, pickle, pool future) and
        # land verbatim in the ShardExecutionError message.
        for backend in ("serial", "process", "thread"):
            with pytest.raises(ShardExecutionError) as excinfo:
                ParallelRunner(n_jobs=2, backend=backend).run(
                    "unit", fragile_trial, make_specs(4)
                )
            error = excinfo.value
            assert "ValueError: probe storm in trial 2" in error.worker_traceback
            assert "Traceback (most recent call last)" in error.worker_traceback
            assert "fragile_trial" in error.worker_traceback
            assert error.worker_traceback in str(error)

    def test_thread_backend_chains_original_exception(self):
        # Threads share the process, so (like serial) the live exception
        # must ride along as __cause__, not be flattened to text.
        with pytest.raises(ShardExecutionError) as excinfo:
            ParallelRunner(n_jobs=2, backend="thread").run(
                "unit", fragile_trial, make_specs(4)
            )
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_process_backend_error_is_text_only(self):
        # Across the process boundary arbitrary exceptions are not
        # guaranteed picklable: text is the contract, __cause__ stays
        # empty.  (Documents the asymmetry rather than hiding it.)
        with pytest.raises(ShardExecutionError) as excinfo:
            ParallelRunner(n_jobs=2, backend="process").run(
                "unit", fragile_trial, make_specs(4)
            )
        assert excinfo.value.__cause__ is None

    def test_failed_shard_is_not_cached(self, tmp_path):
        runner = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        with pytest.raises(ShardExecutionError):
            runner.run("unit", fragile_trial, make_specs(4))
        # trials before the crash were cached; the failed one was not
        retry = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        with pytest.raises(ShardExecutionError):
            retry.run("unit", fragile_trial, make_specs(4))
        assert retry.last_stats.trials_cached == 2

    def test_error_names_backend_and_cache_state(self, tmp_path):
        runner = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run("unit", fragile_trial, make_specs(4))
        error = excinfo.value
        assert error.backend == "serial"
        assert error.cache_dir == str(tmp_path)
        assert error.shards_total == 4
        assert error.shards_completed == 2  # shards 0 and 1 ran and stored
        assert "re-invoke the same command" in str(error)
        assert str(tmp_path) in str(error)

    def test_error_counts_only_persisted_shards(self, tmp_path):
        # Executed-but-never-stored shards (seed=None / cacheable=False)
        # must not be reported as resumable.
        specs = [
            TrialSpec("unit", 0, seed=3, cacheable=False),
            TrialSpec("unit", 1, seed=4, cacheable=False),
            TrialSpec("unit", 2, seed=5),
            TrialSpec("unit", 3, seed=6),
        ]
        runner = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run("unit", fragile_trial, specs)
        # shards 0/1 executed but were not cacheable; nothing persisted
        assert excinfo.value.shards_completed == 0

    def test_error_without_cache_warns_about_rerun(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            ParallelRunner(n_jobs=2).run("unit", fragile_trial, make_specs(4))
        error = excinfo.value
        assert error.backend == "process"
        assert error.cache_dir is None
        assert "no shard cache configured" in str(error)

    def test_crashed_run_is_resumable_by_reinvocation(self, tmp_path):
        # The resume contract the error message promises: after the
        # crash, the same command (same cache) skips every shard that
        # completed and only executes the remainder.
        crashed = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        with pytest.raises(ShardExecutionError):
            crashed.run("unit", fragile_trial, make_specs(4))
        resumed = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        results = resumed.run("unit", index_trial, make_specs(4))
        assert resumed.last_stats.trials_cached == 2
        assert resumed.last_stats.trials_executed == 2
        assert [r["ok"] for r in results[:2]] == [0, 1]


class TestExperimentAcceptance:
    """The ISSUE's acceptance bar, pinned on the real fig5 campaign."""

    @staticmethod
    def fig5_data(runner):
        result = EXPERIMENTS["fig5"](scale="tiny", seed=0, runner=runner)
        return json_roundtrip(
            {
                "lia_dr": {str(m): v for m, v in result.data["lia_dr"].items()},
                "lia_fpr": {str(m): v for m, v in result.data["lia_fpr"].items()},
                "scfs_dr": result.data["scfs_dr"],
                "scfs_fpr": result.data["scfs_fpr"],
            }
        )

    def test_fig5_runner_matches_sequential_and_skips_on_rerun(self, tmp_path):
        sequential = self.fig5_data(runner=None)

        runner = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        assert self.fig5_data(runner) == sequential
        assert runner.last_stats.trials_executed == 2

        rerun = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
        assert self.fig5_data(rerun) == sequential
        assert rerun.last_stats.trials_executed == 0
        assert rerun.last_stats.shards_cached == rerun.last_stats.shards_total

    def test_fig5_parallel_matches_sequential(self):
        assert self.fig5_data(ParallelRunner(n_jobs=2)) == self.fig5_data(None)

    def test_fig5_backends_payload_identical(self):
        # The ISSUE's acceptance bar: thread and process backends are
        # byte-identical to the sequential run.
        sequential = self.fig5_data(ParallelRunner(n_jobs=1))
        for backend in ("thread", "process"):
            got = self.fig5_data(ParallelRunner(n_jobs=2, backend=backend))
            assert got == sequential

    def test_fig5_streamed_store_payload_identical(self, tmp_path):
        sequential = self.fig5_data(ParallelRunner(n_jobs=1))
        streamed = ParallelRunner(n_jobs=1, store_dir=tmp_path)
        assert self.fig5_data(streamed) == sequential
        assert list(tmp_path.glob("fig5-*.jsonl"))

    def test_table2_parallel_matches_sequential(self):
        seq = EXPERIMENTS["table2"](scale="tiny", seed=0)
        par = EXPERIMENTS["table2"](
            scale="tiny", seed=0, runner=ParallelRunner(n_jobs=4)
        )
        for kind in seq.data:
            assert seq.data[kind]["dr"] == par.data[kind]["dr"]
            assert seq.data[kind]["fpr"] == par.data[kind]["fpr"]
