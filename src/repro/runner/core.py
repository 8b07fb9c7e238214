"""The parallel experiment runner.

:class:`ParallelRunner` maps a trial function over a list of
:class:`~repro.runner.spec.TrialSpec`, sharding the list across an
:class:`~repro.runner.backends.ExecutionBackend` and memoizing completed
shards on disk.  Guarantees:

* **Determinism** — every trial's randomness comes from the derived seed
  baked into its spec, and sharding is independent of both the worker
  count and the backend, so ``n_jobs=1`` and ``n_jobs=8``, ``serial``,
  ``process`` and ``thread`` all produce identical payload sequences.
* **Streamed, index-ordered results** — shard payloads are appended to a
  :class:`~repro.runner.store.ResultStore` as workers finish (recorded in
  :attr:`RunnerStats.arrival_order`); :meth:`ParallelRunner.run` returns
  a lazy :class:`~repro.runner.store.ResultView` keyed by each spec's
  ``index``, so callers always see trial order.  With ``store_dir`` the
  store spills to a JSONL file and peak RSS stays flat in trial count.
* **Memoization** — with a ``cache_dir``, completed shards are stored as
  JSON keyed by (experiment, trial identities, code version); re-runs
  and overlapping sweeps skip finished work.  Payloads are forced
  through a JSON round-trip even on a miss, so cached and fresh runs
  return byte-identical structures.  Shards containing ``seed=None``
  trials (fresh random draws by contract) or ``cacheable=False`` trials
  (wall-clock measurements) are executed every time and never stored.
* **Fail-loud workers** — an exception in any trial aborts the run with
  a :class:`ShardExecutionError` naming the backend and the surviving
  cache state, so a crashed run is resumable by re-invoking the same
  command.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

import multiprocessing

from repro.runner.backends import (
    ExecutionBackend,
    TrialFunction,
    get_backend,
)
from repro.runner.cache import ShardCache, compute_code_version
from repro.runner.spec import TrialSpec, shard_key, shard_specs
from repro.runner.store import (
    JsonlResultStore,
    MemoryResultStore,
    ResultStore,
    ResultView,
)


class ShardExecutionError(RuntimeError):
    """A trial raised (or its worker died) while executing a shard.

    Carries enough context to make a crashed campaign resumable: the
    backend that ran the shard, the shard cache directory (if any) and
    how many shards had already been persisted when the run aborted.
    With a cache, re-invoking the *same command* skips every completed
    shard and resumes at the failure.
    """

    def __init__(
        self,
        experiment: str,
        shard_index: int,
        specs: Sequence[TrialSpec],
        worker_traceback: str,
        backend: Optional[str] = None,
        cache_dir: Optional[str] = None,
        shards_completed: int = 0,
        shards_total: int = 0,
    ) -> None:
        self.experiment = experiment
        self.shard_index = shard_index
        self.specs = list(specs)
        self.worker_traceback = worker_traceback
        self.backend = backend
        self.cache_dir = cache_dir
        self.shards_completed = shards_completed
        self.shards_total = shards_total
        indices = [spec.index for spec in self.specs]
        backend_note = f" on backend {backend!r}" if backend else ""
        if cache_dir is not None:
            resume = (
                f"cache state: {shards_completed}/{shards_total} shards "
                f"persisted under {cache_dir} — re-invoke the same command "
                "to resume from there."
            )
        else:
            resume = (
                "no shard cache configured: completed shards will re-execute "
                "on retry (pass --cache-dir to make crashes resumable)."
            )
        super().__init__(
            f"shard {shard_index} of experiment {experiment!r} "
            f"(trials {indices}) failed{backend_note}:\n{worker_traceback}\n"
            f"{resume}"
        )


@dataclass
class RunnerStats:
    """What one :meth:`ParallelRunner.run` call actually did."""

    trials_total: int = 0
    shards_total: int = 0
    shards_executed: int = 0
    shards_cached: int = 0
    #: Executed shards actually written to the cache (excludes
    #: ``seed=None``/``cacheable=False`` shards, which never persist).
    shards_stored: int = 0
    trials_executed: int = 0
    trials_cached: int = 0
    #: Shard indices in the order their results arrived (cache hits first,
    #: then executed shards as workers finished them).
    arrival_order: List[int] = field(default_factory=list)


def default_n_jobs() -> int:
    """Worker count for ``n_jobs=-1``: every core, floor 1."""
    return max(1, os.cpu_count() or 1)


class ParallelRunner:
    """Shard a trial list across an execution backend, with memoization.

    Parameters
    ----------
    n_jobs:
        Worker count; ``1`` (default) executes sequentially in this
        process, ``-1`` uses every core.  Must be an integer.
    cache_dir:
        Directory for the shard cache; ``None`` disables memoization.
    shard_size:
        Trials per shard (default 1: maximal cache granularity), a
        positive integer.  Part of the cache identity — changing it
        re-keys the cache.
    code_version:
        Override the code-version component of cache keys (defaults to
        a content hash of the ``repro`` sources).
    mp_context:
        ``multiprocessing`` start-method name; defaults to ``fork``
        where available (cheap on Linux) and ``spawn`` elsewhere.
        Trial functions must be module-level (picklable) for the
        ``process`` backend.
    backend:
        Execution backend: a registered name (``"serial"``,
        ``"process"``, ``"thread"``) or an
        :class:`~repro.runner.backends.ExecutionBackend` instance (the
        way to run on a backend of your own).
        ``None`` (default) selects ``serial`` for ``n_jobs=1`` and
        ``process`` otherwise — exactly the historical behaviour.
    store_dir:
        When set, shard payloads stream to a JSONL file under this
        directory as workers finish instead of accumulating in RAM;
        :meth:`run` still returns an index-ordered view.  ``None``
        (default) keeps payloads in memory.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        shard_size: int = 1,
        code_version: Optional[str] = None,
        mp_context: Optional[str] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        store_dir: Optional[os.PathLike] = None,
    ) -> None:
        for name, value in (("n_jobs", n_jobs), ("shard_size", shard_size)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if n_jobs == 0 or n_jobs < -1:
            raise ValueError(
                f"n_jobs must be a positive count or -1 (all cores), got {n_jobs}"
            )
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.n_jobs = default_n_jobs() if n_jobs == -1 else n_jobs
        self.cache = ShardCache(cache_dir) if cache_dir is not None else None
        self.cache_dir = cache_dir
        self.shard_size = shard_size
        self._code_version = code_version
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        if backend is None:
            backend = "serial" if self.n_jobs == 1 else "process"
        if isinstance(backend, str):
            backend = get_backend(backend, self.n_jobs, self.mp_context)
        self.backend: ExecutionBackend = backend
        self.store_dir = store_dir
        self.last_stats = RunnerStats()

    @property
    def code_version(self) -> str:
        if self._code_version is None:
            self._code_version = compute_code_version()
        return self._code_version

    # -- execution -----------------------------------------------------------

    def _make_store(self, experiment: str, capacity: int) -> ResultStore:
        if self.store_dir is None:
            return MemoryResultStore(capacity)
        return JsonlResultStore.create(self.store_dir, experiment, capacity)

    def run(
        self,
        experiment: str,
        trial_fn: TrialFunction,
        specs: Sequence[TrialSpec],
    ) -> ResultView:
        """Execute (or recall) every trial; view in spec-index order."""
        specs = list(specs)
        indices = sorted(spec.index for spec in specs)
        if indices != list(range(len(specs))):
            raise ValueError(
                "trial indices must be exactly 0..n-1; got "
                f"{indices[:5]}{'...' if len(indices) > 5 else ''}"
            )
        stats = RunnerStats(trials_total=len(specs))
        self.last_stats = stats
        store = self._make_store(experiment, len(specs))
        if not specs:
            store.finalize()
            return ResultView(store)

        shards = shard_specs(specs, self.shard_size)
        stats.shards_total = len(shards)
        if self.cache is not None:
            keys = [
                shard_key(experiment, shard, self.code_version)
                for shard in shards
            ]
            # A seed=None trial is a fresh random draw by contract;
            # replaying a memoized draw would silently correlate
            # "independent" re-runs.  A cacheable=False trial measures
            # wall-clock state; replaying it would report stale numbers.
            # Neither kind of shard is ever stored.
            cacheable = [
                all(
                    spec.seed is not None and spec.cacheable for spec in shard
                )
                for shard in shards
            ]
        else:  # keys are only cache identities; skip source hashing entirely
            keys = [None] * len(shards)
            cacheable = [False] * len(shards)

        pending: List[int] = []
        for shard_index, (shard, key) in enumerate(zip(shards, keys)):
            cached = (
                self.cache.load(experiment, key, shard)
                if cacheable[shard_index]
                else None
            )
            if cached is not None:
                self._merge(store, shard, cached)
                stats.shards_cached += 1
                stats.trials_cached += len(shard)
                stats.arrival_order.append(shard_index)
            else:
                pending.append(shard_index)

        try:
            if pending:
                jobs = [(i, shards[i]) for i in pending]
                for shard_index, outcome in self.backend.run_shards(
                    trial_fn, jobs
                ):
                    if outcome[0] == "error":
                        cause = outcome[2] if len(outcome) > 2 else None
                        raise ShardExecutionError(
                            experiment,
                            shard_index,
                            shards[shard_index],
                            outcome[1],
                            backend=self.backend.name,
                            cache_dir=(
                                os.fspath(self.cache_dir)
                                if self.cache_dir is not None
                                else None
                            ),
                            # Only shards that actually persist count as
                            # resumable: cache hits were already on disk,
                            # stored shards just got there.  Executed but
                            # non-cacheable shards re-run on retry.
                            shards_completed=stats.shards_cached
                            + stats.shards_stored,
                            shards_total=stats.shards_total,
                        ) from cause
                    self._finish_shard(
                        experiment, shards, keys, cacheable, shard_index,
                        outcome[1], store, stats,
                    )
        finally:
            store.finalize()
        return ResultView(store)

    def _finish_shard(
        self,
        experiment: str,
        shards: List[List[TrialSpec]],
        keys: List[Optional[str]],
        cacheable: List[bool],
        shard_index: int,
        payloads: List[Any],
        store: ResultStore,
        stats: RunnerStats,
    ) -> None:
        self._merge(store, shards[shard_index], payloads)
        stats.shards_executed += 1
        stats.trials_executed += len(shards[shard_index])
        stats.arrival_order.append(shard_index)
        if cacheable[shard_index]:
            self.cache.store(
                experiment,
                keys[shard_index],
                shards[shard_index],
                payloads,
                self.code_version,
            )
            stats.shards_stored += 1

    @staticmethod
    def _merge(
        store: ResultStore, shard: Sequence[TrialSpec], payloads: Sequence[Any]
    ) -> None:
        if len(payloads) != len(shard):
            raise ValueError(
                f"shard returned {len(payloads)} payloads for {len(shard)} trials"
            )
        for spec, payload in zip(shard, payloads):
            store.put(spec.index, payload)
