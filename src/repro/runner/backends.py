"""Pluggable execution backends for the sharded runner.

:class:`ParallelRunner` decides *what* to run (sharding, cache lookups,
result merging); an :class:`ExecutionBackend` decides *where and how*
shards execute.  The seam is one generator method::

    run_shards(trial_fn, shards) -> iterator of (shard_index, outcome)

where ``shards`` is a sequence of ``(shard_index, [TrialSpec, ...])``
jobs and each ``outcome`` is either ``("ok", payloads)`` — the shard's
JSON-normalised payload list, one entry per spec, in spec order — or
``("error", traceback_text)`` when any trial raised.  Outcomes may be
yielded in *any* order (the runner merges by ``spec.index``), and must
be yielded **as shards finish** so the runner can stream payloads to its
result store and memoize completed shards before later ones run.

Three backends ship in-tree, selected by name from one constant registry
(the ``--backend`` choices):

``serial``
    In-process, in-order execution — the ``n_jobs=1`` path.  No pool,
    no pickling: it *is* the sequential runner.
``process``
    A ``ProcessPoolExecutor`` over ``n_jobs`` workers.  Trial functions
    must be module-level (picklable).
``thread``
    A ``ThreadPoolExecutor`` over ``n_jobs`` workers.  Worth choosing
    when trials spend their time in NumPy/SciPy/BLAS kernels that
    release the GIL: threads share the process (no pickling, shared
    read-only caches) at near-process parallelism.

Writing a backend of your own (SSH, cluster scheduler, job queue) means
implementing exactly one class: ship each shard's ``TrialSpec`` list to a
worker (specs are JSON-canonical by construction — see
``TrialSpec.identity``), run ``execute_shard`` there, and yield
``(shard_index, ("ok", payloads))`` as results come back.  Pass an
instance as ``ParallelRunner(backend=...)`` and every experiment and
scenario can run on it; the shard cache and the streaming result store
keep working unchanged because they live runner-side.
"""

from __future__ import annotations

import traceback
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import multiprocessing

from repro.runner.spec import TrialSpec, json_roundtrip

TrialFunction = Callable[[TrialSpec], Any]
#: ``("ok", payloads)`` or ``("error", traceback_text)``.  In-process
#: backends may append the live exception — ``("error", text, exc)`` —
#: so the runner can chain it as the ``ShardExecutionError.__cause__``;
#: backends whose errors cross a process/network boundary ship text only.
ShardOutcome = Tuple[str, Any]
#: One unit of backend work: ``(shard_index, specs)``.
ShardJob = Tuple[int, List[TrialSpec]]


def execute_shard(trial_fn: TrialFunction, shard: Sequence[TrialSpec]) -> List[Any]:
    """Run every trial of a shard; payloads are JSON-normalised."""
    return [json_roundtrip(trial_fn(spec)) for spec in shard]


def shard_worker(args: "Tuple[TrialFunction, List[TrialSpec]]") -> ShardOutcome:
    """Worker entry point: capture the traceback instead of pickling errors."""
    trial_fn, shard = args
    try:
        return ("ok", execute_shard(trial_fn, shard))
    except BaseException:
        return ("error", traceback.format_exc())


def shard_worker_inprocess(
    args: "Tuple[TrialFunction, List[TrialSpec]]",
) -> ShardOutcome:
    """Thread-pool entry point: the exception never leaves the process,
    so the live object rides along with its traceback text and the
    runner can chain it as ``ShardExecutionError.__cause__`` — the same
    contract the serial backend honours.  (The process-pool worker above
    cannot: arbitrary exceptions are not guaranteed picklable.)"""
    trial_fn, shard = args
    try:
        return ("ok", execute_shard(trial_fn, shard))
    except BaseException as error:
        return ("error", traceback.format_exc(), error)


class ExecutionBackend(ABC):
    """Where shards run.  Subclass and pass an instance to the runner."""

    #: Registry key and the name failure reports blame.
    name: str = "?"

    @abstractmethod
    def run_shards(
        self, trial_fn: TrialFunction, shards: Sequence[ShardJob]
    ) -> Iterator[Tuple[int, ShardOutcome]]:
        """Yield ``(shard_index, outcome)`` as shards finish."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution (the historical ``n_jobs=1`` path)."""

    name = "serial"

    def __init__(self, n_jobs: int = 1, mp_context: Optional[str] = None) -> None:
        # Accepted for factory uniformity; serial execution ignores both.
        del n_jobs, mp_context

    def run_shards(self, trial_fn, shards):
        for shard_index, shard in shards:
            # Unlike pool workers (which must capture everything — the
            # exception cannot cross the process boundary), in-process
            # execution lets KeyboardInterrupt/SystemExit propagate: a
            # Ctrl-C is the user talking to the runner, not a trial crash.
            try:
                yield shard_index, ("ok", execute_shard(trial_fn, shard))
            except Exception as error:
                # In-process, the live exception survives: attach it so
                # the runner's ShardExecutionError chains it as __cause__
                # (parity with the pre-seam sequential path).
                yield shard_index, ("error", traceback.format_exc(), error)


class _PoolBackend(ExecutionBackend):
    """Shared submit/drain loop of the executor-pool backends."""

    #: Pool entry point; in-process pools use the exception-attaching one.
    worker = staticmethod(shard_worker)

    def __init__(self, n_jobs: int = 1, mp_context: Optional[str] = None) -> None:
        self.n_jobs = max(1, n_jobs)
        self.mp_context = mp_context

    def _make_executor(self, max_workers: int) -> Executor:
        raise NotImplementedError

    def run_shards(self, trial_fn, shards):
        if not shards:
            return
        workers = min(self.n_jobs, len(shards))
        with self._make_executor(workers) as pool:
            futures: Dict[Any, int] = {
                pool.submit(self.worker, (trial_fn, shard)): shard_index
                for shard_index, shard in shards
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                # Drain in shard order within each completion batch so
                # arrival bookkeeping is reproducible across runs.
                for future in sorted(done, key=lambda f: futures[f]):
                    # pop: a drained future (and the payload list pinned
                    # by its result) must be GC-able immediately, or the
                    # pool backends would retain every payload until the
                    # run ends and defeat the streaming store's flat RSS.
                    shard_index = futures.pop(future)
                    error = future.exception()
                    if error is not None:  # pool breakage, not a trial error
                        text = "".join(
                            traceback.format_exception(
                                type(error), error, error.__traceback__
                            )
                        )
                        # The exception object lives in this process
                        # (futures surface it locally), so chain it.
                        yield shard_index, ("error", text, error)
                    else:
                        yield shard_index, future.result()


class ProcessBackend(_PoolBackend):
    """``ProcessPoolExecutor`` workers; trial functions must pickle."""

    name = "process"

    def _make_executor(self, max_workers: int) -> Executor:
        context = multiprocessing.get_context(self.mp_context)
        return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)


class ThreadBackend(_PoolBackend):
    """``ThreadPoolExecutor`` workers for GIL-releasing (BLAS-bound) trials."""

    name = "thread"
    # Threads share the process: keep the live exception so the runner
    # can chain it, instead of flattening it to text like `process` must.
    worker = staticmethod(shard_worker_inprocess)

    def _make_executor(self, max_workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=max_workers)


# -- registry ------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    ThreadBackend.name: ThreadBackend,
}


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(
    name: str, n_jobs: int = 1, mp_context: Optional[str] = None
) -> ExecutionBackend:
    """Build the backend registered under *name*."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory(n_jobs=n_jobs, mp_context=mp_context)
