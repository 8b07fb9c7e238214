"""Parallel sharded execution of Monte-Carlo experiment campaigns.

The paper's evaluation is a pile of independent (topology seed x
loss-model x parameter) trials; this package schedules them.  See
:class:`ParallelRunner` for the execution/caching contract,
:class:`~repro.runner.spec.TrialSpec` for the unit of work,
:mod:`repro.runner.backends` for the pluggable execution seam
(serial/process/thread by name, or any :class:`ExecutionBackend`
instance) and :mod:`repro.runner.store` for the streaming result store
that keeps larger-than-memory campaigns on disk.
"""

from repro.runner.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.runner.cache import ShardCache, compute_code_version
from repro.runner.core import (
    ParallelRunner,
    RunnerStats,
    ShardExecutionError,
    default_n_jobs,
)
from repro.runner.spec import TrialSpec, shard_key, shard_specs
from repro.runner.store import (
    JsonlResultStore,
    MemoryResultStore,
    ResultStore,
    ResultView,
)

__all__ = [
    "ExecutionBackend",
    "JsonlResultStore",
    "MemoryResultStore",
    "ParallelRunner",
    "ProcessBackend",
    "ResultStore",
    "ResultView",
    "RunnerStats",
    "SerialBackend",
    "ShardCache",
    "ShardExecutionError",
    "ThreadBackend",
    "TrialSpec",
    "available_backends",
    "compute_code_version",
    "default_n_jobs",
    "get_backend",
    "shard_key",
    "shard_specs",
]
