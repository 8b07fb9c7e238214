"""Argparse glue for the runner knobs of ``repro experiments``.

:func:`add_runner_arguments` attaches the ``--jobs``/``--backend``/
``--cache-dir``/``--shard-size``/``--store-dir`` flags with parse-time
validation; :func:`runner_from_args` turns the parsed flags into a
:class:`ParallelRunner`.
"""

from __future__ import annotations

import argparse
import os

from repro.runner.backends import available_backends
from repro.runner.core import ParallelRunner


def _jobs(value: str) -> int:
    jobs = int(value)
    if jobs == 0 or jobs < -1:
        raise argparse.ArgumentTypeError(
            "must be a positive count or -1 (all cores)"
        )
    return jobs


def _shard_size(value: str) -> int:
    size = int(value)
    if size <= 0:
        raise argparse.ArgumentTypeError("must be a positive trial count")
    return size


def _dir_path(value: str) -> str:
    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the runner knobs to *parser*."""
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker count (1 = sequential, -1 = all cores)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=(
            "execution backend (default: serial for --jobs 1, process "
            "otherwise; thread suits BLAS-bound trials that release the GIL)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=_dir_path,
        default=None,
        help="directory for the shard result cache (default: no caching)",
    )
    parser.add_argument(
        "--shard-size",
        type=_shard_size,
        default=1,
        help="trials per shard / cache entry (default 1)",
    )
    parser.add_argument(
        "--store-dir",
        type=_dir_path,
        default=None,
        help=(
            "stream shard payloads to a JSONL file under this directory as "
            "workers finish instead of holding them in RAM (default: in-RAM)"
        ),
    )


def runner_from_args(args: argparse.Namespace) -> ParallelRunner:
    """The :class:`ParallelRunner` the parsed runner flags describe.

    ``--backend`` unset defers to the runner's default: ``serial`` for
    ``--jobs 1``, ``process`` otherwise.
    """
    return ParallelRunner(
        n_jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        shard_size=args.shard_size,
        store_dir=args.store_dir,
    )
