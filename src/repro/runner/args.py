"""Argparse glue for the runner knobs of ``repro experiments``.

:func:`add_runner_arguments` attaches the ``--jobs``/``--backend``/
``--cache-dir``/``--shard-size``/``--store-dir`` flags (plus the
``remote`` backend's ``--workers``/``--remote-workers``/``--bind``) with
parse-time validation; :func:`runner_from_args` turns the parsed flags
into a :class:`ParallelRunner`.
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


def _workers_spec(value: str) -> str:
    if not value.strip():
        raise argparse.ArgumentTypeError("must name at least one worker")
    return value


def _positive(value: str) -> int:
    count = int(value)
    if count <= 0:
        raise argparse.ArgumentTypeError("must be a positive count")
    return count


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
    parser.add_argument(
        "--workers",
        type=_workers_spec,
        default=None,
        help=(
            "[remote backend] expected externally-started `repro worker` "
            "fleet: a count or comma-separated worker names; the run waits "
            "for that many handshakes before dispatching"
        ),
    )
    parser.add_argument(
        "--remote-workers",
        type=_positive,
        default=None,
        help=(
            "[remote backend] auto-spawn this many `repro worker` "
            "subprocesses on localhost (turnkey single-machine mode)"
        ),
    )
    parser.add_argument(
        "--bind",
        default=None,
        help=(
            "[remote backend] coordinator listen address host:port "
            "(default: 127.0.0.1:0 when auto-spawning, 0.0.0.0:7787 when "
            "waiting for an external fleet)"
        ),
    )


def runner_from_args(args: argparse.Namespace) -> ParallelRunner:
    """The :class:`ParallelRunner` the parsed runner flags describe.

    ``--backend`` unset defers to the runner's default: ``serial`` for
    ``--jobs 1``, ``process`` otherwise.  The ``remote``-only flags
    become that backend's factory options and are rejected with any
    other backend.
    """
    options = {
        "workers": args.workers,
        "spawn_workers": args.remote_workers,
        "bind": args.bind,
    }
    options = {key: value for key, value in options.items() if value is not None}
    if options and args.backend != "remote":
        raise ValueError(
            "--workers/--remote-workers/--bind require --backend remote"
        )
    return ParallelRunner(
        n_jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        shard_size=args.shard_size,
        store_dir=args.store_dir,
        backend_options=options or None,
    )
