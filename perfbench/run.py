"""Run one benchmark workload in a fresh process and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh-campaign --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A run that has not finished by then is killed and reported as failed.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)], timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
