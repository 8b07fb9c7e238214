#!/usr/bin/env python
"""Compare two JSONL result stores trial by trial.

The runner's determinism contract says payloads are seed-for-seed
identical across execution backends; this script checks it on disk.
Each argument is a ``--store-dir`` spill file (or a directory holding
exactly one, or one per ``--experiment`` prefix).  Records are matched
by trial ``index`` — *arrival* order legitimately differs between
backends, so the files are compared as maps, not byte streams — and
each payload must match byte for byte after canonical re-encoding.

Usage::

    python scripts/diff_result_stores.py /tmp/store-serial /tmp/store-thread \
        [--experiment fig5]

Exit status: 0 when every trial payload matches, 1 on any difference,
2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def resolve_store(path_text: str, experiment: "str | None") -> Path:
    path = Path(path_text)
    if path.is_file():
        return path
    if path.is_dir():
        pattern = f"{experiment}-*.jsonl" if experiment else "*.jsonl"
        matches = sorted(path.glob(pattern))
        if len(matches) == 1:
            return matches[0]
        reason = "no" if not matches else f"{len(matches)}"
        print(
            f"error: {path} holds {reason} stores matching {pattern!r}; "
            "pass the file directly or use --experiment",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print(f"error: {path} does not exist", file=sys.stderr)
    raise SystemExit(2)


def load_store(path: Path) -> "dict[int, str]":
    payloads: "dict[int, str]" = {}
    line_number = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                record = json.loads(line)
                payloads[int(record["index"])] = canonical(record["payload"])
    except (OSError, ValueError, KeyError) as error:
        print(
            f"error: {path}:{line_number}: not a result store ({error})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return payloads


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", help="store file or --store-dir directory")
    parser.add_argument("right", help="store file or --store-dir directory")
    parser.add_argument(
        "--experiment",
        default=None,
        help="experiment prefix selecting the store inside a directory",
    )
    args = parser.parse_args(argv)

    left_path = resolve_store(args.left, args.experiment)
    right_path = resolve_store(args.right, args.experiment)
    left = load_store(left_path)
    right = load_store(right_path)

    failures = 0
    for index in sorted(set(left) | set(right)):
        if index not in left:
            print(f"trial {index}: only in {right_path}")
        elif index not in right:
            print(f"trial {index}: only in {left_path}")
        elif left[index] != right[index]:
            print(f"trial {index}: payloads differ")
            print(f"  {left_path}: {left[index][:200]}")
            print(f"  {right_path}: {right[index][:200]}")
        else:
            continue
        failures += 1

    if failures:
        print(f"FAIL: {failures} of {len(set(left) | set(right))} trials differ")
        return 1
    print(
        f"OK: {len(left)} trial payloads identical "
        f"({left_path.name} vs {right_path.name})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
