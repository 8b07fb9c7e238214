"""On-disk JSON memoization of completed shards.

A shard's cache entry is one JSON document under
``<cache_dir>/<experiment>/<shard_key>.json`` holding the trial
identities it answers for plus their payloads.  The key mixes in a
*code version* — by default a content hash of the installed ``repro``
sources — so editing the library invalidates every cached result
without any bookkeeping.

Writes are atomic (write to a temp file, then ``os.replace``) so a
killed run never leaves a torn entry behind; a corrupt or unreadable
entry is treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.runner.spec import TrialSpec, canonical_json

CACHE_FORMAT = "repro-shard/1"

_code_version_cache: Optional[str] = None


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def compute_code_version(root: "Optional[os.PathLike]" = None) -> str:
    """Content hash of every ``.py`` file under *root*.

    *root* defaults to the installed ``repro`` package, and that default
    is cached per process: the sources cannot change under a running
    campaign, and hashing ~100 files per shard lookup would dominate
    small trials.  An explicit *root* is hashed fresh every call (tests
    pin the invalidation contract against a scratch tree).
    """
    global _code_version_cache
    if root is not None:
        return _hash_tree(Path(root).resolve())
    if _code_version_cache is None:
        import repro

        # Unlocked on purpose: racing writers compute the same hash.
        _code_version_cache = _hash_tree(Path(repro.__file__).resolve().parent)
    return _code_version_cache


class ShardCache:
    """Load/store shard payload lists keyed by their shard key."""

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.root = Path(cache_dir)

    def _path(self, experiment: str, key: str) -> Path:
        return self.root / experiment / f"{key}.json"

    def load(
        self, experiment: str, key: str, shard: Sequence[TrialSpec]
    ) -> Optional[List[Any]]:
        """Payloads of *shard* if cached and consistent, else ``None``."""
        path = self._path(experiment, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if entry.get("format") != CACHE_FORMAT:
            return None
        payloads = entry.get("payloads")
        trials = entry.get("trials")
        if not isinstance(payloads, list) or len(payloads) != len(shard):
            return None
        if trials != [spec.identity() for spec in shard]:
            return None
        return payloads

    def store(
        self,
        experiment: str,
        key: str,
        shard: Sequence[TrialSpec],
        payloads: Sequence[Any],
        code_version: str,
    ) -> Path:
        """Atomically persist one completed shard; returns the entry path."""
        path = self._path(experiment, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "experiment": experiment,
            "code_version": code_version,
            # Wall clock is fine here: cache-entry metadata, never read
            # back into payloads.
            "created_unix": time.time(),
            "trials": [spec.identity() for spec in shard],
            "payloads": list(payloads),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(entry))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path
