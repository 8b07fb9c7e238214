"""Trial specifications: the schedulable unit of a Monte-Carlo campaign.

An experiment is a list of independent trials — the cartesian product of
its repetition seeds and its parameter grid.  Each trial is described by
a :class:`TrialSpec` that is (a) fully deterministic (the derived seed is
baked in, never a live RNG) and (b) JSON-canonical, so the same spec can
be hashed into a cache key, pickled to a worker process, and stored next
to its payload on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def canonical_json(value: Any) -> str:
    """Serialise *value* to a canonical (sorted, compact) JSON string."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def json_roundtrip(value: Any):
    """Force *value* through JSON so fresh and cached payloads are identical.

    Trial payloads are memoized as JSON documents; running every payload
    through a serialise/parse cycle — even on a cache miss — guarantees a
    cached re-run returns exactly what the original run returned (tuples
    become lists, int keys become strings) instead of drifting types.
    """
    return json.loads(canonical_json(value))


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial of an experiment campaign.

    ``params`` must contain only JSON-serialisable values (strings,
    numbers, bools, lists, dicts): it is part of the cache identity.
    ``index`` is the trial's position in the experiment's full trial
    list; results are merged back in index order regardless of the order
    in which shards finish.  The index is deliberately *not* part of the
    cache identity — reordering or widening a sweep's grid shifts trial
    positions, and trials whose (seed, params) are unchanged must still
    hit the cache.  Two specs with equal identity describe the same pure
    computation and are interchangeable by construction.

    ``cacheable=False`` marks a trial whose payload is *not* a pure
    function of its identity — wall-clock timing measurements, probes of
    live state — so memoizing it would replay stale numbers.  Such
    trials are executed on every run and their shards never stored; the
    flag is bookkeeping, not identity, so it stays out of ``identity()``.
    """

    experiment: str
    index: int
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    cacheable: bool = True

    def identity(self) -> Dict[str, Any]:
        """The JSON document that defines this trial's cache identity."""
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": json_roundtrip(self.params),
        }

    def key(self) -> str:
        """Stable content hash of the trial identity."""
        digest = hashlib.sha256(canonical_json(self.identity()).encode())
        return digest.hexdigest()


def shard_specs(specs: Sequence[TrialSpec], shard_size: int) -> List[List[TrialSpec]]:
    """Split *specs* into contiguous shards of at most *shard_size* trials.

    Sharding is a pure function of the trial list — never of the worker
    count — so the same campaign always produces the same shards and the
    cache stays valid when ``n_jobs`` changes between runs.
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        list(specs[start : start + shard_size])
        for start in range(0, len(specs), shard_size)
    ]


def shard_key(experiment: str, shard: Sequence[TrialSpec], code_version: str) -> str:
    """Cache key of one shard: experiment + trial identities + code version."""
    document = {
        "experiment": experiment,
        "code_version": code_version,
        "trials": [spec.identity() for spec in shard],
    }
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()
