"""Result stores: where finished trial payloads live during a campaign.

The historical runner merged every shard's payloads into one in-RAM
list, so a campaign's memory footprint grew linearly with its trial
count times payload size — the blocker for paper-scale grids.  A
:class:`ResultStore` makes that policy pluggable:

* :class:`MemoryResultStore` — the in-RAM list, still the default.
* :class:`JsonlResultStore` — spill-to-disk: each payload is appended
  to a JSONL file the moment its shard finishes, and only an
  ``index -> byte offset`` table (8 bytes per trial) stays resident.
  Peak RSS is flat in the trial count; reading back is one seek per
  payload.

:meth:`ParallelRunner.run` returns a :class:`ResultView` over whichever
store it used: a lazy, index-ordered, read-only sequence.  Iterating it
streams one payload at a time (experiment aggregators fold it in a
single pass); ``materialize()`` snaps the whole campaign into a list
for small grids.  Payloads are JSON-normalised before they reach a
store, so memory-backed and disk-backed runs return byte-identical
structures.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence as SequenceABC
from pathlib import Path
from typing import Any, Iterator, List, Optional

from repro.runner.spec import canonical_json

_MISSING = object()


class ResultStore:
    """Index-addressed storage for one campaign's trial payloads."""

    def put(self, index: int, payload: Any) -> None:
        raise NotImplementedError

    def get(self, index: int) -> Any:
        raise NotImplementedError

    def finalize(self) -> None:
        """Flush/close write-side resources; the store stays readable."""

    @property
    def capacity(self) -> int:
        raise NotImplementedError


class MemoryResultStore(ResultStore):
    """Everything in one RAM list — the historical merge behaviour."""

    def __init__(self, capacity: int) -> None:
        self._payloads: List[Any] = [_MISSING] * capacity

    @property
    def capacity(self) -> int:
        return len(self._payloads)

    def put(self, index: int, payload: Any) -> None:
        self._payloads[index] = payload

    def get(self, index: int) -> Any:
        payload = self._payloads[index]
        if payload is _MISSING:
            raise KeyError(f"trial {index} has no stored payload")
        return payload


class JsonlResultStore(ResultStore):
    """Append payloads to a JSONL file as shards finish.

    One line per trial — ``{"index": i, "payload": ...}`` in *arrival*
    order — plus an in-memory offset table for index-ordered reads.
    Writes are flushed per shard batch boundary (every ``put``), so a
    reader opened on the same path sees every stored payload.
    """

    def __init__(self, path: os.PathLike, capacity: int) -> None:
        self.path = Path(path)
        self._offsets: List[Optional[int]] = [None] * capacity
        self._write = open(self.path, "a", encoding="utf-8")
        self._read = None

    @classmethod
    def create(
        cls, store_dir: os.PathLike, experiment: str, capacity: int
    ) -> "JsonlResultStore":
        """A fresh store file under *store_dir* for one ``run()`` call.

        Each ``run()`` gets its own spill file — it *is* that run's
        result set, and the returned view stays valid however many runs
        follow.  Spill files are never reused or cleaned up by the
        runner (delete them freely once the view is done); replays and
        crash resume go through the shard *cache*, which stores shards
        by identity, not through the store.
        """
        root = Path(store_dir)
        root.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(
            dir=root, prefix=f"{experiment}-", suffix=".jsonl"
        )
        os.close(fd)
        return cls(name, capacity)

    @property
    def capacity(self) -> int:
        return len(self._offsets)

    def put(self, index: int, payload: Any) -> None:
        # This re-serializes a payload the shard path already JSON
        # round-tripped (its byte-identity guarantee).  Deliberate: the
        # backend seam ships Python objects, not encoded text — a process
        # backend pickles them — so the store owns its encoding at the
        # cost of one extra dumps per payload on the spill path.
        if self._write is None:
            raise ValueError("store is finalized; no further writes")
        offset = self._write.tell()
        self._write.write(
            canonical_json({"index": index, "payload": payload}) + "\n"
        )
        self._write.flush()
        self._offsets[index] = offset

    def get(self, index: int) -> Any:
        offset = self._offsets[index]
        if offset is None:
            raise KeyError(f"trial {index} has no stored payload")
        if self._read is None:
            self._read = open(self.path, "r", encoding="utf-8")
        self._read.seek(offset)
        record = json.loads(self._read.readline())
        return record["payload"]

    def finalize(self) -> None:
        if self._write is not None:
            self._write.close()
            self._write = None

    def close(self) -> None:
        """Release both handles; reads after close reopen the file."""
        self.finalize()
        if self._read is not None:
            self._read.close()
            self._read = None


class ResultView(SequenceABC):
    """Lazy, index-ordered, read-only view over a :class:`ResultStore`.

    Behaves like the payload list the runner used to return — indexing,
    slicing, iteration, ``len``, equality against any sequence — but
    reads each payload from the backing store on demand, so a
    disk-backed campaign never has to fit in RAM.  ``materialize()``
    snaps it into a real list when the grid is small enough to hold.
    """

    def __init__(self, store: ResultStore) -> None:
        self._store = store

    @property
    def store(self) -> ResultStore:
        return self._store

    def __len__(self) -> int:
        return self._store.capacity

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store.get(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"trial index {index} out of range")
        return self._store.get(index)

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self._store.get(i)

    def materialize(self) -> List[Any]:
        """The whole campaign as one in-RAM list (small grids only)."""
        return list(self)

    def close(self) -> None:
        """Release the store's file handles (disk-backed stores only).

        Reading again after close transparently reopens the spill file;
        long-lived processes juggling many campaigns call this to keep
        their fd count flat instead of waiting on garbage collection.
        """
        close = getattr(self._store, "close", None)
        if close is not None:
            close()

    def __eq__(self, other) -> bool:
        # Pairwise streaming comparison: neither side is materialized,
        # so two disk-backed campaigns compare in O(1) memory.
        if not isinstance(other, (ResultView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # mutable-ish view; never a dict key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResultView of {len(self)} payloads "
            f"via {type(self._store).__name__}>"
        )
