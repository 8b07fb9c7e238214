"""The simulator's heap-based event scheduler, which also owns time.

Discrete-event core of :mod:`repro.netsim.sim`.  There is no separate
clock object: :attr:`EventScheduler.now` is the simulation time, a
plain float the scheduler advances as it pops ``(time, sequence,
callback, args)`` entries off a binary heap.  Two design rules make
whole simulations bit-reproducible:

* **Tie-breaking is total.**  Events scheduled for the same instant fire
  in *scheduling* order — the heap key is ``(time, sequence)`` where
  ``sequence`` is a per-scheduler counter drawn when the event is
  pushed, never the (non-deterministic) identity of the callback.
* **Time never runs backwards.**  Scheduling an event before ``now`` (or
  at NaN, which would silently break heap order) raises instead of
  reordering history, and dispatch re-checks every popped time.

Time is unit-agnostic; :mod:`repro.netsim.sim` measures it in *probe
slots* (one slot = one probe inter-departure interval).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Tuple


class EventScheduler:
    """A heap of timestamped callbacks with deterministic tie-breaking."""

    __slots__ = ("now", "_heap", "_sequence", "events_dispatched")

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulation time; advanced by :meth:`run_until` only.
        self.now = float(start)
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = count()
        self.events_dispatched = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute float *time*.

        The callback receives no time argument; read ``scheduler.now``
        inside it (it equals *time* by dispatch).
        """
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time}: scheduler already at {self.now}"
            )
        heappush(self._heap, (time, next(self._sequence), callback, args))

    def run_until(self, horizon: float) -> None:
        """Dispatch events in ``(time, sequence)`` order up to *horizon*.

        Events stamped exactly at the horizon still fire; anything later
        stays queued (the heap is reusable, though :mod:`repro.netsim.sim`
        builds a fresh scheduler per snapshot).  A finite horizon leaves
        ``now`` at the horizon; a NaN one, or one before ``now``, raises.
        """
        if not horizon >= self.now:
            raise ValueError(
                f"cannot run until {horizon}: scheduler already at {self.now}"
            )
        heap = self._heap
        pop = heappop
        now = self.now
        dispatched = 0
        try:
            while heap and heap[0][0] <= horizon:
                time, _, callback, args = pop(heap)
                if time < now:
                    raise ValueError(
                        f"time cannot run backwards: at {now}, popped {time}"
                    )
                self.now = now = time
                dispatched += 1
                callback(*args)
        finally:
            self.events_dispatched += dispatched
        if horizon != float("inf"):
            self.now = horizon

    def run_until_idle(self) -> None:
        """Dispatch until no events remain."""
        self.run_until(float("inf"))
