"""A store-and-forward link with a finite FIFO and drop-on-overflow.

The congestion mechanism of the whole subsystem lives here: a
:class:`SimLink` services queued packets one at a time at ``rate``
service-units per slot, holds at most ``buffer`` packets (including the
one in service), and *drops any arrival that finds the buffer full*.
Nothing ever samples a loss probability — a packet is lost if and only
if the queue it needed was full, so losses are bursty, correlated
across the flows sharing the queue, and coupled across links by the
multi-hop flows traversing them (exactly the congestion regime the
analytic Gilbert/Bernoulli processes cannot produce).

A FIFO with a fixed rate knows each packet's departure time ``d`` when
the packet is enqueued: the last pending departure (or ``now`` when
none is pending) plus ``size / rate``.  So the link keeps only the
pending departure times and schedules no service completions.  After
departure a packet propagates for ``delay`` slots: its arrival at the
next hop is scheduled at ``d + delay`` right away, and on its last hop
it is delivered to the simulator's sink at enqueue, with the future
delivery time.  Both terminal outcomes are reported through callbacks
so hosts can run congestion control on them.

*Local sources* (a probe tap, a single-link host that ignores feedback)
reach no other link, so the link fires them itself, off the heap, in
time order before it admits an arrival or reports its queue.  Tie rule:
sources fire before an arrival at their instant, and among themselves
in the order added (the simulator adds a link's tap before its driver).
They are not events, so ``run_until_idle()`` leaves them unfired past
the last event; ``run_until(t)`` and then reading the queue fires them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.netsim.sim.clock import EventScheduler
from repro.utils import check_count, check_real
from repro.netsim.sim.packet import Packet

#: ``on_drop(packet, link, now)`` — arrival found the buffer full.
DropCallback = Callable[[Packet, "SimLink", float], None]
#: ``on_deliver(packet, time)`` — packet left its last hop at *time*,
#: which is called at enqueue and so may be later than ``scheduler.now``.
DeliverCallback = Callable[[Packet, float], None]


class SimLink:
    """One directed link: rate, propagation delay, finite FIFO buffer."""

    __slots__ = (
        "index",
        "rate",
        "delay",
        "buffer",
        "scheduler",
        "on_drop",
        "on_deliver",
        "_departures",
        "_local",
        "_local_next",
        "arrivals",
        "drops",
    )

    def __init__(
        self,
        index: int,
        rate: float,
        delay: float,
        buffer: int,
        scheduler: EventScheduler,
        on_drop: Optional[DropCallback] = None,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        if check_real("rate", rate) <= 0:
            raise ValueError(f"link rate must be positive, got {rate}")
        if check_real("delay", delay) < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay}")
        if check_count("buffer", buffer) < 1:
            raise ValueError(f"buffer must hold at least one packet, got {buffer}")
        self.index = index
        self.rate = float(rate)
        self.delay = float(delay)
        self.buffer = int(buffer)
        self.scheduler = scheduler
        self.on_drop = on_drop
        self.on_deliver = on_deliver
        #: Departure times of accepted packets, ascending; entries at or
        #: before ``now`` have left and are popped by the next arrival.
        self._departures: Deque[float] = deque()
        self._local: List = []  # local sources, in the order added
        self._local_next = math.inf
        self.arrivals = 0
        self.drops = 0

    # -- queue state -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Packets currently held (waiting plus in service)."""
        now = self.scheduler.now
        self.fire_local(now)
        return sum(1 for departure in self._departures if departure > now)

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.buffer

    @property
    def served(self) -> int:
        """Packets that have departed by ``scheduler.now``."""
        occupancy = self.occupancy  # fires the due local sources first
        return self.arrivals - self.drops - occupancy

    # -- the FIFO --------------------------------------------------------------

    def admit(self, now: float, size: float) -> Optional[float]:
        """The departure time of a *size* arrival at *now*; ``None`` if dropped.

        Departures at or before ``now`` have left the queue first, so an
        arrival at the very instant of a departure sees the freed slot.
        The arrival is dropped when ``buffer`` departures are still
        pending.  Local sources send through here alone.
        """
        self.arrivals += 1
        departures = self._departures
        while departures and departures[0] <= now:
            departures.popleft()
        if len(departures) >= self.buffer:
            self.drops += 1
            return None
        departure = (departures[-1] if departures else now) + size / self.rate
        departures.append(departure)
        return departure

    def enqueue(self, packet: Packet) -> bool:
        """Accept *packet* (``True``) or drop it on overflow (``False``).

        The local sources due by ``now`` fire first.  An accepted packet's
        arrival at the next hop is scheduled, or, on its last hop, it is
        delivered at once with the future delivery time.
        """
        scheduler = self.scheduler
        now = scheduler.now
        if self._local_next <= now:
            self.fire_local(now)
        departure = self.admit(now, packet.size)
        if departure is None:
            if self.on_drop is not None:
                self.on_drop(packet, self, now)
            return False
        arrival = departure + self.delay
        hop = packet.hop + 1
        route = packet.route
        if hop == len(route):
            packet.delivered_at = arrival
            if self.on_deliver is not None:
                self.on_deliver(packet, arrival)
        else:
            packet.hop = hop
            scheduler.schedule(arrival, route[hop].enqueue, packet)
        return True

    # -- local sources ---------------------------------------------------------

    def add_local(self, source) -> None:
        """Fire *source* from here: its ``fire()`` sends at ``next_time``
        through :meth:`admit` and advances it (``inf`` once done)."""
        self._local.append(source)
        self._local_next = min(self._local_next, source.next_time)

    def fire_local(self, until: float) -> None:
        """Fire the local sources due by *until* in time order, ties in add order."""
        local = self._local
        due = self._local_next
        while due <= until and due != math.inf:
            source = min(local, key=lambda s: s.next_time)  # the first added on a tie
            ahead = min([s.next_time for s in local if s is not source], default=math.inf)
            source.fire()  # and again while strictly ahead of the others
            while source.next_time < ahead and source.next_time <= until:
                source.fire()
            due = min(source.next_time, ahead)
        self._local_next = due
