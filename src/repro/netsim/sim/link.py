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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import check_count, check_real
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
        self.arrivals = 0
        self.drops = 0

    # -- queue state -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Packets currently held (waiting plus in service)."""
        now = self.scheduler.now
        return sum(1 for departure in self._departures if departure > now)

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.buffer

    @property
    def served(self) -> int:
        """Packets that have departed by ``scheduler.now``."""
        return self.arrivals - self.drops - self.occupancy

    # -- the FIFO --------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Accept *packet* (``True``) or drop it on overflow (``False``).

        Departures at or before ``now`` have left the queue first, so an
        arrival at the very instant of a departure sees the freed slot.
        The arrival is dropped when ``buffer`` departures are still
        pending; otherwise its departure time is fixed now and only its
        arrival at the next hop is scheduled, or, on its last hop, it is
        delivered at once with the future delivery time.
        """
        self.arrivals += 1
        scheduler = self.scheduler
        now = scheduler.now
        departures = self._departures
        while departures and departures[0] <= now:
            departures.popleft()
        if len(departures) >= self.buffer:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet, self, now)
            return False
        departure = (departures[-1] if departures else now) + packet.size / self.rate
        departures.append(departure)
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
