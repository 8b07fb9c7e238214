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

After service a packet propagates for ``delay`` slots and then either
enters the next link on its route or is delivered to the simulator's
sink.  Both terminal outcomes are reported through callbacks so hosts
can run congestion control on them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.packet import Packet

#: ``on_drop(packet, link, now)`` — arrival found the buffer full.
DropCallback = Callable[[Packet, "SimLink", float], None]
#: ``on_deliver(packet, now)`` — packet left its last hop.
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
        "_queue",
        "_busy",
        "arrivals",
        "drops",
        "served",
        "busy_until",
        "_on_depart",
        "_on_arrive",
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
        if rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate}")
        if delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay}")
        if buffer < 1:
            raise ValueError(f"buffer must hold at least one packet, got {buffer}")
        self.index = index
        self.rate = float(rate)
        self.delay = float(delay)
        self.buffer = int(buffer)
        self.scheduler = scheduler
        self.on_drop = on_drop
        self.on_deliver = on_deliver
        self._queue: Deque[Packet] = deque()
        self._busy = False
        self.arrivals = 0
        self.drops = 0
        self.served = 0
        self.busy_until = 0.0
        self._on_depart = self._depart
        self._on_arrive = self._arrive_downstream

    # -- queue state -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Packets currently held (waiting plus in service)."""
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.buffer

    # -- the FIFO --------------------------------------------------------------
    #
    # The hot path of the whole simulator: a departure is due at
    # ``now + packet.size / self.rate``, written out in both places, and
    # the bound callbacks are cached, so one event costs few lookups.

    def enqueue(self, packet: Packet) -> bool:
        """Accept *packet* (``True``) or drop it on overflow (``False``)."""
        self.arrivals += 1
        queue = self._queue
        if len(queue) >= self.buffer:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet, self, self.scheduler.now)
            return False
        queue.append(packet)
        if not self._busy:
            # An idle link has an empty queue, so *packet* is its head.
            self._busy = True
            scheduler = self.scheduler
            self.busy_until = busy_until = (
                scheduler.now + packet.size / self.rate
            )
            scheduler.schedule(busy_until, self._on_depart)
        return True

    def _depart(self) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        queue = self._queue
        packet = queue.popleft()
        self.served += 1
        scheduler.schedule(now + self.delay, self._on_arrive, packet)
        if queue:
            self.busy_until = busy_until = now + queue[0].size / self.rate
            scheduler.schedule(busy_until, self._on_depart)
        else:
            self._busy = False

    def _arrive_downstream(self, packet: Packet) -> None:
        hop = packet.hop + 1
        route = packet.route
        if hop == len(route):
            now = self.scheduler.now
            packet.delivered_at = now
            if self.on_deliver is not None:
                self.on_deliver(packet, now)
            return
        packet.hop = hop
        route[hop].enqueue(packet)
