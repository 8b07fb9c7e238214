"""Traffic sources: paced hosts and the per-link probe tap.

A :class:`Host` drives one flow along a fixed route of
:class:`~repro.netsim.sim.link.SimLink`\\ s: it asks its congestion
controller for the current pacing rate, feeds that into a token-bucket
:class:`~repro.netsim.sim.pacer.Pacer`, and emits packets whenever a
token is available, rescheduling itself for the bucket's next ready
time.  Terminal packet outcomes come back through
:meth:`Host.handle_delivery` / :meth:`Host.handle_drop` (invoked by the
simulator's link callbacks) and are relayed to the controller after a
reverse-path delay, closing the control loop.  A single-link host that
ignores feedback can instead run off the heap as a local source of its
link (:meth:`Host.start_local`), sharing the emission body :meth:`Host._pace`.

A :class:`ProbeTap` is the measurement-plane source: one tiny probe per
slot through a single link, always a local source of that link, whose
recorded send and departure times the simulator turns into the link's
drop/delay realisation — the row of the ``(num_links, num_probes)``
matrices the tomography pipeline consumes.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence, Tuple

from repro.netsim.sim.cc.base import CongestionController
from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import PROBE_SIZE
from repro.netsim.sim.link import SimLink
from repro.netsim.sim.pacer import Pacer
from repro.netsim.sim.packet import Packet
from repro.utils import check_count, check_real


class Host:
    """One congestion-controlled flow: controller -> pacer -> first link."""

    #: Size of every packet a host sends, in service units.
    PACKET_SIZE = 1.0
    #: Reverse-path latency for acks and loss notifications, on top of
    #: the route's propagation delay: the forward propagation is
    #: simulated hop by hop, the return path is modelled as one lump
    #: (no reverse queueing).
    ACK_MARGIN = 0.05

    __slots__ = (
        "flow_id",
        "route",
        "cc",
        "pacer",
        "scheduler",
        "start_time",
        "stop_time",
        "ack_delay",
        "packets_sent",
        "next_time",
        "_running",
        "_on_emit",
    )

    def __init__(
        self,
        flow_id: int,
        route: Sequence[SimLink],
        cc: CongestionController,
        scheduler: EventScheduler,
        bucket: float = 2.0,
        start_time: float = 0.0,
        stop_time: float = float("inf"),
    ) -> None:
        if not route:
            raise ValueError("a host needs a route of at least one link")
        check_real("start_time", start_time)
        if math.isnan(stop_time):
            raise ValueError("stop_time must not be NaN")
        self.flow_id = flow_id
        self.route = tuple(route)
        self.cc = cc
        self.scheduler = scheduler
        self.start_time = float(start_time)
        self.stop_time = float(stop_time)
        self.ack_delay = sum(link.delay for link in route) + self.ACK_MARGIN
        self.pacer = Pacer(
            rate=max(cc.pacing_rate(start_time), 0.0),
            bucket=max(bucket, self.PACKET_SIZE),
            start=start_time,
        )
        self.packets_sent = 0
        self.next_time = math.inf  # of the next fire(), while link-local
        self._running = False
        self._on_emit = self._emit

    def start(self) -> None:
        """Run on the event heap: one event per emission or wake-up."""
        self._claim()
        self.scheduler.schedule(self.start_time, self._on_emit)

    def start_local(self) -> None:
        """Run off the heap, fired by its only link; no callbacks, no feedback.

        Its controller must override none of ``on_sent``, ``on_ack``
        and ``on_loss``, so when it sends is a function of time alone.
        """
        if len(self.route) != 1 or any(
            getattr(type(self.cc), h) is not getattr(CongestionController, h)
            for h in ("on_sent", "on_ack", "on_loss")
        ):
            raise ValueError("a link-local host needs one link and no feedback hooks")
        self._claim()
        self.next_time = self.start_time
        self.route[0].add_local(self)

    def _claim(self) -> None:
        if self._running:
            raise RuntimeError("host already started")
        self._running = True

    # -- emission --------------------------------------------------------------

    def _pace(self, now: float) -> Tuple[bool, float]:
        """Whether to send at *now*, and when to run next (``inf``: never)."""
        stop_time = self.stop_time
        if now >= stop_time:
            return False, math.inf
        cc = self.cc
        rate = cc.pacing_rate(now)
        if rate <= 0.0:
            wake = cc.wake_time(now)
            return False, math.inf if wake == math.inf else min(max(wake, now), stop_time)
        size = self.PACKET_SIZE
        sent, next_time = self.pacer.pace(now, rate, size)
        if sent:
            self.packets_sent += 1
        if next_time == math.inf:
            next_time = now + size  # rate hit 0 mid-refill; re-poll
        return sent, min(next_time, stop_time)

    def _emit(self) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        sent, next_time = self._pace(now)
        if sent:
            sequence = self.packets_sent - 1
            packet = Packet(self.flow_id, sequence, self.route, now, self.PACKET_SIZE)
            self.cc.on_sent(now, packet)
            self.route[0].enqueue(packet)
        if next_time != math.inf:
            scheduler.schedule(next_time, self._on_emit)

    def fire(self) -> None:
        """Send at ``next_time`` straight into the link (link-local mode)."""
        now = self.next_time
        sent, self.next_time = self._pace(now)
        if sent:
            self.route[0].admit(now, self.PACKET_SIZE)

    # -- feedback (invoked by the simulator's link callbacks) ------------------

    def handle_delivery(self, packet: Packet, now: float) -> None:
        self.scheduler.schedule(now + self.ack_delay, self._ack, packet)

    def handle_drop(self, packet: Packet, link: SimLink, now: float) -> None:
        self.scheduler.schedule(now + self.ack_delay, self._loss, packet)

    def _ack(self, packet: Packet) -> None:
        now = self.scheduler.now
        self.cc.on_ack(now, packet, now - packet.sent_at)

    def _loss(self, packet: Packet) -> None:
        self.cc.on_loss(self.scheduler.now, packet)


class ProbeTap:
    """One probe per slot through one link, fired by the link itself.

    The tap realises Assumption S.1 *structurally*: every path crossing
    the link observes this single per-slot realisation, produced by the
    shared queue itself rather than by a sampled process.  ``sent`` and
    ``departures`` hold each fired slot's send time and its departure
    time from the link, NaN for a dropped probe.
    """

    __slots__ = ("link", "num_probes", "phase", "probe_size", "next_time", "sent", "departures")

    def __init__(
        self,
        link: SimLink,
        num_probes: int,
        phase: float = 0.0,
        probe_size: float = PROBE_SIZE,
    ) -> None:
        if check_count("num_probes", num_probes) <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"phase must lie in [0, 1), got {phase}")
        if check_real("probe_size", probe_size) <= 0:
            raise ValueError(f"probe size must be positive, got {probe_size}")
        self.link = link
        self.num_probes = int(num_probes)
        self.phase = float(phase)
        self.probe_size = float(probe_size)
        self.next_time = self.phase
        self.sent = array("d")
        self.departures = array("d")
        link.add_local(self)

    def fire(self) -> None:
        """Send the next slot's probe and advance ``next_time``."""
        now = self.next_time
        slot = len(self.sent)
        self.sent.append(now)
        departure = self.link.admit(now, self.probe_size)
        self.departures.append(math.nan if departure is None else departure)
        # keep the association (phase + slot) + 1: payloads pin it
        self.next_time = self.phase + slot + 1 if slot + 1 < self.num_probes else math.inf
