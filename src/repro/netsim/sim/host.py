"""Traffic sources: paced hosts and the per-link probe tap.

A :class:`Host` drives one flow along a fixed route of
:class:`~repro.netsim.sim.link.SimLink`\\ s: it asks its congestion
controller for the current pacing rate, feeds that into a token-bucket
:class:`~repro.netsim.sim.pacer.Pacer`, and emits packets whenever a
token is available, rescheduling itself for the bucket's next ready
time.  Terminal packet outcomes come back through
:meth:`Host.handle_delivery` / :meth:`Host.handle_drop` (invoked by the
simulator's link callbacks) and are relayed to the controller after a
reverse-path delay, closing the control loop.

A :class:`ProbeTap` is the measurement-plane source: one tiny probe per
slot through a single link, stamped with its slot index so the
simulator can record the link's drop/delay realisation — the row of the
``(num_links, num_probes)`` matrices the tomography pipeline consumes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.netsim.sim.cc.base import CongestionController
from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import check_count, check_real
from repro.netsim.sim.link import SimLink
from repro.netsim.sim.pacer import Pacer
from repro.netsim.sim.packet import Packet


class Host:
    """One congestion-controlled flow: controller -> pacer -> first link."""

    __slots__ = (
        "flow_id",
        "route",
        "cc",
        "pacer",
        "scheduler",
        "packet_size",
        "start_time",
        "stop_time",
        "ack_delay",
        "packets_sent",
        "acks",
        "losses",
        "_sequence",
        "_running",
        "_on_emit",
    )

    def __init__(
        self,
        flow_id: int,
        route: Sequence[SimLink],
        cc: CongestionController,
        scheduler: EventScheduler,
        packet_size: float = 1.0,
        bucket: float = 2.0,
        start_time: float = 0.0,
        stop_time: float = float("inf"),
        ack_delay: Optional[float] = None,
    ) -> None:
        if not route:
            raise ValueError("a host needs a route of at least one link")
        if check_real("packet_size", packet_size) <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        check_real("start_time", start_time)
        if math.isnan(stop_time):
            raise ValueError("stop_time must not be NaN")
        self.flow_id = flow_id
        self.route = tuple(route)
        self.cc = cc
        self.scheduler = scheduler
        self.packet_size = float(packet_size)
        self.start_time = float(start_time)
        self.stop_time = float(stop_time)
        # Reverse-path latency for acks and loss notifications: the
        # forward propagation is simulated hop by hop, the return path is
        # modelled as one lump (no reverse queueing).
        if ack_delay is None:
            ack_delay = sum(link.delay for link in route) + 0.05
        if check_real("ack_delay", ack_delay) < 0:
            raise ValueError(f"ack_delay must be >= 0, got {ack_delay}")
        self.ack_delay = float(ack_delay)
        self.pacer = Pacer(
            rate=max(cc.pacing_rate(start_time), 0.0),
            bucket=max(bucket, packet_size),
            start=start_time,
        )
        self.packets_sent = 0
        self.acks = 0
        self.losses = 0
        self._sequence = 0
        self._running = False
        self._on_emit = self._emit

    def start(self) -> None:
        if self._running:
            raise RuntimeError("host already started")
        self._running = True
        self.scheduler.schedule(self.start_time, self._on_emit)

    # -- emission loop ---------------------------------------------------------

    def _emit(self) -> None:
        scheduler = self.scheduler
        cc = self.cc
        stop_time = self.stop_time
        now = scheduler.now
        if now >= stop_time:
            return
        rate = cc.pacing_rate(now)
        if rate <= 0.0:
            wake = cc.wake_time(now)
            if wake != math.inf:
                scheduler.schedule(min(max(wake, now), stop_time), self._on_emit)
            return
        size = self.packet_size
        sent, next_time = self.pacer.pace(now, rate, size)
        if sent:
            packet = Packet(self.flow_id, self._sequence, self.route, now, size)
            self._sequence += 1
            self.packets_sent += 1
            cc.on_sent(now, packet)
            self.route[0].enqueue(packet)
        if next_time == math.inf:
            next_time = now + size  # rate hit 0 mid-refill; re-poll
        scheduler.schedule(min(next_time, stop_time), self._on_emit)

    # -- feedback (invoked by the simulator's link callbacks) ------------------

    def handle_delivery(self, packet: Packet, now: float) -> None:
        self.scheduler.schedule(now + self.ack_delay, self._ack, packet)

    def handle_drop(self, packet: Packet, link: SimLink, now: float) -> None:
        self.scheduler.schedule(now + self.ack_delay, self._loss, packet)

    def _ack(self, packet: Packet) -> None:
        now = self.scheduler.now
        self.acks += 1
        self.cc.on_ack(now, packet, now - packet.sent_at)

    def _loss(self, packet: Packet) -> None:
        self.losses += 1
        self.cc.on_loss(self.scheduler.now, packet)


class ProbeTap:
    """One probe per slot through one link, slot-stamped for recording.

    The tap realises Assumption S.1 *structurally*: every path crossing
    the link observes this single per-slot realisation, produced by the
    shared queue itself rather than by a sampled process.
    """

    __slots__ = (
        "flow_id",
        "link",
        "num_probes",
        "phase",
        "probe_size",
        "scheduler",
        "_route",
        "_on_emit",
    )

    def __init__(
        self,
        flow_id: int,
        link: SimLink,
        num_probes: int,
        scheduler: EventScheduler,
        phase: float = 0.0,
        probe_size: float = 0.05,
    ) -> None:
        if check_count("num_probes", num_probes) <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"phase must lie in [0, 1), got {phase}")
        if check_real("probe_size", probe_size) <= 0:
            raise ValueError(f"probe size must be positive, got {probe_size}")
        self.flow_id = flow_id
        self.link = link
        self.num_probes = int(num_probes)
        self.phase = float(phase)
        self.probe_size = float(probe_size)
        self.scheduler = scheduler
        self._route = (link,)
        self._on_emit = self._emit

    def start(self) -> None:
        self.scheduler.schedule(self.phase, self._on_emit, 0)

    def _emit(self, slot: int) -> None:
        scheduler = self.scheduler
        self.link.enqueue(
            Packet(
                self.flow_id, slot, self._route, scheduler.now,
                self.probe_size, slot,
            )
        )
        if slot + 1 < self.num_probes:
            # keep the association (phase + slot) + 1: payloads pin it
            scheduler.schedule(self.phase + slot + 1, self._on_emit, slot + 1)
