"""The snapshot orchestrator: links + taps + background flows -> traces.

``CongestionSimulator`` is built once per prepared topology (the link
set and probing paths are static across a campaign) and then runs one
discrete-event simulation per snapshot:

* every link that carries at least one probing path becomes a
  :class:`~repro.netsim.sim.link.SimLink` (finite FIFO, drop on
  overflow);
* a :class:`~repro.netsim.sim.host.ProbeTap` per link emits one probe
  per slot, so all paths crossing the link share one drop realisation —
  Assumption S.1 holds structurally, at the queue;
* per-link on/off CBR drivers are calibrated so queue overflow drops
  roughly the snapshot's *assigned* loss rate
  (:meth:`~repro.netsim.sim.cc.OnOffCBR.for_target_loss`);
* multi-hop AIMD and BBR-like prober flows ride randomly chosen probing
  paths, coupling queues across links.

Taps and drivers feed one link and take no feedback, so each link fires
its own as *local sources*, off the event heap; the heap carries only
cross flows and next-hop arrivals.  Tie rule: a link's local sources
fire before an arrival at the same instant, and its tap before its driver.

Determinism: every stochastic choice draws from a stream spawned off
one ``SeedSequence([seed])`` in a fixed order (tap phases, then one
stream per link driver, then one per cross flow), the event loop
breaks ties by scheduling sequence and the links by the tie rule above,
so a snapshot trace is a pure function of ``(topology, loss_rates,
num_probes, seed)``.  Link sizing and cross-traffic calibration are the
constants of :mod:`repro.netsim.sim.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.sim.cc import AIMDController, OnOffCBR, RateProber
from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import (
    BUFFER_PACKETS,
    CAPACITY_PER_SLOT,
    CROSS_MAX_FRACTION,
    CROSS_RATE_FRACTION,
    NUM_AIMD_FLOWS,
    NUM_PROBER_FLOWS,
    PROBE_SIZE,
    PROP_DELAY_SLOTS,
    SLOT_MS,
)
from repro.netsim.sim.host import Host, ProbeTap
from repro.netsim.sim.link import SimLink
from repro.netsim.sim.packet import Packet
from repro.utils import check_count

#: Assigned rates at or below this are treated as loss-free: no driver
#: is attached (the queue then only overflows under cross-flow bursts).
MIN_DRIVER_LOSS = 1e-6


def _as_link_indices(path) -> "tuple[int, ...]":
    """Accept a raw index sequence or a topology ``Path``-like object."""
    if hasattr(path, "link_indices"):
        return tuple(int(i) for i in path.link_indices())
    return tuple(int(i) for i in path)


@dataclass
class SnapshotTrace:
    """Everything one simulated snapshot produced, active-link indexed."""

    active_links: np.ndarray   # (num_active,) physical link indices
    drops: np.ndarray          # (num_active, num_probes) bool
    delays_ms: np.ndarray      # (num_active, num_probes) probe sojourn, ms
    events: int                # heap dispatches: cross-flow emissions, acks
                               # and losses, and arrivals at a next hop
                               # (taps and drivers fire off the heap)
    packets_forwarded: int     # link departures by the run's end (all traffic)
    background_sent: int       # host emissions (drivers + cross flows)
    probe_drops: int

    @property
    def num_probes(self) -> int:
        return int(self.drops.shape[1])

    def loss_fractions(self) -> np.ndarray:
        return self.drops.mean(axis=1)


class CongestionSimulator:
    """Event-driven loss/delay realisations over one probing layout."""

    def __init__(self, paths: Sequence[object], num_links: int) -> None:
        if num_links <= 0:
            raise ValueError(f"num_links must be positive, got {num_links}")
        if not paths:
            raise ValueError("need at least one probing path")
        self.num_links = int(num_links)
        self._paths: List[tuple] = [_as_link_indices(p) for p in paths]
        for path in self._paths:
            bad = [i for i in path if not 0 <= i < num_links]
            if bad:
                raise ValueError(
                    f"path references links {bad} outside 0..{num_links - 1}"
                )
        active = sorted({i for path in self._paths for i in path})
        self.active_links = np.asarray(active, dtype=np.int64)
        self.last_trace: Optional[SnapshotTrace] = None

    @property
    def num_active_links(self) -> int:
        return int(self.active_links.shape[0])

    # -- one snapshot ----------------------------------------------------------

    def run_snapshot(
        self, loss_rates: np.ndarray, num_probes: int, seed: int
    ) -> SnapshotTrace:
        """Simulate one snapshot; returns the per-active-link trace.

        *loss_rates* holds one assigned rate per physical link, each
        finite and in [0, 1] (``ValueError`` names the first bad link).
        Rates at or below :data:`MIN_DRIVER_LOSS` get no driver; rates
        above 0.95 are calibrated as 0.95.  *num_probes* (positive) and
        *seed* must be integers; ``ValueError`` names a bad one.
        """
        rates = np.asarray(loss_rates, dtype=np.float64)
        if rates.shape != (self.num_links,):
            raise ValueError(
                f"need one loss rate per link ({self.num_links}), "
                f"got shape {rates.shape}"
            )
        # NaN fails both comparisons, so it is caught here too.
        bad = np.flatnonzero(~((rates >= 0.0) & (rates <= 1.0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"loss rate of link {k} must be finite and in [0, 1], "
                f"got {rates[k]}"
            )
        if check_count("num_probes", num_probes) <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        check_count("seed", seed)
        num_active = self.num_active_links
        num_cross = NUM_AIMD_FLOWS + NUM_PROBER_FLOWS

        seq = np.random.SeedSequence([int(seed)])
        streams = [
            np.random.default_rng(child)
            for child in seq.spawn(1 + num_active + num_cross)
        ]
        tap_rng, flow_streams = streams[0], streams[1:]

        scheduler = EventScheduler()
        # Run past the horizon so in-flight probes of the last slot clear
        # every queue (worst case: full buffer ahead plus propagation).
        horizon = float(num_probes)
        end = horizon + (BUFFER_PACKETS / CAPACITY_PER_SLOT + (PROP_DELAY_SLOTS + 1.0))
        hosts: Dict[int, Host] = {}

        def on_drop(packet: Packet, link: SimLink, now: float) -> None:
            hosts[packet.flow_id].handle_drop(packet, link, now)

        def on_deliver(packet: Packet, now: float) -> None:
            hosts[packet.flow_id].handle_delivery(packet, now)

        links: Dict[int, SimLink] = {
            int(k): SimLink(
                index=int(k),
                rate=CAPACITY_PER_SLOT,
                delay=PROP_DELAY_SLOTS,
                buffer=BUFFER_PACKETS,
                scheduler=scheduler,
                on_drop=on_drop,
                on_deliver=on_deliver,
            )
            for k in self.active_links
        }

        # Probe taps: one per active link, de-phased within the slot, each
        # added to its link before the driver, so it wins a tie.
        phases = tap_rng.random(num_active)
        taps = [
            ProbeTap(
                link=links[int(k)],
                num_probes=num_probes,
                phase=float(phases[r]),
                probe_size=PROBE_SIZE,
            )
            for r, k in enumerate(self.active_links)
        ]

        flow_id = 0

        # Calibrated per-link congestion drivers.
        for r, k in enumerate(self.active_links):
            target = float(rates[int(k)])
            rng = flow_streams[r]
            if target <= MIN_DRIVER_LOSS:
                continue
            cc = OnOffCBR.for_target_loss(
                min(target, 0.95), capacity=CAPACITY_PER_SLOT, buffer=BUFFER_PACKETS
            )
            cc.bind(rng)
            host = Host(
                flow_id=flow_id,
                route=(links[int(k)],),
                cc=cc,
                scheduler=scheduler,
                bucket=2.0,
                start_time=float(rng.random()),
                stop_time=horizon,
            )
            hosts[flow_id] = host
            host.start_local()
            flow_id += 1

        # Multi-hop cross traffic over randomly chosen probing paths.
        cross_rate = CROSS_RATE_FRACTION * CAPACITY_PER_SLOT
        cross_cap = CROSS_MAX_FRACTION * CAPACITY_PER_SLOT
        for c in range(num_cross):
            rng = flow_streams[num_active + c]
            route_links = self._paths[int(rng.integers(len(self._paths)))]
            route = tuple(links[i] for i in route_links)
            if c < NUM_AIMD_FLOWS:
                cc = AIMDController(
                    initial_rate=max(cross_rate, 0.1),
                    min_rate=0.1,
                    max_rate=cross_cap,
                )
            else:
                cc = RateProber(
                    initial_rate=max(cross_rate, 0.1),
                    min_rate=0.1,
                    max_rate=cross_cap,
                )
            cc.bind(rng)
            host = Host(
                flow_id=flow_id,
                route=route,
                cc=cc,
                scheduler=scheduler,
                bucket=2.0,
                start_time=float(rng.random()),
                stop_time=horizon,
            )
            hosts[flow_id] = host
            host.start()
            flow_id += 1

        scheduler.run_until(end)
        # ``served`` first fires each link's local sources due by ``end``.
        packets_forwarded = sum(link.served for link in links.values())

        # Dropped probes, and those delivered after the run's end, get the
        # full-buffer sojourn — the delay a probe would have seen had one
        # more slot been free — keeping the delay matrix smooth at losses.
        full_sojourn = BUFFER_PACKETS / CAPACITY_PER_SLOT + PROP_DELAY_SLOTS
        drops = np.empty((num_active, num_probes), dtype=bool)
        delays = np.empty((num_active, num_probes))
        for r, tap in enumerate(taps):
            departures = np.frombuffer(tap.departures)
            arrivals = departures + tap.link.delay  # NaN for a drop
            drops[r] = np.isnan(departures)
            delays[r] = np.where(arrivals <= end, arrivals - np.frombuffer(tap.sent), full_sojourn)

        trace = SnapshotTrace(
            active_links=self.active_links,
            drops=drops,
            delays_ms=delays * SLOT_MS,
            events=scheduler.events_dispatched,
            packets_forwarded=packets_forwarded,
            background_sent=sum(h.packets_sent for h in hosts.values()),
            probe_drops=int(drops.sum()),
        )
        self.last_trace = trace
        return trace

    # -- full matrices ---------------------------------------------------------

    def expand_drops(self, trace: SnapshotTrace) -> np.ndarray:
        """Lift a trace's active-link drop matrix to all physical links.

        Rows of links no probing path traverses stay all-``False`` —
        they are unobservable to every estimator and carry no realised
        traffic in the simulator.
        """
        full = np.zeros((self.num_links, trace.num_probes), dtype=bool)
        full[trace.active_links] = trace.drops
        return full
