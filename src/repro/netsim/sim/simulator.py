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

Determinism: every stochastic choice draws from a stream spawned off
one ``SeedSequence([seed])`` in a fixed order (tap phases, then one
stream per link driver, then one per cross flow), and the event loop
breaks ties by scheduling sequence — so a snapshot trace is a pure
function of ``(topology, config, loss_rates, num_probes, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.sim.cc import AIMDController, OnOffCBR, RateProber
from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import TrafficConfig
from repro.netsim.sim.host import Host, ProbeTap
from repro.netsim.sim.link import SimLink
from repro.netsim.sim.packet import Packet

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
    events: int                # scheduler dispatches: emissions, acks,
                               # losses and arrivals at a next hop
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

    def __init__(
        self,
        paths: Sequence[object],
        num_links: int,
        config: Optional[TrafficConfig] = None,
    ) -> None:
        if num_links <= 0:
            raise ValueError(f"num_links must be positive, got {num_links}")
        if not paths:
            raise ValueError("need at least one probing path")
        self.config = config if config is not None else TrafficConfig(
            kind="congestion"
        )
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
        self._row: Dict[int, int] = {k: r for r, k in enumerate(active)}
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
        above 0.95 are calibrated as 0.95.
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
        if num_probes <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        cfg = self.config
        num_active = self.num_active_links
        num_cross = cfg.num_aimd_flows + cfg.num_prober_flows

        seq = np.random.SeedSequence([int(seed)])
        streams = [
            np.random.default_rng(child)
            for child in seq.spawn(1 + num_active + num_cross)
        ]
        tap_rng, flow_streams = streams[0], streams[1:]

        scheduler = EventScheduler()
        drops = np.zeros((num_active, num_probes), dtype=bool)
        # Dropped (or unresolved) probes default to the full-buffer
        # sojourn — the delay a probe would have seen had one more slot
        # been free — keeping the delay matrix smooth at loss instants.
        full_sojourn = (
            cfg.buffer_packets / cfg.capacity_per_slot + cfg.prop_delay_slots
        )
        delays = np.full((num_active, num_probes), full_sojourn)
        # Run past the horizon so in-flight probes of the last slot clear
        # every queue (worst case: full buffer ahead plus propagation).
        horizon = float(num_probes)
        end = horizon + (cfg.buffer_packets / cfg.capacity_per_slot + (cfg.prop_delay_slots + 1.0))
        hosts: Dict[int, Host] = {}
        row_of = self._row
        probe_drops = 0

        def on_drop(packet: Packet, link: SimLink, now: float) -> None:
            nonlocal probe_drops
            if packet.probe_slot is not None:
                drops[row_of[link.index], packet.probe_slot] = True
                probe_drops += 1
            else:
                hosts[packet.flow_id].handle_drop(packet, link, now)

        def on_deliver(packet: Packet, now: float) -> None:
            if packet.probe_slot is not None:
                if now > end:  # delivered after the run: unresolved
                    return
                link = packet.route[-1]
                delays[row_of[link.index], packet.probe_slot] = (
                    now - packet.sent_at
                )
            else:
                hosts[packet.flow_id].handle_delivery(packet, now)

        links: Dict[int, SimLink] = {
            int(k): SimLink(
                index=int(k),
                rate=cfg.capacity_per_slot,
                delay=cfg.prop_delay_slots,
                buffer=cfg.buffer_packets,
                scheduler=scheduler,
                on_drop=on_drop,
                on_deliver=on_deliver,
            )
            for k in self.active_links
        }

        # Probe taps: one per active link, de-phased within the slot.
        phases = tap_rng.random(num_active)
        for r, k in enumerate(self.active_links):
            ProbeTap(
                flow_id=-1 - r,
                link=links[int(k)],
                num_probes=num_probes,
                scheduler=scheduler,
                phase=float(phases[r]),
                probe_size=cfg.probe_size,
            ).start()

        flow_id = 0

        # Calibrated per-link congestion drivers.
        for r, k in enumerate(self.active_links):
            target = float(rates[int(k)])
            rng = flow_streams[r]
            if target <= MIN_DRIVER_LOSS:
                continue
            cc = OnOffCBR.for_target_loss(
                min(target, 0.95),
                capacity=cfg.capacity_per_slot,
                buffer=cfg.buffer_packets,
                overload_factor=cfg.overload_factor,
                burst_slots=cfg.burst_slots,
                overflow_occupancy=cfg.overflow_occupancy,
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
            host.start()
            flow_id += 1

        # Multi-hop cross traffic over randomly chosen probing paths.
        cross_rate = cfg.cross_rate_fraction * cfg.capacity_per_slot
        cross_cap = cfg.cross_max_fraction * cfg.capacity_per_slot
        for c in range(num_cross):
            rng = flow_streams[num_active + c]
            route_links = self._paths[int(rng.integers(len(self._paths)))]
            route = tuple(links[i] for i in route_links)
            if c < cfg.num_aimd_flows:
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

        trace = SnapshotTrace(
            active_links=self.active_links,
            drops=drops,
            delays_ms=delays * cfg.slot_ms,
            events=scheduler.events_dispatched,
            packets_forwarded=sum(l.served for l in links.values()),
            background_sent=sum(h.packets_sent for h in hosts.values()),
            probe_drops=probe_drops,
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
