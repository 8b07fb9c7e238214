"""Discrete-event packet-level simulator with congestion-induced loss.

The package is layered bottom-up:

* :mod:`~repro.netsim.sim.clock` — the heap scheduler, which owns the
  simulation time (``scheduler.now``; there is no separate clock) and
  breaks ties in (time, sequence) total order;
* :mod:`~repro.netsim.sim.packet`, :mod:`~repro.netsim.sim.link` —
  packets and finite-buffer FIFO links that drop on overflow;
* :mod:`~repro.netsim.sim.pacer`, :mod:`~repro.netsim.sim.host`,
  :mod:`~repro.netsim.sim.cc` — token-bucket pacing, flow hosts, and
  the background congestion controllers (CBR / AIMD / rate prober);
* :mod:`~repro.netsim.sim.simulator` — the per-snapshot orchestrator
  producing ``(num_links, num_probes)`` drop and delay realisations;
* :mod:`~repro.netsim.sim.config` — ``TRAFFIC_KINDS``, the traffic
  stage choice of ``Scenario`` and the CLI, and the named constants
  that size the links and calibrate the background traffic.
"""

from repro.netsim.sim.cc import (
    AIMDController,
    CongestionController,
    ConstantBitRate,
    OnOffCBR,
    RateProber,
)
from repro.netsim.sim.clock import EventScheduler
from repro.netsim.sim.config import TRAFFIC_KINDS
from repro.netsim.sim.host import Host, ProbeTap
from repro.netsim.sim.link import SimLink
from repro.netsim.sim.pacer import Pacer
from repro.netsim.sim.packet import Packet
from repro.netsim.sim.simulator import (
    CongestionSimulator,
    SnapshotTrace,
)

__all__ = [
    "AIMDController",
    "CongestionController",
    "CongestionSimulator",
    "ConstantBitRate",
    "EventScheduler",
    "Host",
    "OnOffCBR",
    "Pacer",
    "Packet",
    "ProbeTap",
    "RateProber",
    "SimLink",
    "SnapshotTrace",
    "TRAFFIC_KINDS",
]
