"""The traffic-stage choice and the packet simulator's calibration.

A :class:`repro.api.Scenario` realises per-link packet loss one of two
ways, named in ``TRAFFIC_KINDS`` (``repro simulate --traffic`` reads
the tuple directly):

* ``"analytic"`` (default) — the historical path: a
  :class:`~repro.lossmodel.processes.LossProcess` (Gilbert/Bernoulli)
  samples drops from the assigned average rates.  Every pre-existing
  experiment payload is produced by this branch, unchanged.
* ``"congestion"`` — the discrete-event path: drops are *induced* by
  queue overflow in :class:`~repro.netsim.sim.simulator.
  CongestionSimulator`, with the constants below sizing the links and
  the background cross-traffic.

All times are measured in *probe slots* (one slot = one probe
inter-departure interval) and all sizes in service units of one
background data packet, so the calibration is scale-free across
probe-interval choices; :data:`SLOT_MS` carries the physical timebase
for the delay byproducts.
"""

from __future__ import annotations

TRAFFIC_KINDS = ("analytic", "congestion")

#: Link service rate in data packets per probe slot.  20 means the
#: 1-per-slot probe stream is a 5 % load by packet count (and far less
#: by service time, probes being :data:`PROBE_SIZE` units).
CAPACITY_PER_SLOT = 20.0

#: Finite FIFO depth, including the packet in service; overflow is the
#: *only* loss mechanism in the simulator.
BUFFER_PACKETS = 12

#: Per-link propagation delay, in slots.
PROP_DELAY_SLOTS = 0.02

#: Calibration of the per-link on/off driver
#: (:meth:`repro.netsim.sim.cc.OnOffCBR.for_target_loss`): the ON-phase
#: send rate relative to capacity (it must exceed 1 to fill the queue),
#: the mean overflow-burst length in slots, and the fraction of overload
#: time the queue is actually full at a random arrival instant.
OVERLOAD_FACTOR = 2.0
BURST_SLOTS = 3.0
OVERFLOW_OCCUPANCY = 0.75

#: Multi-hop background flows (Reno-style AIMD and BBR-like rate
#: probers) routed over randomly chosen probing paths; they couple
#: queues across links and react to the drops they suffer.
NUM_AIMD_FLOWS = 2
NUM_PROBER_FLOWS = 1

#: Initial and maximum rate of each cross flow relative to link
#: capacity.  The cap keeps the *sum* of the flow fleet under one
#: capacity, so cross traffic alone never overflows a queue — good links
#: stay under the paper's 0.002 threshold — while on driver-congested
#: links the cross flows both suffer drops (and back off, the closed
#: loop) and deepen the overflow bursts.
CROSS_RATE_FRACTION = 0.25
CROSS_MAX_FRACTION = 0.3

#: Probe service size relative to a data packet (40 B vs ~1 kB in the
#: paper's measurement plane).
PROBE_SIZE = 0.05

#: Physical duration of one slot, used only to express the simulator's
#: queueing-delay byproducts in milliseconds.
SLOT_MS = 10.0
