"""Declarative traffic-stage configuration for the Scenario pipeline.

``TrafficConfig`` selects how a :class:`repro.api.Scenario` realises
per-link packet loss:

* ``kind="analytic"`` (default) — the historical path: a
  :class:`~repro.lossmodel.processes.LossProcess` (Gilbert/Bernoulli)
  samples drops from the assigned average rates.  Every pre-existing
  experiment payload is produced by this branch, unchanged.
* ``kind="congestion"`` — the discrete-event path: drops are *induced*
  by queue overflow in :class:`~repro.netsim.sim.simulator.
  CongestionSimulator`, with the remaining fields sizing the links and
  the background cross-traffic.

``TRAFFIC_KINDS`` is the canonical choice tuple; ``repro simulate
--traffic`` reads it directly.

All times are measured in *probe slots* (one slot = one probe
inter-departure interval) and all sizes in service units of one
background data packet, so one config is scale-free across
probe-interval choices; ``slot_ms`` carries the physical timebase for
the delay byproducts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any

TRAFFIC_KINDS = ("analytic", "congestion")

#: Fields holding counts; every other field but ``kind`` is a float.
_COUNT_FIELDS = frozenset(
    {"buffer_packets", "num_aimd_flows", "num_prober_flows"}
)


def check_real(name: str, value: Any) -> Any:
    """*value*, or ``ValueError`` naming *name* unless a finite real."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def check_count(name: str, value: Any) -> Any:
    """*value*, or ``ValueError`` naming *name* unless an integer.

    Numpy integers pass; ``bool`` and integral floats do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class TrafficConfig:
    """How a scenario turns assigned loss rates into packet drops.

    Congestion-branch knobs (ignored for ``kind="analytic"``):

    ``capacity_per_slot``
        Link service rate in data packets per probe slot.  20 means the
        1-per-slot probe stream is a 5 % load by packet count (and far
        less by service time, probes being ``probe_size`` units).
    ``buffer_packets``
        Finite FIFO depth, including the packet in service; overflow is
        the *only* loss mechanism in the simulator.
    ``prop_delay_slots``
        Per-link propagation delay.
    ``overload_factor``, ``burst_slots``, ``overflow_occupancy``
        Calibration of the per-link on/off driver
        (:meth:`repro.netsim.sim.cc.OnOffCBR.for_target_loss`): ON-phase
        send rate relative to capacity, mean overflow-burst length in
        slots, and the fraction of overload time the queue is actually
        full at a random arrival instant.
    ``num_aimd_flows``, ``num_prober_flows``
        Multi-hop background flows (Reno-style AIMD and BBR-like rate
        probers) routed over randomly chosen probing paths; they couple
        queues across links and react to the drops they suffer.
    ``cross_rate_fraction``, ``cross_max_fraction``
        Initial and maximum rate of each cross flow relative to link
        capacity.  The default cap keeps the *sum* of the default flow
        fleet under one capacity, so cross traffic alone never
        overflows a queue — good links stay under the paper's 0.002
        threshold — while on driver-congested links the cross flows
        both suffer drops (and back off, the closed loop) and deepen
        the overflow bursts.
    ``probe_size``
        Probe service size relative to a data packet (40 B vs ~1 kB in
        the paper's measurement plane).
    ``slot_ms``
        Physical duration of one slot, used only to express the
        simulator's queueing-delay byproducts in milliseconds.
    """

    kind: str = "analytic"
    capacity_per_slot: float = 20.0
    buffer_packets: int = 12
    prop_delay_slots: float = 0.02
    overload_factor: float = 2.0
    burst_slots: float = 3.0
    overflow_occupancy: float = 0.75
    num_aimd_flows: int = 2
    num_prober_flows: int = 1
    cross_rate_fraction: float = 0.25
    cross_max_fraction: float = 0.3
    probe_size: float = 0.05
    slot_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"traffic kind must be one of {TRAFFIC_KINDS}, got {self.kind!r}"
            )
        for field in fields(self):
            if field.name != "kind":
                self._check_number(field.name)
        if self.capacity_per_slot <= 0:
            raise ValueError("capacity_per_slot must be positive")
        if self.buffer_packets < 1:
            raise ValueError("buffer_packets must be at least 1")
        if self.prop_delay_slots < 0:
            raise ValueError("prop_delay_slots must be non-negative")
        if self.overload_factor <= 1:
            raise ValueError("overload_factor must exceed 1")
        if self.burst_slots <= 0:
            raise ValueError("burst_slots must be positive")
        if not 0 < self.overflow_occupancy <= 1:
            raise ValueError("overflow_occupancy must be in (0, 1]")
        if self.num_aimd_flows < 0 or self.num_prober_flows < 0:
            raise ValueError("background flow counts must be non-negative")
        if not 0 <= self.cross_rate_fraction <= 1:
            raise ValueError("cross_rate_fraction must be in [0, 1]")
        if self.cross_max_fraction < self.cross_rate_fraction:
            raise ValueError(
                "cross_max_fraction must be at least cross_rate_fraction"
            )
        if self.probe_size <= 0:
            raise ValueError("probe_size must be positive")
        if self.slot_ms <= 0:
            raise ValueError("slot_ms must be positive")

    def _check_number(self, name: str) -> None:
        """Reject non-finite numbers and non-integral counts by name.

        An integral float count (``12.0``) is stored as the ``int`` the
        simulator indexes with; an integral number in a float field (a
        JSON ``20``) is kept as given.
        """
        value = getattr(self, name)
        check_real(name, value)
        if name in _COUNT_FIELDS:
            if value != int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def is_congestion(self) -> bool:
        return self.kind == "congestion"
