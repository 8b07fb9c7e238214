"""The unit of work flowing through the simulator.

A :class:`Packet` is deliberately tiny — a ``__slots__`` record, not a
dataclass — because every cross-flow transmission creates one and the
benchmarks count packets per second.  Probes and driver packets never
become objects: their links admit them by size alone.  Sizes are measured in *service
units*: a link with ``rate`` services one unit in ``1 / rate`` slots, so
a default-size packet occupies the transmitter for ``1 / rate``.
"""

from __future__ import annotations

from typing import Optional, Sequence


class Packet:
    """One packet in flight: identity, route position, and timestamps."""

    __slots__ = (
        "flow_id",
        "sequence",
        "size",
        "sent_at",
        "delivered_at",
        "route",
        "hop",
    )

    def __init__(
        self,
        flow_id: int,
        sequence: int,
        route: Sequence["object"],
        sent_at: float,
        size: float = 1.0,
    ) -> None:
        self.flow_id = flow_id
        self.sequence = sequence
        self.size = size
        self.sent_at = sent_at
        self.delivered_at: Optional[float] = None
        self.route = tuple(route)
        self.hop = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(flow={self.flow_id} seq={self.sequence} "
            f"hop={self.hop}/{len(self.route)})"
        )
