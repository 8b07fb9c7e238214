"""Constant-bit-rate sources, steady and on/off-modulated.

:class:`ConstantBitRate` is the plain fixed-rate source (light ambient
load on uncongested links).  :class:`OnOffCBR` is the *calibrated
congestion driver*: it alternates exponentially-distributed ON phases —
sending above the link's service rate so the FIFO fills and overflows —
with OFF phases long enough that the time-average overflow fraction
matches a target loss rate.  The calibration arithmetic lives in
:meth:`OnOffCBR.for_target_loss`; the controller itself only walks its
phase schedule, lazily and deterministically, off the flow's private
RNG stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netsim.sim.cc.base import CongestionController
from repro.netsim.sim.config import (
    BURST_SLOTS,
    OVERFLOW_OCCUPANCY,
    OVERLOAD_FACTOR,
)


class ConstantBitRate(CongestionController):
    """Fixed-rate source; the base class already does everything."""


class OnOffCBR(CongestionController):
    """Exponential ON/OFF modulation of a constant-rate source.

    Phases are drawn lazily as simulation time passes the current phase
    boundary.  Because hosts query :meth:`pacing_rate` with monotonically
    increasing ``now``, the draw sequence is a pure function of the RNG
    stream — same seed, same phase schedule, bit for bit.
    """

    def __init__(
        self,
        on_rate: float,
        mean_on: float,
        mean_off: float,
        start: float = 0.0,
    ) -> None:
        super().__init__(on_rate)
        if mean_on <= 0 or mean_off < 0:
            raise ValueError(
                f"need mean_on > 0 and mean_off >= 0, got "
                f"({mean_on}, {mean_off})"
            )
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self._start = float(start)
        self._rng: Optional[np.random.Generator] = None
        self._on = False
        self._phase_end = float(start)

    @classmethod
    def for_target_loss(
        cls, target_loss: float, capacity: float, buffer: int
    ) -> "OnOffCBR":
        """Calibrate ON/OFF means so overflow drops ~``target_loss`` probes.

        ``OVERLOAD_FACTOR``, ``BURST_SLOTS`` and ``OVERFLOW_OCCUPANCY``
        are constants of :mod:`repro.netsim.sim.config`.  During ON the
        source sends at ``OVERLOAD_FACTOR * capacity``, so the queue
        gains ``(OVERLOAD_FACTOR - 1) * capacity`` packets per slot and
        reaches the *buffer* limit after a fill time; from then until OFF
        the queue hovers at the limit and a probe arriving in that window
        is dropped with probability ``OVERFLOW_OCCUPANCY`` (the queue
        briefly opens one slot after each departure).  Setting

            mean ON  = fill + BURST_SLOTS
            mean OFF = overflow time / target - mean ON

        makes the long-run overflow-time fraction ``target_loss /
        OVERFLOW_OCCUPANCY``, i.e. an expected probe-drop fraction of
        ``target_loss``, in mean bursts of ``BURST_SLOTS`` consecutive
        slots.  The calibration is approximate by design — cross traffic
        and the probe load itself shift it — and the congestion
        experiments treat it as such.
        """
        if not 0 < target_loss < 1:
            raise ValueError(f"target loss must be in (0, 1), got {target_loss}")
        fill = buffer / ((OVERLOAD_FACTOR - 1.0) * capacity)
        mean_on = fill + BURST_SLOTS
        duty = min(target_loss / OVERFLOW_OCCUPANCY, 0.98)
        cycle = BURST_SLOTS / duty
        mean_off = max(cycle - mean_on, 1e-3)
        return cls(
            on_rate=OVERLOAD_FACTOR * capacity,
            mean_on=mean_on,
            mean_off=mean_off,
        )

    def bind(self, rng: Optional[np.random.Generator]) -> None:
        if rng is None:
            raise ValueError("OnOffCBR needs a per-flow RNG stream")
        self._rng = rng
        # Start OFF at a uniformly random point of the first off phase so
        # the links' schedules are desynchronised from slot 0.
        first_off = rng.exponential(self.mean_off) if self.mean_off > 0 else 0.0
        self._on = self.mean_off == 0.0
        self._phase_end = self._start + (
            rng.exponential(self.mean_on) if self._on else first_off
        )

    def _advance(self, now: float) -> None:
        if self._rng is None:
            raise RuntimeError("OnOffCBR used before bind()")
        while self._phase_end <= now:
            self._on = not self._on
            mean = self.mean_on if self._on else self.mean_off
            self._phase_end += self._rng.exponential(mean) if mean > 0 else 0.0
            if mean <= 0:  # degenerate zero-length phase: flip straight back
                self._phase_end += 1e-9

    def pacing_rate(self, now: float) -> float:
        self._advance(now)
        return self.rate if self._on else 0.0

    def wake_time(self, now: float) -> float:
        self._advance(now)
        return self._phase_end if not self._on else now
