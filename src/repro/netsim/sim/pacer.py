"""Token-bucket pacing of packet emission.

Every :class:`~repro.netsim.sim.host.Host` sends through a
:class:`Pacer`: tokens accrue at the pacing rate (set by the host's
congestion controller) up to a bucket depth, and sending one packet
costs its size in tokens.  A depth of one packet gives smooth
inter-packet gaps of ``size / rate``; deeper buckets let a source burst
back-to-back after an idle period — the arrival pattern that actually
fills FIFO queues.
"""

from __future__ import annotations

import math

from repro.netsim.sim.config import check_real


class Pacer:
    """A token bucket: ``rate`` tokens per slot, capped at ``bucket``."""

    __slots__ = ("rate", "bucket", "_tokens", "_updated")

    def __init__(self, rate: float, bucket: float = 1.0, start: float = 0.0):
        if check_real("rate", rate) < 0:
            raise ValueError(f"pacing rate must be non-negative, got {rate}")
        if check_real("bucket", bucket) <= 0:
            raise ValueError(f"bucket depth must be positive, got {bucket}")
        self.rate = float(rate)
        self.bucket = float(bucket)
        self._tokens = float(bucket)  # start full: first packet goes now
        self._updated = float(start)

    def set_rate(self, rate: float, now: float) -> None:
        """Change the refill rate, crediting tokens accrued so far."""
        if rate < 0:
            raise ValueError(f"pacing rate must be non-negative, got {rate}")
        self._refill(now)
        self.rate = float(rate)

    def pace(self, now: float, rate: float, size: float) -> tuple[bool, float]:
        """Set the rate, try to send *size*, and report the next ready time.

        One refill does the work of :meth:`set_rate`, :meth:`try_send`
        and :meth:`ready_time` called in that order at the same *now*,
        with the same float operations: returns ``(sent, ready)`` where
        *ready* is the earliest time the next *size* tokens are there
        (``now`` if they already are, ``inf`` at rate 0).
        """
        if rate < 0:
            raise ValueError(f"pacing rate must be non-negative, got {rate}")
        tokens = self._tokens
        if now > self._updated:
            # accrual up to now runs at the old rate, as in set_rate
            tokens = min(self.bucket, tokens + (now - self._updated) * self.rate)
            self._updated = now
        self.rate = rate
        sent = not tokens + 1e-12 < size
        if sent:
            tokens -= size
        self._tokens = tokens
        deficit = size - tokens
        if deficit <= 1e-12:
            return sent, now
        if rate <= 0.0:
            return sent, math.inf
        ready = now + deficit / rate
        if ready <= now:
            ready = math.nextafter(now, math.inf)  # see ready_time
        return sent, ready

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                self.bucket, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now

    def tokens(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def try_send(self, now: float, size: float = 1.0) -> bool:
        """Consume *size* tokens if available; ``False`` means wait."""
        self._refill(now)
        if self._tokens + 1e-12 < size:
            return False
        self._tokens -= size
        return True

    def ready_time(self, now: float, size: float = 1.0) -> float:
        """Earliest time *size* tokens will be available (``inf`` at rate 0)."""
        self._refill(now)
        deficit = size - self._tokens
        if deficit <= 1e-12:
            return now
        if self.rate <= 0.0:
            return float("inf")
        ready = now + deficit / self.rate
        if ready <= now:
            # The deficit is real (try_send would refuse) but the wait is
            # below float resolution at this timestamp; one representable
            # tick accrues more than the deficit, so step exactly there
            # instead of livelocking the caller at a frozen clock.
            ready = math.nextafter(now, math.inf)
        return ready
