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

from repro.utils import check_real


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

    def pace(self, now: float, rate: float, size: float) -> tuple[bool, float]:
        """Set the rate, try to send *size*, and report the next ready time.

        Tokens accrued since the last call are credited at the old rate,
        then the new *rate* applies.  Returns ``(sent, ready)``: whether
        *size* tokens were there and were spent, and the earliest time
        the next *size* tokens are there (``now`` if they already are,
        ``inf`` at rate 0).
        """
        if rate < 0:
            raise ValueError(f"pacing rate must be non-negative, got {rate}")
        tokens = self._tokens
        if now > self._updated:
            # accrual up to now runs at the old rate
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
            # The deficit is real (a send now would be refused) but the
            # wait is below float resolution at this timestamp; one
            # representable tick accrues more than the deficit, so step
            # exactly there instead of livelocking the caller at a
            # frozen clock.
            ready = math.nextafter(now, math.inf)
        return sent, ready
