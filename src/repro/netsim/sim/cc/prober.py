"""A BBR-like rate prober: burst above baseline, measure, adopt.

The state machine follows the net-rl ``ProbeController`` idiom: the
flow periodically enters a PROBE phase sending at ``PROBE_GAIN`` times
its baseline rate until it has sent at least ``MIN_PROBE_PACKETS`` over
at least ``MIN_PROBE_DURATION`` slots; the acks of that burst yield a
delivered-rate estimate

    est = min(send_rate, receive_rate)

(send rate from the first/last transmit stamps, receive rate from the
first/last ack stamps — the probed bottleneck rate), which becomes the
new baseline after a drain factor.  Between probes it cruises at the
baseline and reacts to losses with a gentle multiplicative backoff, so
on a shared FIFO it hunts the bandwidth the AIMD flows leave unused —
periodically shoving the queue towards overflow, which is exactly the
bursty cross-traffic pattern the congestion scenarios want.
"""

from __future__ import annotations

from repro.netsim.sim.cc.base import CongestionController
from repro.netsim.sim.packet import Packet

CRUISE = 0
PROBE = 1


class RateProber(CongestionController):
    """Periodic multiplicative rate probing with min(send, recv) estimation."""

    #: PROBE-phase send rate relative to the baseline.
    PROBE_GAIN = 3.0
    #: The baseline adopted after a probe, relative to its estimate.
    DRAIN_FACTOR = 0.9
    #: Slots of CRUISE between the end of one probe and the next.
    PROBE_PERIOD = 40.0
    #: A probe ends once it has sent this many packets over at least
    #: this many slots.
    MIN_PROBE_PACKETS = 5
    MIN_PROBE_DURATION = 1.5
    #: Multiplicative backoff on a loss (at most once per slot).
    LOSS_BETA = 0.9
    #: The floor a loss backoff never takes the rate below.
    MIN_RATE = 0.1

    def __init__(
        self,
        initial_rate: float,
        max_rate: float = float("inf"),
    ) -> None:
        if initial_rate <= 0:
            raise ValueError("rates must be positive")
        super().__init__(initial_rate)
        self.max_rate = float(max_rate)

        self.state = PROBE  # start with an initial exponential probe
        self.probes_completed = 0
        self._probe_start = 0.0
        self._next_probe_at = 0.0
        self._sent_count = 0
        self._first_sent = self._last_sent = None
        self._first_ack = self._last_ack = None
        self._acked_size = 0.0
        self._sent_size = 0.0
        self._last_backoff = float("-inf")

    # -- rate ------------------------------------------------------------------

    def pacing_rate(self, now: float) -> float:
        if self.state == CRUISE and now >= self._next_probe_at:
            self._enter_probe(now)
        if self.state == PROBE:
            return min(self.max_rate, self.rate * self.PROBE_GAIN)
        return self.rate

    def _enter_probe(self, now: float) -> None:
        self.state = PROBE
        self._probe_start = now
        self._sent_count = 0
        self._first_sent = self._last_sent = None
        self._first_ack = self._last_ack = None
        self._acked_size = 0.0
        self._sent_size = 0.0

    # -- feedback --------------------------------------------------------------

    def on_sent(self, now: float, packet: Packet) -> None:
        if self.state != PROBE:
            return
        if self._first_sent is None:
            self._first_sent = now
        self._last_sent = now
        self._sent_size += packet.size
        self._sent_count += 1

    def on_ack(self, now: float, packet: Packet, rtt: float) -> None:
        if self.state != PROBE:
            return
        # Only acks of packets sent inside this probe window count.
        if self._first_sent is None or packet.sent_at < self._probe_start:
            return
        if self._first_ack is None:
            self._first_ack = now
        self._last_ack = now
        self._acked_size += packet.size
        if (
            self._sent_count >= self.MIN_PROBE_PACKETS
            and now - self._probe_start >= self.MIN_PROBE_DURATION
        ):
            self._finish_probe(now)

    def _finish_probe(self, now: float) -> None:
        send_span = (self._last_sent or 0.0) - (self._first_sent or 0.0)
        ack_span = (self._last_ack or 0.0) - (self._first_ack or 0.0)
        if send_span > 0 and ack_span > 0:
            send_rate = self._sent_size / send_span
            recv_rate = self._acked_size / ack_span
            estimate = min(send_rate, recv_rate)
            self.rate = min(
                self.max_rate,
                max(self.MIN_RATE, self.DRAIN_FACTOR * estimate),
            )
        self.state = CRUISE
        self.probes_completed += 1
        self._next_probe_at = now + self.PROBE_PERIOD

    def on_loss(self, now: float, packet: Packet) -> None:
        if now - self._last_backoff < 1.0:
            return
        self._last_backoff = now
        self.rate = max(self.MIN_RATE, self.rate * self.LOSS_BETA)
