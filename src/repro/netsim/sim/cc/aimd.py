"""Rate-based AIMD (Reno-style) background flows.

The classic TCP dynamic re-phrased for a paced rate instead of a window:
every ack nudges the rate up so it gains ``INCREASE_PER_RTT`` service
units per smoothed RTT; every loss (outside a one-RTT refractory window,
mirroring Reno's once-per-window halving) multiplies it by ``BETA``.
Sharing a FIFO with these flows gives the queue the sawtooth occupancy
pattern — and the loss bursts at the sawtooth peaks — that congestion
measurements actually see.
"""

from __future__ import annotations

from repro.netsim.sim.cc.base import CongestionController
from repro.netsim.sim.packet import Packet


class AIMDController(CongestionController):
    """Additive-increase / multiplicative-decrease pacing."""

    #: Service units of rate gained per smoothed RTT.
    INCREASE_PER_RTT = 1.0
    #: Multiplicative backoff on a loss: Reno's halving.
    BETA = 0.5
    #: Smoothed RTT before the first ack, in slots.
    RTT_GUESS = 1.0
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
        self.srtt = self.RTT_GUESS
        self._last_backoff = float("-inf")
        self.acks = 0
        self.losses = 0
        self.backoffs = 0

    def on_ack(self, now: float, packet: Packet, rtt: float) -> None:
        self.acks += 1
        self.srtt += 0.125 * (rtt - self.srtt)  # Jacobson's EWMA
        # Acks arrive at ~rate per slot, so adding
        # INCREASE_PER_RTT / (rate * srtt) per ack integrates to
        # +INCREASE_PER_RTT units of rate per smoothed RTT.
        gain = self.INCREASE_PER_RTT * packet.size / (self.rate * self.srtt)
        self.rate = min(self.max_rate, self.rate + gain)

    def on_loss(self, now: float, packet: Packet) -> None:
        self.losses += 1
        if now - self._last_backoff < self.srtt:
            return  # one halving per RTT window, like Reno
        self._last_backoff = now
        self.backoffs += 1
        self.rate = max(self.MIN_RATE, self.rate * self.BETA)
