"""Congestion-induced loss: the discrete-event simulator behind the seam.

:class:`CongestionLossProcess` plugs the packet-level simulator of
:mod:`repro.netsim.sim` into the same :class:`~repro.lossmodel.
processes.LossProcess` interface the analytic Gilbert/Bernoulli
processes implement, so the probing simulator, the Scenario pipeline,
and every estimator run unchanged on *emergent* losses: drops happen
because a finite FIFO overflowed under calibrated background traffic,
not because a chain said so.  Assumption S.1 (all paths crossing a link
see one loss realisation) holds structurally — there is exactly one
queue per link.

Links that no probing path traverses are not simulated (they carry no
realised traffic and are unobservable to every estimator); their rows
fall back to an analytic Bernoulli realisation from a dedicated
substream so the returned matrix still honours the assigned rates
link for link.

Determinism: the ``seed`` argument (an outer RNG in campaign use) is
collapsed into a single root integer, from which the simulator spawns
one stream per flow — the drop matrix is a pure function of
``(paths, loss_rates, num_probes, root seed)`` regardless of backend or
job count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.lossmodel.processes import LossProcess
from repro.netsim.sim.simulator import CongestionSimulator, SnapshotTrace
from repro.utils.rng import SeedLike, as_rng

#: Substream tag for the Bernoulli fallback rows of unprobed links.
_FALLBACK_TAG = 0x0FA11BAC


class CongestionLossProcess(LossProcess):
    """Loss realisations produced by queue overflow in a packet simulator."""

    def __init__(self, paths: Sequence[object], num_links: int) -> None:
        self.simulator = CongestionSimulator(paths, num_links)
        self.num_links = int(num_links)
        #: Trace of the most recent snapshot — the delay byproducts the
        #: congestion experiments feed into the delay estimator.
        self.last_trace: Optional[SnapshotTrace] = None
        #: With ``collect_traces`` on, every snapshot's trace is kept in
        #: order, so a campaign's loss realisations and its queueing-delay
        #: byproducts come from the *same* simulated packets.
        self.collect_traces = False
        self.traces: List[SnapshotTrace] = []

    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        rates = self._validated_rates(loss_rates, num_probes)
        if rates.shape[0] != self.num_links:
            raise ValueError(
                f"process built for {self.num_links} links, "
                f"got {rates.shape[0]} rates"
            )
        root = int(as_rng(seed).integers(0, 2**63 - 1))
        trace = self.simulator.run_snapshot(rates, num_probes, seed=root)
        states = self.simulator.expand_drops(trace)
        inactive = np.setdiff1d(
            np.arange(self.num_links), trace.active_links, assume_unique=True
        )
        if inactive.size:
            fallback = np.random.default_rng(
                np.random.SeedSequence([root, _FALLBACK_TAG])
            )
            states[inactive] = (
                fallback.random((inactive.size, num_probes))
                < rates[inactive, None]
            )
        self.last_trace = trace
        if self.collect_traces:
            self.traces.append(trace)
        return states
