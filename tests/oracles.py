"""Seed implementations kept as pinning oracles for the equivalence tests.

The array-backed incremental basis in :mod:`repro.core.linalg`
reorders floating-point sums relative to the seed's pure-Python loop, so
the tests pin it to that loop to tight tolerances.  They also pin the
bulk construction of the intersecting pairs to the seed's per-link loop,
phase 1's flat-array normal equations to the ``scipy.sparse`` products
they replaced, the routing matrix's ``reduceat`` aggregations to
per-virtual-link loops, the campaign's one-shot log matrix to
per-snapshot logs, the monitor's mask-diffed link states to the seed's
set-based bookkeeping, event for event, the pacer's one-refill
``pace`` to the refill / rate / send / ready-time calls it fused, and
the packet simulator (its departure-time FIFO and its link-local taps
and drivers) to a run with every source on the event heap and an
event-driven link that scheduled every service completion, trace for
trace.  The seed's per-slot Gilbert
chain is the control of the sojourn sampler's law tests: both must pass
them.  Do not use any of these outside the tests.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.augmented import IntersectingPairs, pair_row_index
from repro.core.variance import _equation_weights
from repro.monitor.online import AnomalyEvent
from repro.netsim.sim.pacer import Pacer
from repro.netsim.sim.packet import Packet


class SeedColumnBasis:
    """The seed's incremental basis: a per-vector Gram–Schmidt loop.

    Same interface as :class:`repro.core.linalg.IncrementalColumnBasis`
    (``try_add``, ``rank``, ``basis_matrix``) and the same acceptance
    rule, with the orthogonalisation written as two passes over the
    basis vectors one at a time.
    """

    def __init__(self, dimension: int, rel_tol: float = 1e-9) -> None:
        self.dimension = dimension
        self.rel_tol = rel_tol
        self._vectors: List[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self._vectors)

    @property
    def basis_matrix(self) -> np.ndarray:
        if not self._vectors:
            return np.empty((self.dimension, 0))
        return np.column_stack(self._vectors)

    def try_add(self, column: np.ndarray) -> bool:
        v = np.array(column, dtype=np.float64)
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            return False
        for b in self._vectors:
            v -= (b @ v) * b
        for b in self._vectors:
            v -= (b @ v) * b
        norm1 = float(np.linalg.norm(v))
        if norm1 <= self.rel_tol * norm0:
            return False
        self._vectors.append(v / norm1)
        return True


def gilbert_states_reference(
    loss_rates: np.ndarray,
    num_probes: int,
    rng: np.random.Generator,
    g2b: np.ndarray,
    stay: np.ndarray,
) -> np.ndarray:
    """The seed Gilbert realisation: one ``np.where`` step per probe slot.

    A stationary start (bad when ``u < rate``), then one time-major row
    of uniforms per transition: from bad the next slot is bad when
    ``u < stay``, from good when ``u < g2b``.
    """
    rates = np.asarray(loss_rates, dtype=np.float64)
    num_links = rates.shape[0]
    current = rng.random(num_links) < rates
    states = np.empty((num_links, num_probes), dtype=bool)
    states[:, 0] = current
    uniforms = rng.random((num_probes - 1, num_links))
    for t in range(num_probes - 1):
        current = np.where(current, uniforms[t] < stay, uniforms[t] < g2b)
        states[:, t + 1] = current
    return states


def intersecting_pairs_reference(routing_matrix: np.ndarray) -> IntersectingPairs:
    """The seed builder of ``A``'s non-zero rows: one loop step per link.

    Each link's path set contributes the upper triangle of its pairs in
    that column; ``np.unique`` over the pair keys and the CSR build give
    the retained rows.
    """
    R = np.asarray(routing_matrix)
    if R.ndim != 2:
        raise ValueError("routing matrix must be two-dimensional")
    n_paths, n_links = R.shape

    row_keys: List[np.ndarray] = []
    col_ids: List[np.ndarray] = []
    for k in range(n_links):
        members = np.flatnonzero(R[:, k])
        if len(members) == 0:
            continue
        iu, ju = np.triu_indices(len(members))
        keys = pair_row_index(members[iu], members[ju], n_paths)
        row_keys.append(np.atleast_1d(keys))
        col_ids.append(np.full(len(iu), k, dtype=np.int64))

    if not row_keys:
        raise ValueError("routing matrix covers no links")
    all_keys = np.concatenate(row_keys)
    all_cols = np.concatenate(col_ids)
    unique_keys, compact_rows = np.unique(all_keys, return_inverse=True)

    matrix = sparse.csr_matrix(
        (
            np.ones(len(all_keys), dtype=np.float64),
            (compact_rows, all_cols),
        ),
        shape=(len(unique_keys), n_links),
    )

    # Recover (i, j) for each retained row from the canonical key.
    block_starts = np.cumsum(
        np.concatenate(([0], np.arange(n_paths, 0, -1)))
    )  # start key of each i-block
    pair_i = np.searchsorted(block_starts, unique_keys, side="right") - 1
    pair_j = unique_keys - block_starts[pair_i] + pair_i
    return IntersectingPairs(
        indptr=matrix.indptr.astype(np.int64),
        indices=matrix.indices.astype(np.int64),
        data=matrix.data,
        pair_i=pair_i,
        pair_j=pair_j,
        num_links=n_links,
    )


def pairs_matrix(pairs: IntersectingPairs) -> sparse.csr_matrix:
    """The pairs' CSR arrays as a ``scipy.sparse`` matrix."""
    return sparse.csr_matrix(
        (pairs.data, pairs.indices, pairs.indptr),
        shape=(pairs.num_pairs, pairs.num_links),
    )


def phase1_reference(
    pairs: IntersectingPairs,
    sigma: np.ndarray,
    path_variances: np.ndarray,
    num_snapshots: int,
    method: str = "wls",
    drop_negative: bool = True,
) -> Tuple[np.ndarray, float, Optional[float]]:
    """Phase 1 with ``scipy.sparse`` products: row-sliced ``A``,
    ``diags(w) @ A`` for WLS, ``A.T @ A`` and ``A.T @ b`` densified.

    Returns the variances, the unweighted residual norm and, for
    ``"wls"``, the weighted one.  Takes valid moments only.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    keep = None
    if drop_negative and (sigma < 0.0).any():
        keep = ~(sigma < 0.0)
    matrix = pairs_matrix(pairs)
    plain = matrix if keep is None else matrix[keep]
    target = sigma if keep is None else sigma[keep]

    def solve(A, b):
        if method == "nnls":
            from scipy import optimize

            solution, _ = optimize.nnls(A.toarray(), b)
            return solution
        AtA = (A.T @ A).toarray()
        Atb = A.T @ b
        ridge = 1e-10 * np.trace(AtA) / max(AtA.shape[0], 1)
        return np.linalg.solve(AtA + ridge * np.eye(AtA.shape[0]), Atb)

    weighted_residual = None
    if method == "wls":
        weights = _equation_weights(path_variances, pairs, sigma, num_snapshots)
        if keep is not None:
            weights = weights[keep]
        A = sparse.diags(weights) @ plain
        b = weights * target
        v = solve(A, b)
        weighted_residual = float(np.linalg.norm(A @ v - b))
    else:
        v = solve(plain, target)
    return v, float(np.linalg.norm(plain @ v - target)), weighted_residual


def aggregate_reference(routing, physical: np.ndarray, kind: str) -> np.ndarray:
    """One routing-matrix aggregation as a loop over the virtual links.

    *kind* is ``"log_rates"`` (sum over members), ``"rates"`` (product)
    or ``"any"`` (logical or).
    """
    if kind == "any":
        physical = np.asarray(physical, dtype=bool)
        out = np.zeros(routing.num_links, dtype=bool)
    else:
        physical = np.asarray(physical, dtype=np.float64)
        out = np.zeros(routing.num_links, dtype=np.float64)
    for vlink in routing.virtual_links:
        members = physical[list(vlink.member_indices())]
        if kind == "log_rates":
            out[vlink.column] = members.sum()
        elif kind == "rates":
            out[vlink.column] = members.prod()
        else:
            out[vlink.column] = bool(members.any())
    return out


def log_matrix_reference(campaign, floor: Optional[float] = None) -> np.ndarray:
    """The campaign's log matrix as one ``path_log_rates`` per snapshot."""
    return np.vstack([s.path_log_rates(floor) for s in campaign.snapshots])


def update_states_reference(
    congested_since: Dict[int, int],
    time_index: int,
    loss_rates: np.ndarray,
    congestion_threshold: float,
) -> List[AnomalyEvent]:
    """The seed monitor's set-based link-state update.

    Mutates *congested_since* (column -> onset time) and returns the
    ``onset`` events, by column, then the ``cleared`` events, by column.
    """
    events: List[AnomalyEvent] = []
    congested_now = set(
        int(c) for c in np.flatnonzero(loss_rates > congestion_threshold)
    )
    for column in sorted(congested_now - set(congested_since)):
        congested_since[column] = time_index
        events.append(
            AnomalyEvent(
                time_index=time_index,
                column=column,
                kind="onset",
                inferred_loss_rate=float(loss_rates[column]),
            )
        )
    for column in sorted(set(congested_since) - congested_now):
        onset = congested_since.pop(column)
        events.append(
            AnomalyEvent(
                time_index=time_index,
                column=column,
                kind="cleared",
                inferred_loss_rate=float(loss_rates[column]),
                duration_snapshots=time_index - onset,
            )
        )
    return events


class SplitPacer(Pacer):
    """The token bucket as separate refill, rate, send and ready-time calls.

    ``set_rate``, ``try_send`` and ``ready_time`` called in that order
    at one ``now`` are :meth:`Pacer.pace`, float for float.
    """

    __slots__ = ()

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                self.bucket, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now

    def set_rate(self, rate: float, now: float) -> None:
        """Change the refill rate, crediting tokens accrued so far."""
        self._refill(now)
        self.rate = float(rate)

    def try_send(self, now: float, size: float) -> bool:
        """Consume *size* tokens if available; ``False`` means wait."""
        self._refill(now)
        if self._tokens + 1e-12 < size:
            return False
        self._tokens -= size
        return True

    def ready_time(self, now: float, size: float) -> float:
        """Earliest time *size* tokens will be available (``inf`` at rate 0)."""
        self._refill(now)
        deficit = size - self._tokens
        if deficit <= 1e-12:
            return now
        if self.rate <= 0.0:
            return float("inf")
        ready = now + deficit / self.rate
        if ready <= now:
            ready = math.nextafter(now, math.inf)
        return ready


class EventDrivenSimLink:
    """The event-driven FIFO link: one event per service completion.

    Same constructor, counters and callbacks as
    :class:`repro.netsim.sim.link.SimLink`.  A departure fires as its own
    event and schedules the next hop's arrival, and a last-hop delivery
    fires as an event too, so a departure and an arrival at one instant
    resolve in push order.
    """

    def __init__(self, index, rate, delay, buffer, scheduler, on_drop=None, on_deliver=None):
        self.index = index
        self.rate = float(rate)
        self.delay = float(delay)
        self.buffer = int(buffer)
        self.scheduler = scheduler
        self.on_drop = on_drop
        self.on_deliver = on_deliver
        self._queue: Deque[Packet] = deque()
        self._busy = False
        self.arrivals = 0
        self.drops = 0
        self.served = 0

    def enqueue(self, packet: Packet) -> bool:
        self.arrivals += 1
        if len(self._queue) >= self.buffer:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet, self, self.scheduler.now)
            return False
        self._queue.append(packet)
        if not self._busy:
            self._busy = True
            self.scheduler.schedule(self.scheduler.now + packet.size / self.rate, self._depart)
        return True

    def _depart(self) -> None:
        now = self.scheduler.now
        packet = self._queue.popleft()
        self.served += 1
        self.scheduler.schedule(now + self.delay, self._arrive_downstream, packet)
        if self._queue:
            self.scheduler.schedule(now + self._queue[0].size / self.rate, self._depart)
        else:
            self._busy = False

    def _arrive_downstream(self, packet: Packet) -> None:
        hop = packet.hop + 1
        if hop == len(packet.route):
            now = self.scheduler.now
            packet.delivered_at = now
            if self.on_deliver is not None:
                self.on_deliver(packet, now)
            return
        packet.hop = hop
        packet.route[hop].enqueue(packet)


class HeapProbeTap:
    """The heap-driven probe tap: one scheduler event per probe.

    Each probe is a :class:`Packet` of flow ``flow_id`` whose sequence
    number is its slot, and the next slot's emission is scheduled at
    ``(phase + slot) + 1``.
    """

    def __init__(self, flow_id, link, num_probes, scheduler, phase=0.0, probe_size=0.05):
        self.flow_id = flow_id
        self.link = link
        self.num_probes = int(num_probes)
        self.phase = float(phase)
        self.probe_size = float(probe_size)
        self.scheduler = scheduler

    def start(self) -> None:
        self.scheduler.schedule(self.phase, self._emit, 0)

    def _emit(self, slot: int) -> None:
        scheduler = self.scheduler
        self.link.enqueue(
            Packet(self.flow_id, slot, (self.link,), scheduler.now, self.probe_size)
        )
        if slot + 1 < self.num_probes:
            scheduler.schedule(self.phase + slot + 1, self._emit, slot + 1)


def reference_run_snapshot(simulator, loss_rates, num_probes, seed):
    """``simulator.run_snapshot`` with every source on the event heap.

    Taps are :class:`HeapProbeTap`\\ s, the calibrated drivers are
    started with ``Host.start`` (so their acks and losses are events
    too), and links are :class:`EventDrivenSimLink`\\ s.  The streams,
    flows and push order are those of the simulator, and so are the
    constants, read off the simulator module (a test may monkeypatch
    them there); only ``events`` differs in the returned trace.
    """
    from repro.netsim.sim import simulator as sim
    from repro.netsim.sim.cc import OnOffCBR
    from repro.netsim.sim.clock import EventScheduler
    from repro.netsim.sim.host import Host

    rates = np.asarray(loss_rates, dtype=np.float64)
    active_links = simulator.active_links
    num_active = simulator.num_active_links
    num_cross = sim.NUM_AIMD_FLOWS + sim.NUM_PROBER_FLOWS
    seq = np.random.SeedSequence([int(seed)])
    streams = [
        np.random.default_rng(child)
        for child in seq.spawn(1 + num_active + num_cross)
    ]
    tap_rng, flow_streams = streams[0], streams[1:]

    scheduler = EventScheduler()
    drops = np.zeros((num_active, num_probes), dtype=bool)
    full_sojourn = sim.BUFFER_PACKETS / sim.CAPACITY_PER_SLOT + sim.PROP_DELAY_SLOTS
    delays = np.full((num_active, num_probes), full_sojourn)
    horizon = float(num_probes)
    end = horizon + (sim.BUFFER_PACKETS / sim.CAPACITY_PER_SLOT + (sim.PROP_DELAY_SLOTS + 1.0))
    hosts: Dict[int, Host] = {}
    row_of = {int(k): r for r, k in enumerate(active_links)}
    probe_drops = 0

    def on_drop(packet, link, now):
        nonlocal probe_drops
        if packet.flow_id < 0:
            drops[row_of[link.index], packet.sequence] = True
            probe_drops += 1
        else:
            hosts[packet.flow_id].handle_drop(packet, link, now)

    def on_deliver(packet, now):
        if packet.flow_id < 0:
            if now > end:  # delivered after the run: unresolved
                return
            link = packet.route[-1]
            delays[row_of[link.index], packet.sequence] = now - packet.sent_at
        else:
            hosts[packet.flow_id].handle_delivery(packet, now)

    links = {
        int(k): EventDrivenSimLink(
            int(k), sim.CAPACITY_PER_SLOT, sim.PROP_DELAY_SLOTS,
            sim.BUFFER_PACKETS, scheduler, on_drop, on_deliver,
        )
        for k in active_links
    }
    phases = tap_rng.random(num_active)
    for r, k in enumerate(active_links):
        HeapProbeTap(
            -1 - r, links[int(k)], num_probes, scheduler,
            float(phases[r]), sim.PROBE_SIZE,
        ).start()

    flow_id = 0
    for r, k in enumerate(active_links):
        target = float(rates[int(k)])
        rng = flow_streams[r]
        if target <= sim.MIN_DRIVER_LOSS:
            continue
        cc = OnOffCBR.for_target_loss(
            min(target, 0.95),
            capacity=sim.CAPACITY_PER_SLOT,
            buffer=sim.BUFFER_PACKETS,
        )
        cc.bind(rng)
        hosts[flow_id] = Host(
            flow_id, (links[int(k)],), cc, scheduler, bucket=2.0,
            start_time=float(rng.random()), stop_time=horizon,
        )
        hosts[flow_id].start()
        flow_id += 1

    cross_rate = sim.CROSS_RATE_FRACTION * sim.CAPACITY_PER_SLOT
    cross_cap = sim.CROSS_MAX_FRACTION * sim.CAPACITY_PER_SLOT
    for c in range(num_cross):
        rng = flow_streams[num_active + c]
        route_links = simulator._paths[int(rng.integers(len(simulator._paths)))]
        controller = (
            sim.AIMDController if c < sim.NUM_AIMD_FLOWS
            else sim.RateProber
        )
        cc = controller(
            initial_rate=max(cross_rate, 0.1), min_rate=0.1, max_rate=cross_cap
        )
        cc.bind(rng)
        hosts[flow_id] = Host(
            flow_id, tuple(links[i] for i in route_links), cc, scheduler,
            bucket=2.0, start_time=float(rng.random()), stop_time=horizon,
        )
        hosts[flow_id].start()
        flow_id += 1

    scheduler.run_until(end)
    return sim.SnapshotTrace(
        active_links=active_links,
        drops=drops,
        delays_ms=delays * sim.SLOT_MS,
        events=scheduler.events_dispatched,
        packets_forwarded=sum(link.served for link in links.values()),
        background_sent=sum(h.packets_sent for h in hosts.values()),
        probe_drops=probe_drops,
    )
