"""Seed implementations kept as pinning oracles for the equivalence tests.

The array-backed incremental basis in :mod:`repro.core.linalg`
reorders floating-point sums relative to the seed's pure-Python loop, so
the tests pin it to that loop to tight tolerances.  The Gilbert chain's
run-frontier realisation is pinned to the seed's per-slot loop bit for
bit, the bulk construction of the intersecting pairs to the seed's
per-link loop, the monitor's mask-diffed link states to the seed's
set-based bookkeeping, event for event, and the packet simulator's
departure-time FIFO to the event-driven link that scheduled every
service completion, trace for trace.  Do not use them outside the tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

import numpy as np
from scipy import sparse

from repro.core.augmented import IntersectingPairs, pair_row_index
from repro.monitor.online import AnomalyEvent
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
    chunk_size: int,
) -> List[np.ndarray]:
    """The seed Gilbert realisation: one ``np.where`` step per probe slot.

    Draws exactly what :meth:`GilbertProcess.iter_state_chunks` draws (a
    stationary start, then time-major ``(block, num_links)`` uniforms per
    chunk) and returns the chunks it would yield.
    """
    rates = np.asarray(loss_rates, dtype=np.float64)
    num_links = rates.shape[0]
    current = rng.random(num_links) < rates
    blocks: List[np.ndarray] = []
    emitted = 0
    while emitted < num_probes:
        block = min(chunk_size, num_probes - emitted)
        states = np.empty((num_links, block), dtype=bool)
        start = 0
        if not blocks:
            states[:, 0] = current
            start = 1
        uniforms = rng.random((block - start, num_links))
        for t in range(block - start):
            current = np.where(current, uniforms[t] < stay, uniforms[t] < g2b)
            states[:, start + t] = current
        blocks.append(states)
        emitted += block
    return blocks


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
    return IntersectingPairs(matrix=matrix, pair_i=pair_i, pair_j=pair_j)


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
