"""The Gilbert burst-loss process (Section 6 of the paper).

Each link fluctuates between a *good* state (no drops) and a *bad* state
(drops everything).  Following the paper (and Paxson's measurements), the
probability of remaining in the bad state is fixed at 0.35; the remaining
transition probabilities are chosen so the chain's stationary bad-state
probability equals the link's assigned average loss rate ``l``:

    P(bad -> good) = 1 - P(bad -> bad) = 0.65
    P(good -> bad) = 0.65 * l / (1 - l)

so that ``pi_bad = P(g->b) / (P(g->b) + P(b->g)) = l``.  Chains start in
their stationary distribution, making every snapshot's expected loss
fraction exactly ``l`` while consecutive probes see bursty correlations —
the variance signal LIA exploits.

Realisation.  The random bitstream is one uniform per link for the
stationary start, then one ``num_links`` row of uniforms per transition,
drawn time-major; a slot's next state is ``u < P(b->b)`` from bad and
``u < P(g->b)`` from good.  The states are not stepped slot by slot.
Whenever ``P(g->b) <= P(b->b)`` (every rate up to ``stay_bad``, so all of
LLRD1), a draw below ``P(g->b)`` makes the link bad whatever its state,
so each bad run starts at one of those sparse draws and lasts while the
following draws stay below ``P(b->b)``.  The runs are grown from all
starts at once as a vectorised frontier, which costs one dense
comparison plus work proportional to the bad slots.  Links with
``P(g->b) > P(b->b)`` flip state on intermediate draws instead and are
resolved by a set/reset plus flip-parity scan down the block.  Both give the per-slot chain's
states bit for bit (``tests/oracles.py`` keeps that loop as the oracle).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.lossmodel.processes import STREAMING_CHUNK, LossProcess
from repro.utils.rng import SeedLike, as_rng


class GilbertProcess(LossProcess):
    """Two-state on/off loss chains, vectorised across links."""

    def __init__(self, stay_bad: float = 0.35):
        if not 0 <= stay_bad < 1:
            raise ValueError(f"stay_bad must be in [0, 1), got {stay_bad}")
        self.stay_bad = float(stay_bad)

    def good_to_bad(self, loss_rates: np.ndarray) -> np.ndarray:
        """P(good -> bad) per link for target average loss rates.

        Valid for targets below the chain's reachable ceiling
        ``1 / (2 - stay_bad)``; :meth:`effective_parameters` handles the
        full [0, 1] range.
        """
        rates = np.minimum(np.asarray(loss_rates, dtype=np.float64), 1.0 - 1e-9)
        leave_bad = 1.0 - self.stay_bad
        return leave_bad * rates / (1.0 - rates)

    def effective_parameters(
        self, loss_rates: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-link ``(P(good->bad), P(bad->bad))`` hitting any target rate.

        With ``P(bad->bad)`` fixed the stationary loss tops out at
        ``1 / (1 + (1 - stay_bad))`` (~0.61 at the paper's 0.35) — below
        LLRD2's upper range.  Beyond the ceiling we pin ``P(good->bad)``
        at 1 and lengthen bursts instead: ``P(bad->good) = (1-l)/l`` gives
        stationary loss exactly ``l`` all the way to the absorbing case
        ``l = 1``.
        """
        rates = np.asarray(loss_rates, dtype=np.float64)
        leave_bad = 1.0 - self.stay_bad
        ceiling = 1.0 / (1.0 + leave_bad)
        g2b = np.minimum(self.good_to_bad(rates), 1.0)
        stay = np.full_like(rates, self.stay_bad)
        high = rates > ceiling
        if high.any():
            g2b = np.where(high, 1.0, g2b)
            with np.errstate(divide="ignore", invalid="ignore"):
                leave = np.where(
                    rates > 0, (1.0 - rates) / np.maximum(rates, 1e-12), 1.0
                )
            stay = np.where(high, 1.0 - np.minimum(leave, 1.0), stay)
        return g2b, stay

    def iter_state_chunks(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
        chunk_size: int = STREAMING_CHUNK,
    ) -> Iterator[np.ndarray]:
        """True chunked realisation, bit-identical to the unchunked one.

        The chain draws its uniforms time-major (one ``num_links`` row
        per transition), so splitting ``rng.random((num_probes - 1,
        num_links))`` into consecutive ``(block, num_links)`` draws
        consumes the identical bitstream — only the chain state crosses
        chunk boundaries.  Each block is realised by :func:`_advance`.
        """
        rates = self._validated_rates(loss_rates)
        if num_probes <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        rng = as_rng(seed)
        g2b, stay = self.effective_parameters(rates)

        def chunks() -> Iterator[np.ndarray]:
            num_links = rates.shape[0]
            current = rng.random(num_links) < rates  # stationary start
            emitted = 0
            first = True
            while emitted < num_probes:
                block = min(chunk_size, num_probes - emitted)
                states = np.zeros((num_links, block), dtype=bool)
                start = 0
                if first:
                    states[:, 0] = current
                    start = 1
                    first = False
                uniforms = rng.random((block - start, num_links))
                _advance(uniforms, current, g2b, stay, states, start)
                current = states[:, -1].copy()
                yield states
                emitted += block

        return chunks()

    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        return next(
            self.iter_state_chunks(
                loss_rates, num_probes, seed=seed, chunk_size=num_probes
            )
        )

    def burst_length_mean(self) -> float:
        """Expected bad-state sojourn (in probes): 1 / P(bad -> good)."""
        return 1.0 / (1.0 - self.stay_bad)


def _advance(
    uniforms: np.ndarray,
    current: np.ndarray,
    g2b: np.ndarray,
    stay: np.ndarray,
    states: np.ndarray,
    start: int,
) -> None:
    """Run the chains over *uniforms*; row ``r`` is written to column ``start + r``.

    *current* is each link's state just before the first row and
    *states* arrives all-good, so only bad slots are written.  The result
    equals the per-slot recurrence ``next = u < (stay if bad else g2b)``
    exactly, because every comparison is the same float comparison.

    * Links with ``g2b <= stay`` (every rate up to ``stay_bad``, and the
      absorbing ``l = 1``): ``u < g2b`` sends the chain bad whatever its
      state, ``u >= stay`` sends it good, and anything between holds it.
      A bad run therefore starts at a sparse ``u < g2b`` draw (or at a
      carried bad state) and lasts while the next draw holds.  The runs
      are grown from their starts as one vectorised frontier, so the
      cost is the number of bad slots, not links x probes.
    * Links with ``g2b > stay``: ``u < stay`` sets, ``u >= g2b`` resets
      and anything between flips the state.  The state is the last
      set/reset (or the carried state) XOR the parity of the flips since,
      computed with running maxima and sums down the block.
    """
    rows, num_links = uniforms.shape
    if rows == 0:
        return
    hold = g2b <= stay
    block = states.shape[1]
    flat = uniforms.ravel()
    size = flat.size
    starts = np.flatnonzero(uniforms < np.where(hold, g2b, -1.0))
    carried = np.flatnonzero(current & hold)  # row-0 positions of bad chains
    bad = [starts]
    cand = np.concatenate((starts + num_links, carried))
    while True:
        cand = cand[cand < size]
        links = cand % num_links
        u = flat[cand]
        cand = cand[(u >= g2b[links]) & (u < stay[links])]
        if not cand.size:
            break
        bad.append(cand)
        cand = cand + num_links
    slots = np.concatenate(bad)
    row, link = np.divmod(slots, num_links)
    states.ravel()[link * block + start + row] = True

    flip = np.flatnonzero(~hold)
    if flip.size:
        u = uniforms[:, flip]
        set_bad = u < stay[flip]
        event = set_bad | (u >= g2b[flip])
        flips = np.cumsum(~event, axis=0)
        last = np.maximum.accumulate(
            np.where(event, np.arange(rows)[:, None], -1), axis=0
        )
        seen = last >= 0
        at = np.maximum(last, 0), np.arange(flip.size)
        base = np.where(seen, set_bad[at], current[flip])
        since = flips - np.where(seen, flips[at], 0)
        states[flip, start:] = (base ^ (since & 1).astype(bool)).T
