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

Realisation.  The chain is not stepped slot by slot.  Its sojourns are
geometric, so a link's snapshot is fixed by its start state (one uniform
per link, bad when ``u < l``) and the lengths of its alternating runs:
good runs ~ Geometric(P(g->b)), bad runs ~ Geometric(1 - P(b->b)), each
drawn by inversion as ``floor(E / -log(1 - p)) + 1`` from one standard
exponential ``E``.  This is the per-slot chain's exact law, not its
bitstream (``tests/oracles.py`` keeps the per-slot loop, and the tests
hold both to the chain's closed forms).  A link draws its runs as
(good, bad) pairs, as many as its expected number of state changes over
the snapshot plus a margin; a link that starts bad gets an empty first
good run, and the few links whose pairs fall short of the snapshot draw
another batch in a further round.  Rates of 0 and 1 give infinite
sojourns, clipped to the snapshot.  The cost is a few draws per state
change instead of one uniform per link slot.

Memory.  The pairs are drawn and resolved in slabs of at most
:data:`SLAB_PAIRS`, whatever the number of links or probes, and a link's
pairs may straddle slabs.  The draws are consumed in the same order for
any slab size, so the output does not depend on it.
:meth:`GilbertProcess.sample_loss_fractions` sums each link's bad runs
slab by slab and never builds the ``(links, probes)`` matrix that
:meth:`GilbertProcess.sample_states` fills with them.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.lossmodel.processes import LossProcess
from repro.utils.rng import SeedLike, as_rng

#: (good, bad) sojourn pairs resolved at a time; a pair costs about 100
#: bytes of working memory.
SLAB_PAIRS = 1 << 15


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

    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        rates = self._validated_rates(loss_rates, num_probes)
        states = np.zeros((rates.shape[0], num_probes), dtype=bool)
        flat = states.ravel()
        for link, start, length in self._bad_runs(rates, num_probes, seed):
            # Slot k of the concatenated runs lies in run r at flat index
            # link[r] * num_probes + start[r] + (k - slots before run r).
            first = link * num_probes + start - (np.cumsum(length) - length)
            flat[np.arange(int(length.sum())) + np.repeat(first, length)] = True
        return states

    def sample_loss_fractions(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Row means of :meth:`sample_states` at the same seed, bit for bit,
        summed from the bad runs without the state matrix."""
        rates = self._validated_rates(loss_rates, num_probes)
        counts = np.zeros(rates.shape[0])
        for link, _, length in self._bad_runs(rates, num_probes, seed):
            counts += np.bincount(link, weights=length, minlength=counts.size)
        return counts / float(num_probes)

    def burst_length_mean(self) -> float:
        """Expected bad-state sojourn (in probes): 1 / P(bad -> good)."""
        return 1.0 / (1.0 - self.stay_bad)

    def _bad_runs(
        self, rates: np.ndarray, num_probes: int, seed: SeedLike
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(link, start, length)`` int64 arrays of the bad runs.

        Runs are clipped to the snapshot, and every bad slot of every
        link is in exactly one yielded run.
        """
        rng = as_rng(seed)
        g2b, stay = self.effective_parameters(rates)
        leave = 1.0 - stay
        # A Geometric(p) length is floor(E * scale) + 1 with E ~ Exp(1):
        # the scale is inf for p = 0 (rate 0's good runs, rate 1's bad
        # runs) and 0 for p = 1.
        with np.errstate(divide="ignore"):
            scales = -1.0 / np.log1p(-np.column_stack((g2b, leave)))
        opens_bad = rng.random(rates.shape[0]) < rates  # stationary start
        active = np.arange(rates.shape[0])
        reached = np.zeros(rates.shape[0])
        span = float(num_probes)
        while active.size:
            pairs = _pairs_needed(span - reached, g2b[active], leave[active])
            ends = np.cumsum(pairs)
            total = int(ends[-1])
            for lo in range(0, total, SLAB_PAIRS):
                hi = min(lo + SLAB_PAIRS, total)
                a = int(np.searchsorted(ends, lo, side="right"))
                b = int(np.searchsorted(ends, hi, side="left")) + 1
                links = active[a:b]
                begun = ends[a:b] - pairs[a:b]
                count = np.minimum(ends[a:b], hi) - np.maximum(begun, lo)
                # Columns: good and bad run lengths, less one, clipped.
                runs = rng.standard_exponential((hi - lo, 2))
                runs *= np.repeat(scales[links], count, axis=0)
                np.floor(runs, out=runs)
                np.fmin(runs, span, out=runs)
                first = np.cumsum(count) - count
                if opens_bad is not None:
                    # A link whose next run is bad opens with an empty good run.
                    runs[first[(begun >= lo) & opens_bad[a:b]], 0] = -1.0
                end = runs[:, 0] + runs[:, 1]
                end += 2.0
                np.cumsum(end, out=end)
                before = end[first - 1]
                before[0] = 0.0
                end += np.repeat(reached[a:b] - before, count)
                reached[a:b] = end[first + count - 1]
                begin = end - runs[:, 1]
                begin -= 1.0
                keep = np.flatnonzero(begin < span)
                begin = begin[keep]
                yield (
                    np.repeat(links, count)[keep],
                    begin.astype(np.int64),
                    (np.minimum(end[keep], span) - begin).astype(np.int64),
                )
            short = reached < span
            active, reached = active[short], reached[short]
            opens_bad = None


def _pairs_needed(span: np.ndarray, g2b: np.ndarray, leave: np.ndarray) -> np.ndarray:
    """(good, bad) pairs to draw per link so they rarely fall short of *span*.

    A pair lasts ``1/g2b + 1/leave`` slots on average; by renewal theory
    the pairs completed in *span* slots have mean ``span * g2b * leave /
    (g2b + leave)`` and the variance below.  Four standard deviations and
    two spare pairs make a further round rare.
    """
    both = g2b + leave
    mean = span * g2b * leave / both
    var = mean * ((1.0 - g2b) * leave**2 + (1.0 - leave) * g2b**2) / both**2
    return np.ceil(mean + 4.0 * np.sqrt(var)).astype(np.int64) + 2
