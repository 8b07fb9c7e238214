"""Packet-loss processes: the common interface.

A loss process turns a vector of per-link *average* loss rates into a
realisation of per-probe link states for one snapshot.  Two realisations
matter to the paper:

* :class:`~repro.lossmodel.gilbert.GilbertProcess` — bursty on/off losses
  (the paper's default; "losses due to congestion occur in bursts");
* :class:`~repro.lossmodel.bernoulli.BernoulliProcess` — memoryless drops
  (the paper's control; "differences are insignificant").

The interface exposes two granularities so the probing simulator can trade
fidelity for speed:

``sample_states(loss_rates, num_probes, seed)``
    ``(num_links, num_probes)`` boolean array, True where the link drops
    the probe sent at that index.  All paths crossing a link observe the
    same realisation, which is exactly Assumption S.1.  The matrix is
    dense but mostly False at realistic rates: the Gilbert process
    writes only its bad runs into it, and the packet prober reads back
    only its True entries.

``sample_loss_fractions(loss_rates, num_probes, seed)``
    Per-link fraction of dropped probes for the snapshot (the flow-level
    shortcut; defaults to the row means of ``sample_states``).

For long snapshots the fraction path *streams*: above
``STREAMING_PROBE_THRESHOLD`` probes the mean is accumulated over
``iter_state_chunks`` blocks instead of materialising the full
``(num_links, num_probes)`` boolean matrix — a 1M-probe snapshot over
10k links would otherwise allocate ~10 GB to compute a 10k-vector.
The default chunk iterator yields one full block (always correct);
processes whose draw order permits it override with true fixed-size
chunks, and the override must keep the result bit-identical to the
unchunked path.  The Gilbert process does: its uniforms are drawn
time-major, and only each chain's state crosses a chunk boundary.
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.utils.rng import SeedLike

#: ``sample_loss_fractions`` materialises the full drop matrix up to this
#: many probes; beyond it the mean is streamed chunk by chunk.
STREAMING_PROBE_THRESHOLD = 4096

#: Probe-columns per streamed block.
STREAMING_CHUNK = 2048


class LossProcess(abc.ABC):
    """Base class for per-link packet-loss processes."""

    @abc.abstractmethod
    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Boolean drop matrix of shape ``(num_links, num_probes)``."""

    def iter_state_chunks(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
        chunk_size: int = STREAMING_CHUNK,
    ) -> Iterator[np.ndarray]:
        """Yield the drop matrix as ``(num_links, <=chunk_size)`` blocks.

        Concatenating the blocks along axis 1 must reproduce
        ``sample_states`` bit for bit.  The default yields one full
        block, which is trivially correct for any process (including
        those, like the congestion simulator, whose realisation cannot
        be split without changing it); subclasses with a
        time-major draw order override this with true chunking.
        """
        return iter((self.sample_states(loss_rates, num_probes, seed=seed),))

    def sample_loss_fractions(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Per-link empirical loss fraction over one snapshot.

        Streams the mean through ``iter_state_chunks`` above
        ``STREAMING_PROBE_THRESHOLD`` probes; a drop count is an exact
        int64, so ``count / num_probes`` equals the materialised row
        mean bit for bit.
        """
        if num_probes <= STREAMING_PROBE_THRESHOLD:
            states = self.sample_states(loss_rates, num_probes, seed=seed)
            return states.mean(axis=1)
        counts = None
        seen = 0
        for chunk in self.iter_state_chunks(loss_rates, num_probes, seed=seed):
            block = chunk.sum(axis=1, dtype=np.int64)
            counts = block if counts is None else counts + block
            seen += chunk.shape[1]
        if counts is None or seen != num_probes:
            raise RuntimeError(
                f"iter_state_chunks covered {seen} of {num_probes} probes"
            )
        return counts / float(num_probes)

    @staticmethod
    def _validated_rates(loss_rates: np.ndarray) -> np.ndarray:
        rates = np.asarray(loss_rates, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("loss_rates must be one-dimensional")
        if np.any((rates < 0) | (rates > 1)):
            raise ValueError("loss rates must lie in [0, 1]")
        return rates
