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
    shortcut).  The default is the row means of ``sample_states``; the
    two processes the paper uses override it so that no state matrix is
    built at any probe count.  Bernoulli draws one binomial per link.
    Gilbert sums each link's bad runs in slabs of bounded size and
    returns the same values as the row means at the same seed, bit for
    bit.  A million-probe snapshot over 10k links then needs the memory
    of one slab, not the ~10 GB of its matrix.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.rng import SeedLike


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

    def sample_loss_fractions(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Per-link empirical loss fraction over one snapshot."""
        return self.sample_states(loss_rates, num_probes, seed=seed).mean(axis=1)

    @staticmethod
    def _validated_rates(loss_rates: np.ndarray, num_probes: int) -> np.ndarray:
        rates = np.asarray(loss_rates, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("loss_rates must be one-dimensional")
        if np.any((rates < 0) | (rates > 1)):
            raise ValueError("loss rates must lie in [0, 1]")
        if num_probes <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        return rates
