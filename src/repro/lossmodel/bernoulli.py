"""Memoryless (Bernoulli) packet-loss process.

The paper's control experiment: "we also run simulations with Bernoulli
losses, where packets are dropped on a link with a fixed probability, but
the differences are insignificant."  Useful both as that control and as a
fast baseline in tests, since its snapshot loss fraction is a plain
binomial proportion.
"""

from __future__ import annotations

import numpy as np

from repro.lossmodel.processes import LossProcess
from repro.utils.rng import SeedLike, as_rng


class BernoulliProcess(LossProcess):
    """Independent per-probe drops at each link's average loss rate."""

    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        rates = self._validated_rates(loss_rates, num_probes)
        rng = as_rng(seed)
        return rng.random((rates.shape[0], num_probes)) < rates[:, None]

    def sample_loss_fractions(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        # Binomial shortcut: no need to materialise the state matrix.
        rates = self._validated_rates(loss_rates, num_probes)
        rng = as_rng(seed)
        drops = rng.binomial(num_probes, rates)
        return drops / float(num_probes)
