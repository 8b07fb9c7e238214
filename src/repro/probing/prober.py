"""The probing simulator: periodic unicast probes over a lossy network.

Replaces the paper's PlanetLab probing infrastructure (Section 7.1: 40-byte
UDP probes, 10 ms inter-arrival, 1000 probes per 10 s slot).  Two fidelity
modes exercise the same downstream estimator code:

* ``"packet"`` — every link runs one loss-process realisation per snapshot
  (a boolean drop sequence indexed by probe slot); a path's probe survives
  when *no* traversed link drops that slot.  All paths crossing a link see
  the same realisation, which makes Assumption S.1 hold exactly and
  induces the cross-path covariance LIA feeds on.
* ``"flow"`` — each link contributes its snapshot loss *fraction*; a
  path's transmission rate is the product of per-link survival fractions,
  optionally re-sampled through a binomial to model path-level sampling
  noise.  ~10x faster, used for large sweeps.

Ground truth (congestion marks + average rates) evolves across snapshots
according to :class:`ProberConfig.truth_mode`: held fixed (default, the
regime of the Section 6 results), redrawn i.i.d., Markov-persistent, or
driven by per-link congestion propensities (the Section 7 churn regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.lossmodel.assignment import (
    SnapshotGroundTruth,
    draw_link_propensities,
    draw_snapshot_truth,
    persistent_congestion_truth,
    truth_from_propensities,
)
from repro.lossmodel.gilbert import GilbertProcess
from repro.lossmodel.models import LLRD1, LossRateModel
from repro.lossmodel.processes import LossProcess
from repro.topology.graph import Path, path_link_arrays
from repro.topology.routing import RoutingMatrix
from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.utils import check_count
from repro.utils.rng import SeedLike, as_rng

FIDELITY_MODES = ("packet", "flow")
TRUTH_MODES = ("fixed", "redraw", "persistent", "propensity")


@dataclass
class ProberConfig:
    """Knobs of one probing campaign (paper defaults).

    ``truth_mode`` controls how ground truth evolves across snapshots:

    * ``"fixed"`` (default) — the congested set and average rates are
      drawn once and held for the whole campaign; snapshots differ only
      through the bursty packet process.  This is the regime in which the
      variance ordering of Section 5.2 is informative (a congested link
      "will experience different congestion levels at different times",
      Assumption S.1's discussion) and is how the paper's Figure 5/6
      accuracy is achievable.
    * ``"redraw"`` — independent truth per snapshot (the literal sentence
      of Section 6).  Every link then shares the same marginal process,
      so across-snapshot variances no longer separate the classes; kept
      as an ablation.
    * ``"persistent"`` — Markov evolution: each link keeps its congestion
      mark with probability ``persistence`` per snapshot (duration study).
    * ``"propensity"`` — per-link congestion probabilities are drawn once
      (a ``congestion_probability`` fraction of links become trouble-prone
      with per-snapshot congestion probability in ``propensity_range``);
      each snapshot redraws states from those probabilities.  This is the
      Internet-experiment regime of Section 7: congestion churns per
      snapshot, but propensity is a stable per-link property that the
      variance learning phase can rank.
    """

    probes_per_snapshot: int = 1000
    congestion_probability: float = 0.10
    fidelity: str = "packet"
    truth_mode: str = "fixed"
    persistence: float = 0.9
    propensity_range: "tuple[float, float]" = (0.3, 0.9)
    #: In flow mode, re-sample each path's rate through Binomial(S, rate).
    path_sampling_noise: bool = True

    def __post_init__(self) -> None:
        if check_count("probes_per_snapshot", self.probes_per_snapshot) <= 0:
            raise ValueError("probes_per_snapshot must be positive")
        if not 0 <= self.congestion_probability <= 1:
            raise ValueError("congestion_probability must be in [0, 1]")
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_MODES}, got {self.fidelity!r}"
            )
        if self.truth_mode not in TRUTH_MODES:
            raise ValueError(
                f"truth_mode must be one of {TRUTH_MODES}, got {self.truth_mode!r}"
            )
        if not 0 <= self.persistence <= 1:
            raise ValueError("persistence must be in [0, 1]")
        lo, hi = self.propensity_range
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"bad propensity_range {self.propensity_range}")


class ProbingSimulator:
    """Simulate snapshots of end-to-end measurements over known paths.

    Parameters
    ----------
    paths:
        The probing paths (physical link sequences).
    num_physical_links:
        Total number of physical links in the network (sizes the per-link
        ground-truth vectors).
    model, process, config:
        Loss-rate model (LLRD1/LLRD2), packet process (Gilbert/Bernoulli)
        and campaign configuration.
    """

    def __init__(
        self,
        paths: Sequence[Path],
        num_physical_links: int,
        model: LossRateModel = LLRD1,
        process: Optional[LossProcess] = None,
        config: Optional[ProberConfig] = None,
    ) -> None:
        if not paths:
            raise ValueError("need at least one probing path")
        if num_physical_links <= 0:
            raise ValueError("num_physical_links must be positive")
        path_links = path_link_arrays(paths, num_physical_links)
        self.paths = list(paths)
        self.num_physical_links = num_physical_links
        self.model = model
        self.process = process if process is not None else GilbertProcess()
        self.config = config if config is not None else ProberConfig()
        # Sparse (paths x physical links) membership matrix: flow mode's
        # path rates are one matmul with the per-link log survivals.
        indptr = np.zeros(len(self.paths) + 1, dtype=np.int64)
        np.cumsum([links.size for links in path_links], out=indptr[1:])
        indices = np.concatenate(path_links)
        self._membership = sparse.csr_matrix(
            (
                np.ones(indices.size, dtype=np.float64),
                indices,
                indptr,
            ),
            shape=(len(self.paths), num_physical_links),
        )
        # Its transpose for packet mode: the paths through link ``l`` are
        # ``_link_paths[_link_ptr[l]:_link_ptr[l + 1]]``.
        by_link = self._membership.tocsc()
        self._link_ptr = by_link.indptr.astype(np.int64)
        self._link_paths = by_link.indices.astype(np.int64)

    # -- single snapshot -----------------------------------------------------

    def run_snapshot(
        self,
        seed: SeedLike = None,
        truth: Optional[SnapshotGroundTruth] = None,
    ) -> Snapshot:
        """Simulate one snapshot; draw fresh ground truth unless given."""
        rng = as_rng(seed)
        if truth is None:
            truth = draw_snapshot_truth(
                self.num_physical_links,
                self.config.congestion_probability,
                self.model,
                seed=rng,
            )
        elif truth.num_links != self.num_physical_links:
            raise ValueError("ground truth does not match link count")

        if self.config.fidelity == "packet":
            rates, realized = self._measure_packet(truth, rng)
        else:
            rates, realized = self._measure_flow(truth, rng)
        return Snapshot(
            path_transmission=rates,
            num_probes=self.config.probes_per_snapshot,
            truth=truth,
            realized_loss_fractions=realized,
        )

    def _measure_packet(
        self, truth: SnapshotGroundTruth, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray]":
        num_probes = self.config.probes_per_snapshot
        drops = self.process.sample_states(truth.loss_rates, num_probes, seed=rng)
        # A probe is lost on a path iff some link of the path dropped its
        # slot.  Drops are sparse, so each dropped (link, slot) is fanned
        # out to the paths through that link and marked in a path x slot
        # mask.
        num_slots = drops.shape[1]
        link, slot = np.divmod(np.flatnonzero(drops), num_slots)
        begin = self._link_ptr[link]
        fanout = self._link_ptr[link + 1] - begin
        index = np.arange(int(fanout.sum())) + np.repeat(
            begin - (np.cumsum(fanout) - fanout), fanout
        )
        lost = np.zeros((len(self.paths), num_slots), dtype=bool)
        lost.ravel()[
            self._link_paths[index] * num_slots + np.repeat(slot, fanout)
        ] = True
        rates = 1.0 - np.count_nonzero(lost, axis=1) / num_slots
        dropped = np.bincount(link, minlength=drops.shape[0])
        return rates, dropped / num_slots

    def _measure_flow(
        self, truth: SnapshotGroundTruth, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray]":
        num_probes = self.config.probes_per_snapshot
        fractions = self.process.sample_loss_fractions(
            truth.loss_rates, num_probes, seed=rng
        )
        survival = 1.0 - fractions
        log_survival = np.log(np.maximum(survival, 1e-300))
        rates = np.exp(self._membership @ log_survival)
        if self.config.path_sampling_noise:
            rates = rng.binomial(num_probes, rates) / float(num_probes)
        return rates, fractions

    # -- campaigns -------------------------------------------------------------

    def run_campaign(
        self,
        num_snapshots: int,
        routing: RoutingMatrix,
        seed: SeedLike = None,
        truth_mode: Optional[str] = None,
        propensities: Optional[np.ndarray] = None,
    ) -> MeasurementCampaign:
        """Simulate *num_snapshots* snapshots over a fixed routing matrix.

        *truth_mode* overrides the config's ground-truth evolution mode
        (see :class:`ProberConfig`).  *propensities* supplies explicit
        per-physical-link congestion probabilities for ``"propensity"``
        mode (e.g. boosted on inter-AS links for the Table 3 study); when
        omitted they are drawn from the config.
        """
        if num_snapshots <= 0:
            raise ValueError("num_snapshots must be positive")
        mode = truth_mode if truth_mode is not None else self.config.truth_mode
        if mode not in TRUTH_MODES:
            raise ValueError(f"truth_mode must be one of {TRUTH_MODES}, got {mode!r}")
        rng = as_rng(seed)
        campaign = MeasurementCampaign(routing=routing)
        truth: Optional[SnapshotGroundTruth] = None
        if propensities is not None:
            propensities = np.asarray(propensities, dtype=np.float64)
            if propensities.shape != (self.num_physical_links,):
                raise ValueError("one propensity per physical link required")
            if mode != "propensity":
                raise ValueError(
                    "explicit propensities require truth_mode='propensity'"
                )
        elif mode == "propensity":
            propensities = draw_link_propensities(
                self.num_physical_links,
                self.config.congestion_probability,
                self.config.propensity_range,
                seed=rng,
            )
        for _ in range(num_snapshots):
            if mode == "propensity":
                truth = truth_from_propensities(propensities, self.model, seed=rng)
            elif truth is None or mode == "redraw":
                truth = draw_snapshot_truth(
                    self.num_physical_links,
                    self.config.congestion_probability,
                    self.model,
                    seed=rng,
                )
            elif mode == "persistent":
                truth = persistent_congestion_truth(
                    truth,
                    self.model,
                    redraw_fraction=1.0 - self.config.persistence,
                    seed=rng,
                )
            # mode == "fixed": keep the first draw for the whole campaign.
            campaign.append(self.run_snapshot(seed=rng, truth=truth))
        return campaign
