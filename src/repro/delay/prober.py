"""Delay measurement simulator.

Path delays are *additive* over links — the linear system ``Y = R D``
holds directly, without the log transform loss rates need — so the same
second-order machinery (augmented matrix, covariance equations) applies
verbatim.  A snapshot here is the per-path mean RTT/OWD over S probes;
per-probe jitter averages down by ``sqrt(S)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.delay.model import DEFAULT_DELAY_MODEL, DelayModel
from repro.topology.graph import Path, path_link_arrays
from repro.topology.routing import RoutingMatrix
from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class DelaySnapshot:
    """One slot of mean path delays plus simulator ground truth."""

    path_delays: np.ndarray  # (num_paths,) snapshot-mean delays, ms
    num_probes: int
    link_delays: Optional[np.ndarray] = None  # realized per-physical-link

    def __post_init__(self) -> None:
        delays = np.asarray(self.path_delays, dtype=np.float64)
        if delays.ndim != 1 or (delays < 0).any():
            raise ValueError("path delays must be a non-negative vector")
        object.__setattr__(self, "path_delays", delays)
        if self.num_probes <= 0:
            raise ValueError("num_probes must be positive")

    @property
    def num_paths(self) -> int:
        return int(self.path_delays.shape[0])

    def virtual_link_delays(self, routing: RoutingMatrix) -> np.ndarray:
        """Realized per-column delay (sum over alias members)."""
        if self.link_delays is None:
            raise ValueError("snapshot carries no link ground truth")
        out = np.zeros(routing.num_links)
        for vlink in routing.virtual_links:
            out[vlink.column] = self.link_delays[
                list(vlink.member_indices())
            ].sum()
        return out


@dataclass
class DelayCampaign:
    """Snapshots of mean path delays over one fixed routing matrix."""

    routing: RoutingMatrix
    snapshots: List[DelaySnapshot] = field(default_factory=list)

    def append(self, snapshot: DelaySnapshot) -> None:
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError("snapshot does not match routing matrix")
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> DelaySnapshot:
        return self.snapshots[index]

    def delay_matrix(self) -> np.ndarray:
        """``(m, num_paths)`` matrix of snapshot-mean path delays."""
        if not self.snapshots:
            raise ValueError("campaign is empty")
        return np.vstack([s.path_delays for s in self.snapshots])

    def split_training_target(self) -> "tuple[DelayCampaign, DelaySnapshot]":
        if len(self.snapshots) < 2:
            raise ValueError("need at least two snapshots")
        return (
            DelayCampaign(routing=self.routing, snapshots=self.snapshots[:-1]),
            self.snapshots[-1],
        )


class DelayProbingSimulator:
    """Simulate snapshots of mean path delays.

    Ground truth: base delays fixed for the campaign; a ``congestion_
    probability`` fraction of links is congested (fixed set, like the
    loss simulator's default) and re-draws its queueing delay each
    snapshot.
    """

    def __init__(
        self,
        paths: Sequence[Path],
        num_physical_links: int,
        model: DelayModel = DEFAULT_DELAY_MODEL,
        congestion_probability: float = 0.10,
        probes_per_snapshot: int = 1000,
        seed: SeedLike = None,
    ) -> None:
        if not paths:
            raise ValueError("need at least one probing path")
        if not 0 <= congestion_probability <= 1:
            raise ValueError("congestion_probability must be in [0, 1]")
        if probes_per_snapshot <= 0:
            raise ValueError("probes_per_snapshot must be positive")
        self._path_links = path_link_arrays(paths, num_physical_links)
        rng = as_rng(seed)
        self.paths = list(paths)
        self.num_physical_links = num_physical_links
        self.model = model
        self.probes_per_snapshot = probes_per_snapshot
        self.base_delays = model.draw_base_delays(num_physical_links, seed=rng)
        self.congested = rng.random(num_physical_links) < congestion_probability
        self.queue_means = model.draw_queue_means(self.congested, seed=rng)

    def run_snapshot(self, seed: SeedLike = None) -> DelaySnapshot:
        rng = as_rng(seed)
        link_delays = self.model.sample_snapshot_delays(
            self.base_delays, self.queue_means, seed=rng
        )
        noise_std = self.model.jitter_std / np.sqrt(self.probes_per_snapshot)
        delays = np.empty(len(self.paths))
        for i, links in enumerate(self._path_links):
            delays[i] = link_delays[links].sum()
        delays = np.maximum(delays + rng.normal(0.0, noise_std, len(delays)), 0.0)
        return DelaySnapshot(
            path_delays=delays,
            num_probes=self.probes_per_snapshot,
            link_delays=link_delays,
        )

    def run_campaign(
        self, num_snapshots: int, routing: RoutingMatrix, seed: SeedLike = None
    ) -> DelayCampaign:
        if num_snapshots <= 0:
            raise ValueError("num_snapshots must be positive")
        rng = as_rng(seed)
        campaign = DelayCampaign(routing=routing)
        for _ in range(num_snapshots):
            campaign.append(self.run_snapshot(seed=rng))
        return campaign
