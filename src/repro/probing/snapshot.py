"""Snapshots and measurement campaigns (Section 3.3).

A *snapshot* is the collection of all end-to-end measurements taken by
sending ``S`` probes from each beacon to each destination in one time
slot.  A *campaign* is the sequence of ``m (+1)`` snapshots LIA consumes:
the first ``m`` train the link variances, the last one is the inference
target.

The paper works with log transmission rates ``Y_i = log(phi_i)``.  An
entirely lost path would give ``log 0``; we apply the standard continuity
correction, flooring the measured transmission rate at ``0.5 / S`` (half
a probe) before taking logs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.lossmodel.assignment import SnapshotGroundTruth
from repro.topology.routing import RoutingMatrix


def _check_num_probes(count: int) -> None:
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"num_probes must be an integer, got {count!r}")
    if count <= 0:
        raise ValueError(f"num_probes must be positive, got {count}")


def log_with_floor(
    transmission_rates: np.ndarray, num_probes: int, floor: Optional[float] = None
) -> np.ndarray:
    """``log`` of measured transmission rates with a continuity floor.

    *floor* defaults to ``0.5 / num_probes``; rates are clipped to
    ``[floor, 1]`` so the log is finite and non-positive.
    """
    _check_num_probes(num_probes)
    if floor is None:
        floor = 0.5 / float(num_probes)
    if not 0 < floor <= 1:
        raise ValueError(f"floor must be in (0, 1], got {floor}")
    rates = np.asarray(transmission_rates, dtype=np.float64)
    return np.log(np.clip(rates, floor, 1.0))


@dataclass(frozen=True)
class Snapshot:
    """One measurement slot: measured path rates plus simulator ground truth.

    Two notions of per-link truth coexist:

    * ``truth`` — the *assigned* averages (congestion marks and mean loss
      rates) the loss process was parameterised with;
    * ``realized_loss_fractions`` — the fraction of this snapshot's probe
      slots each physical link actually dropped.  This is the quantity
      ``X_k = log(phi_hat_ek)`` of the paper, the thing LIA estimates for
      *this* snapshot; accuracy metrics compare against it.

    Both cover *physical* links; project onto routing-matrix columns with
    the ``virtual_*`` methods.  Fields are ``None`` for snapshots built
    from external traces.
    """

    path_transmission: np.ndarray
    num_probes: int
    truth: Optional[SnapshotGroundTruth] = None
    realized_loss_fractions: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        rates = np.asarray(self.path_transmission, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("path_transmission must be one-dimensional")
        # Written so NaN fails too: every comparison with NaN is false.
        if not np.all((rates >= 0) & (rates <= 1)):
            raise ValueError("path_transmission rates must lie in [0, 1]")
        _check_num_probes(self.num_probes)
        object.__setattr__(self, "path_transmission", rates)
        if self.realized_loss_fractions is not None:
            realized = np.asarray(self.realized_loss_fractions, dtype=np.float64)
            if not np.all((realized >= 0) & (realized <= 1)):
                raise ValueError("realized_loss_fractions must lie in [0, 1]")
            object.__setattr__(self, "realized_loss_fractions", realized)

    @property
    def num_paths(self) -> int:
        return int(self.path_transmission.shape[0])

    def path_loss_rates(self) -> np.ndarray:
        return 1.0 - self.path_transmission

    def path_log_rates(self, floor: Optional[float] = None) -> np.ndarray:
        return log_with_floor(self.path_transmission, self.num_probes, floor)

    def virtual_loss_rates(self, routing: RoutingMatrix) -> np.ndarray:
        """Ground-truth loss rate of each routing-matrix column."""
        if self.truth is None:
            raise ValueError("snapshot carries no ground truth")
        return 1.0 - routing.aggregate_rates(self.truth.transmission_rates())

    def virtual_congested(self, routing: RoutingMatrix) -> np.ndarray:
        """Ground-truth congestion mark of each routing-matrix column."""
        if self.truth is None:
            raise ValueError("snapshot carries no ground truth")
        return routing.aggregate_any(self.truth.congested)

    def realized_virtual_loss_rates(self, routing: RoutingMatrix) -> np.ndarray:
        """Realized (this-snapshot) loss rate of each routing-matrix column.

        The per-column complement of the product of member survival
        fractions — what phase 2's ``X*`` estimates.
        """
        if self.realized_loss_fractions is None:
            raise ValueError("snapshot carries no realized link fractions")
        survival = 1.0 - self.realized_loss_fractions
        return 1.0 - routing.aggregate_rates(survival)


@dataclass
class MeasurementCampaign:
    """An ordered collection of snapshots over one fixed routing matrix."""

    routing: RoutingMatrix
    snapshots: List[Snapshot] = field(default_factory=list)

    def __post_init__(self) -> None:
        for snap in self.snapshots:
            self._check(snap)

    def _check(self, snapshot: Snapshot) -> None:
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError(
                f"snapshot has {snapshot.num_paths} paths, routing matrix "
                f"has {self.routing.num_paths}"
            )

    def append(self, snapshot: Snapshot) -> None:
        self._check(snapshot)
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> Snapshot:
        return self.snapshots[index]

    def log_matrix(self, floor: Optional[float] = None) -> np.ndarray:
        """``(m, num_paths)`` matrix of log path transmission rates."""
        if not self.snapshots:
            raise ValueError("campaign is empty")
        rates = np.vstack([s.path_transmission for s in self.snapshots])
        if floor is None:
            # One clip and one log, with each row's own 0.5 / S floor.
            probes = [[s.num_probes] for s in self.snapshots]
            floor = 0.5 / np.array(probes, dtype=np.float64)
        elif not 0 < floor <= 1:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        return np.log(np.clip(rates, floor, 1.0))

    def split_training_target(
        self, num_training: Optional[int] = None
    ) -> "tuple[MeasurementCampaign, Snapshot]":
        """First ``m`` snapshots for variance learning, last one to infer."""
        if len(self.snapshots) < 2:
            raise ValueError("need at least two snapshots to split")
        if num_training is None:
            num_training = len(self.snapshots) - 1
        if not 1 <= num_training < len(self.snapshots):
            raise ValueError(
                f"num_training must be in [1, {len(self.snapshots) - 1}]"
            )
        training = MeasurementCampaign(
            routing=self.routing, snapshots=self.snapshots[:num_training]
        )
        return training, self.snapshots[num_training]
