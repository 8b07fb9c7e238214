"""Link loss models: rate distributions, congestion marks, packet processes."""

from repro.lossmodel.assignment import (
    SnapshotGroundTruth,
    draw_link_propensities,
    draw_snapshot_truth,
    persistent_congestion_truth,
    truth_from_propensities,
)
from repro.lossmodel.bernoulli import BernoulliProcess
from repro.lossmodel.congestion import CongestionLossProcess
from repro.lossmodel.gilbert import GilbertProcess
from repro.lossmodel.models import INTERNET, LLRD1, LLRD2, LossRateModel
from repro.lossmodel.processes import LossProcess

__all__ = [
    "INTERNET",
    "LLRD1",
    "LLRD2",
    "BernoulliProcess",
    "CongestionLossProcess",
    "GilbertProcess",
    "LossProcess",
    "LossRateModel",
    "SnapshotGroundTruth",
    "draw_link_propensities",
    "draw_snapshot_truth",
    "persistent_congestion_truth",
    "truth_from_propensities",
]
