"""Estimator-protocol adapters for the five inference backends.

Each adapter is a thin, state-holding binding of one backend to the
:class:`~repro.api.estimator.Estimator` shape.  The adapters own **no**
algorithmic code: ``fit``/``predict`` delegate to the exact call paths
the experiments used before the redesign (``tests/test_api.py`` pins
byte-for-byte equality), so routing an experiment through an adapter
cannot change its numbers.

Construction takes only statistical knobs; the topology binding —
routing matrix, probing paths — arrives with the first ``fit``.
Refitting on the same routing matrix reuses the backend's warm caches
(intersecting pairs, ``R*`` factorizations), which is what makes
sweeping the training-window length cheap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.api.estimator import InferenceResult, NotFittedError


class _EstimatorBase:
    """Shared plumbing: batch fallback and fit checks."""

    name: str = ""
    kind: str = "rates"
    uses_training: bool = True

    def predict_batch(self, window: Sequence) -> List[InferenceResult]:
        return [self.predict(snapshot) for snapshot in window]

    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise NotFittedError(
                f"{type(self).__name__}.predict called before fit()"
            )


class LIAEstimator(_EstimatorBase):
    """The paper's Loss Inference Algorithm behind the protocol.

    ``fit`` runs phase 1 (variance learning) on the campaign; ``predict``
    runs phase 2 on one snapshot.  Refits over the same routing matrix
    share one :class:`~repro.core.engine.InferenceEngine`, so the
    intersecting-pairs structure is built once and kept-column
    factorizations are reused across training windows.
    """

    name = "lia"
    kind = "rates"
    uses_training = True

    def __init__(
        self,
        variance_method: str = "wls",
        reduction_strategy: str = "threshold",
        drop_negative: bool = True,
        floor: Optional[float] = None,
        congestion_threshold: float = 0.002,
        cutoff_scale: float = 16.0,
    ) -> None:
        self.variance_method = variance_method
        self.reduction_strategy = reduction_strategy
        self.drop_negative = drop_negative
        self.floor = floor
        self.congestion_threshold = congestion_threshold
        self.cutoff_scale = cutoff_scale
        self._algorithm = None
        self._estimate = None

    @property
    def algorithm(self):
        """The bound :class:`~repro.core.engine.InferenceEngine`."""
        return self._algorithm

    def fit(self, campaign, paths: Optional[Sequence] = None) -> "LIAEstimator":
        from repro.core.engine import InferenceEngine

        if self._algorithm is None or self._algorithm.routing is not campaign.routing:
            self._algorithm = InferenceEngine(
                campaign.routing,
                variance_method=self.variance_method,
                reduction_strategy=self.reduction_strategy,
                drop_negative=self.drop_negative,
                floor=self.floor,
                congestion_threshold=self.congestion_threshold,
                cutoff_scale=self.cutoff_scale,
            )
        self._estimate = self._algorithm.learn_variances(campaign)
        return self

    def predict(self, snapshot) -> InferenceResult:
        self._require_fitted("_estimate")
        result = self._algorithm.infer(snapshot, self._estimate)
        return InferenceResult(
            method=self.name, kind=self.kind,
            values=result.loss_rates, raw=result,
        )

    def predict_batch(self, window: Sequence) -> List[InferenceResult]:
        self._require_fitted("_estimate")
        results = self._algorithm.infer_batch(window, self._estimate)
        return [
            InferenceResult(
                method=self.name, kind=self.kind,
                values=r.loss_rates, raw=r,
            )
            for r in results
        ]


class DelayEstimator(_EstimatorBase):
    """Delay tomography (the LIA recipe on additive delays).

    Consumes :class:`~repro.delay.prober.DelayCampaign` /
    ``DelaySnapshot``; predictions carry per-column delay *deviations*
    from the training mean, in ms.
    """

    name = "delay"
    kind = "delay"
    uses_training = True

    def __init__(
        self, variance_cutoff_ms2: float = 1.0, variance_method: str = "wls"
    ) -> None:
        self.variance_cutoff_ms2 = variance_cutoff_ms2
        self.variance_method = variance_method
        self._algorithm = None
        self._estimate = None

    @property
    def algorithm(self):
        """The bound :class:`~repro.delay.inference.DelayInferenceAlgorithm`."""
        return self._algorithm

    def fit(self, campaign, paths: Optional[Sequence] = None) -> "DelayEstimator":
        from repro.delay.inference import DelayInferenceAlgorithm

        if self._algorithm is None or self._algorithm.routing is not campaign.routing:
            self._algorithm = DelayInferenceAlgorithm(
                campaign.routing,
                variance_cutoff_ms2=self.variance_cutoff_ms2,
                variance_method=self.variance_method,
            )
        self._estimate = self._algorithm.learn_variances(campaign)
        return self

    def predict(self, snapshot) -> InferenceResult:
        self._require_fitted("_estimate")
        result = self._algorithm.infer(snapshot, self._estimate)
        return InferenceResult(
            method=self.name, kind=self.kind,
            values=result.delay_deviations, raw=result,
        )


class _BinaryLocalizerBase(_EstimatorBase):
    """Shared binding for the boolean congestion-location baselines."""

    kind = "binary"

    def __init__(self, link_threshold: float = 0.002) -> None:
        self.link_threshold = link_threshold
        self._routing = None
        self._paths = None

    def _bind(self, campaign, paths: Optional[Sequence]) -> None:
        if paths is not None:
            self._paths = list(paths)
        self._routing = campaign.routing
        if self._paths is None:
            raise ValueError(
                f"{self.name} needs the probing paths: fit(campaign, paths=paths)"
            )

    def _localize(self, snapshot):
        raise NotImplementedError

    def fit(self, campaign, paths: Optional[Sequence] = None):
        self._bind(campaign, paths)
        return self

    def predict(self, snapshot) -> InferenceResult:
        self._require_fitted("_routing")
        localized = self._localize(snapshot)
        return InferenceResult(
            method=self.name,
            kind=self.kind,
            values=localized.loss_rate_proxy(self._routing),
            congested_columns=localized.congested_columns,
            raw=localized,
        )


class SCFSEstimator(_BinaryLocalizerBase):
    """Smallest Consistent Failure Set (Duffield 2006), per beacon tree.

    Uses one snapshot and no history — ``fit`` only binds topology
    context, hence ``uses_training = False``.
    """

    name = "scfs"
    uses_training = False

    def _localize(self, snapshot):
        from repro.inference.scfs import scfs_localize

        return scfs_localize(
            snapshot, self._paths, self._routing, self.link_threshold
        )


class TomoEstimator(_BinaryLocalizerBase):
    """Unweighted greedy smallest-set cover for general meshes."""

    name = "tomo"
    uses_training = False

    def _localize(self, snapshot):
        from repro.inference.tomo import tomo_localize

        return tomo_localize(
            snapshot, self._paths, self._routing, self.link_threshold
        )


class CLINKEstimator(_BinaryLocalizerBase):
    """CLINK-style MAP location with priors learned from the campaign."""

    name = "clink"
    uses_training = True

    def __init__(
        self, link_threshold: float = 0.002, smoothing: float = 1.0
    ) -> None:
        super().__init__(link_threshold=link_threshold)
        self.smoothing = smoothing
        self._model = None

    def fit(self, campaign, paths: Optional[Sequence] = None) -> "CLINKEstimator":
        from repro.inference.clink import learn_clink_priors

        self._bind(campaign, paths)
        self._model = learn_clink_priors(
            campaign, self._paths, self.link_threshold, smoothing=self.smoothing
        )
        return self

    def _localize(self, snapshot):
        from repro.inference.clink import clink_localize

        self._require_fitted("_model")
        return clink_localize(
            snapshot, self._paths, self._routing, self.link_threshold, self._model
        )
