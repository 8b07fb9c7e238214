"""The unified Estimator protocol and its result/config types.

Before this seam existed every inference backend had its own calling
convention — ``InferenceEngine.run(campaign)``, a near-duplicate
``DelayInferenceAlgorithm``, and three free functions
(``scfs_localize``/``clink_localize``/``tomo_localize``) with ad-hoc
signatures — so every consumer (experiments, CLI, monitor) hand-wired
its own loop.  The protocol collapses all of them to one shape::

    estimator = repro.api.get("lia")          # or "delay"/"scfs"/"clink"/"tomo"
    estimator.fit(training_campaign, paths=paths)
    result = estimator.predict(target_snapshot)     # -> InferenceResult
    results = estimator.predict_batch(window)       # -> [InferenceResult]

A scenario declares each estimator as an :class:`EstimatorSpec` (method
name + constructor parameters) and builds it through the registry.  A
new backend only needs to satisfy this protocol to plug into every
Scenario, experiment and CLI verb.

Adapters are free to narrow the campaign/snapshot types they accept (the
delay backend consumes :class:`~repro.delay.prober.DelayCampaign` /
``DelaySnapshot``); the protocol is duck-typed on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

#: The value semantics of an :class:`InferenceResult`.
RESULT_KINDS = ("rates", "binary", "delay")


class NotFittedError(RuntimeError):
    """``predict`` was called before ``fit``."""


@dataclass(frozen=True)
class EstimatorSpec:
    """Declarative description of one estimator configuration.

    ``method`` is a registry key (see :mod:`repro.api.registry`);
    ``params`` maps constructor keyword arguments.  ``label`` names the
    estimator inside a scenario (defaults to the method) so one scenario
    can run two configurations of one backend.
    """

    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("an estimator spec needs a method name")

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.method

    def build(self) -> "Estimator":
        """Instantiate through the registry (late import avoids a cycle)."""
        from repro.api.registry import get

        return get(self.method, **self.params)


@dataclass(frozen=True)
class InferenceResult:
    """Uniform per-column output of any estimator.

    ``values`` always has one entry per routing-matrix column:

    * ``kind == "rates"`` — inferred loss rates (LIA);
    * ``kind == "binary"`` — the 0/1 congestion proxy of a boolean
      localiser (Table 1's point: these methods cannot estimate rates);
    * ``kind == "delay"`` — inferred delay deviations in ms.

    ``congested_columns`` carries the columns the *algorithm itself*
    flagged (binary localisers); rate estimators leave it ``None`` and
    callers threshold :attr:`values`.  ``raw`` keeps the backend-native
    result object (:class:`~repro.core.engine.LIAResult`,
    :class:`~repro.inference.base.LocalizationResult`, …) so existing
    metric plumbing keeps working unchanged.
    """

    method: str
    kind: str
    values: np.ndarray
    congested_columns: Optional[Tuple[int, ...]] = None
    raw: object = None

    def __post_init__(self) -> None:
        if self.kind not in RESULT_KINDS:
            raise ValueError(
                f"kind must be one of {RESULT_KINDS}, got {self.kind!r}"
            )
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional (one per column)")
        object.__setattr__(self, "values", values)

    @property
    def num_links(self) -> int:
        return int(self.values.shape[0])

    @property
    def loss_rates(self) -> np.ndarray:
        """Per-column loss rates (proxy values for binary localisers)."""
        if self.kind == "delay":
            raise ValueError("a delay result carries deviations, not loss rates")
        return self.values

    def congested_mask(self, threshold: Optional[float] = None) -> np.ndarray:
        """Boolean congestion mask.

        Binary localisers answer from their own picks; rate/delay
        estimators need an explicit *threshold* on :attr:`values`.
        """
        if self.congested_columns is not None:
            mask = np.zeros(self.num_links, dtype=bool)
            mask[list(self.congested_columns)] = True
            return mask
        if threshold is None:
            raise ValueError(
                f"a {self.kind!r} result needs an explicit threshold"
            )
        return self.values > threshold


@runtime_checkable
class Estimator(Protocol):
    """What every inference backend looks like to the rest of the system.

    Class attributes:

    ``name``
        the registry key (``"lia"``, ``"scfs"``, …);
    ``kind``
        the :data:`RESULT_KINDS` entry of its predictions;
    ``uses_training``
        whether ``fit`` actually learns from the campaign.  Single-
        snapshot baselines (SCFS, greedy cover) only bind topology
        context in ``fit``; a scenario sweeping the training-window
        length evaluates them once instead of once per window.
    """

    name: str
    kind: str
    uses_training: bool

    def fit(self, campaign, paths: Optional[Sequence] = None) -> "Estimator":
        """Learn from a training campaign; returns ``self`` for chaining.

        *paths* supplies the probing paths when the backend needs path
        structure (hop counts, per-beacon trees); campaign-only backends
        ignore it.
        """
        ...

    def predict(self, snapshot) -> InferenceResult:
        """Infer per-column performance for one snapshot."""
        ...

    def predict_batch(self, window: Sequence) -> List[InferenceResult]:
        """Infer a window of snapshots (backends batch where they can)."""
        ...
