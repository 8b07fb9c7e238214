"""repro.api — the unified estimator protocol and scenario pipeline.

One composable seam over every inference backend:

* :class:`Estimator` — ``fit(campaign) -> self`` /
  ``predict(snapshot) -> InferenceResult`` / ``predict_batch(window)``;
* :mod:`repro.api.registry` — string-keyed construction
  (``get("lia"|"delay"|"scfs"|"clink"|"tomo")``) from one constant
  table;
* :class:`EstimatorSpec` — a method name plus constructor parameters
  that a scenario builds through the registry;
* :class:`Scenario` — a declarative topology → prober → estimator(s) →
  metrics pipeline returning a :class:`ScenarioResult` with
  per-estimator accuracy reports; :func:`evaluate_forest` scores many
  scenario runs with one batched LIA solve.

Quickstart::

    from repro.api import EstimatorSpec, Scenario, get
    from repro.experiments import scale_params

    scenario = Scenario(
        topology="tree",
        params=scale_params("tiny"),
        num_training=10,
        estimators=(EstimatorSpec("lia"), EstimatorSpec("scfs")),
    )
    outcome = scenario.run(seed=7)
    for label in outcome.labels():
        print(label, outcome.evaluation(label).detection.detection_rate)
"""

from repro.api.adapters import (
    CLINKEstimator,
    DelayEstimator,
    LIAEstimator,
    SCFSEstimator,
    TomoEstimator,
)
from repro.api.estimator import (
    Estimator,
    EstimatorSpec,
    InferenceResult,
    NotFittedError,
)
from repro.api.registry import available, get
from repro.api.scenario import (
    EstimatorEvaluation,
    Scenario,
    ScenarioResult,
    evaluate_forest,
)

__all__ = [
    "CLINKEstimator",
    "DelayEstimator",
    "Estimator",
    "EstimatorEvaluation",
    "EstimatorSpec",
    "InferenceResult",
    "LIAEstimator",
    "NotFittedError",
    "SCFSEstimator",
    "Scenario",
    "ScenarioResult",
    "TomoEstimator",
    "available",
    "evaluate_forest",
    "get",
]
