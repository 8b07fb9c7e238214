"""repro.api — the unified estimator protocol and scenario pipeline.

One composable seam over every inference backend:

* :class:`Estimator` — ``fit(campaign) -> self`` /
  ``predict(snapshot) -> InferenceResult`` / ``predict_batch(window)``,
  plus a ``spec()``/``from_spec()`` config round-trip;
* :mod:`repro.api.registry` — string-keyed construction
  (``get("lia"|"delay"|"scfs"|"clink"|"tomo")``) from one constant
  table;
* :class:`Scenario` — a declarative topology → prober → estimator(s) →
  metrics pipeline returning a :class:`ScenarioResult` with
  per-estimator accuracy reports;
* :class:`DistributedEstimator` — fans any estimator's
  ``predict_batch`` across a :class:`~repro.runner.ParallelRunner`
  backend (including ``remote``), one kept-column group per shard.

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
from repro.api.distributed import DistributedEstimator, distributed
from repro.api.estimator import (
    Estimator,
    EstimatorSpec,
    InferenceResult,
    NotFittedError,
)
from repro.api.registry import available, from_spec, get
from repro.api.scenario import (
    MODEL_REGISTRY,
    EstimatorEvaluation,
    Scenario,
    ScenarioResult,
    evaluate_forest,
)

__all__ = [
    "CLINKEstimator",
    "DelayEstimator",
    "DistributedEstimator",
    "Estimator",
    "EstimatorEvaluation",
    "EstimatorSpec",
    "InferenceResult",
    "LIAEstimator",
    "MODEL_REGISTRY",
    "NotFittedError",
    "SCFSEstimator",
    "Scenario",
    "ScenarioResult",
    "TomoEstimator",
    "available",
    "distributed",
    "evaluate_forest",
    "from_spec",
    "get",
]
