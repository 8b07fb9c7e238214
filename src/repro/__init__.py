"""repro — network loss tomography from second-order flow statistics.

A full reproduction of Nguyen & Thiran, "Network Loss Inference with
Second Order Statistics of End-to-End Flows" (IMC 2007): the LIA
algorithm, its identifiability theory, the simulation substrates the
evaluation needs (topology generators, Gilbert/Bernoulli loss processes,
a probing simulator, a traceroute/AS substrate), baselines, metrics and
an experiment harness regenerating every table and figure.

Quickstart::

    from repro import (
        LossInferenceAlgorithm, ProbingSimulator, RoutingMatrix,
        build_paths, random_tree,
    )

    topo = random_tree(num_nodes=200, seed=7)
    paths = build_paths(topo.network, topo.beacons, topo.destinations)
    routing = RoutingMatrix.from_paths(paths)
    sim = ProbingSimulator(paths, topo.network.num_links)
    campaign = sim.run_campaign(51, routing, seed=7)
    result = LossInferenceAlgorithm(routing).run(campaign)
    print(result.loss_rates)

Every inference backend — LIA, delay tomography, and the SCFS/CLINK/
greedy-cover baselines — is also reachable through the unified
:mod:`repro.api` seam (``fit``/``predict``/``predict_batch``
estimators, a string-keyed registry, ``EstimatorSpec`` and the
declarative ``Scenario`` pipeline with ``evaluate_forest``); see the
README's "Estimator / Scenario API" section.
"""

from repro.api import EstimatorSpec, InferenceResult, Scenario, ScenarioResult
from repro.core.engine import LIAResult, LossInferenceAlgorithm
from repro.core.identifiability import audit_identifiability
from repro.core.variance import VarianceEstimate, estimate_link_variances
from repro.lossmodel import (
    LLRD1,
    LLRD2,
    BernoulliProcess,
    GilbertProcess,
    LossRateModel,
)
from repro.probing import (
    MeasurementCampaign,
    ProberConfig,
    ProbingSimulator,
    Snapshot,
)
from repro.topology import Network, Path, RoutingMatrix, build_paths
from repro.topology.generators import (
    barabasi_albert,
    dimes_like,
    hierarchical_bottom_up,
    hierarchical_top_down,
    planetlab_like,
    random_tree,
    waxman,
)

__version__ = "1.0.0"

__all__ = [
    "LLRD1",
    "LLRD2",
    "BernoulliProcess",
    "EstimatorSpec",
    "GilbertProcess",
    "InferenceResult",
    "LIAResult",
    "LossInferenceAlgorithm",
    "LossRateModel",
    "MeasurementCampaign",
    "Network",
    "Path",
    "ProberConfig",
    "ProbingSimulator",
    "RoutingMatrix",
    "Scenario",
    "ScenarioResult",
    "Snapshot",
    "VarianceEstimate",
    "audit_identifiability",
    "barabasi_albert",
    "build_paths",
    "dimes_like",
    "estimate_link_variances",
    "hierarchical_bottom_up",
    "hierarchical_top_down",
    "planetlab_like",
    "random_tree",
    "waxman",
]
