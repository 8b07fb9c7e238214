"""Command-line interface: audit, simulate, infer, compare, experiments.

Five verbs covering the operational loop without writing Python:

``audit``
    generate (or size up) a monitoring layout and print its
    identifiability report — rank(R), rank(A), fluttering pairs —
    before deploying probes;
``simulate``
    run a probing campaign over a generated topology and write it as a
    JSON campaign document (the same format external measurements use);
``infer``
    run one estimator (``--method lia|scfs|clink|tomo``, dispatched
    through the ``repro.api`` registry) on a campaign document and print
    the congested links it reports; ``--variance-solver`` picks LIA's
    phase-1 estimator (``wls``, ``normal`` or ``nnls``);
``compare``
    run several estimators over one campaign document and print a
    side-by-side table of their verdicts per link;
``experiments``
    regenerate the paper's tables/figures through the parallel sharded
    runner (``--jobs``, ``--backend``, ``--cache-dir``, ``--store-dir``;
    see ``repro.runner``).

Examples::

    python -m repro audit --topology tree --size 300 --seed 7
    python -m repro simulate --topology planetlab --snapshots 31 \
        --out campaign.json
    python -m repro simulate --traffic congestion --size 60 \
        --snapshots 11 --probes 300 --out congested.json
    python -m repro infer campaign.json --threshold 0.002
    python -m repro infer campaign.json --method scfs
    python -m repro infer campaign.json --variance-solver normal
    python -m repro compare campaign.json --methods lia,scfs,tomo
    python -m repro experiments fig5 --scale small --jobs -1 \
        --cache-dir .repro-cache
    python -m repro experiments table2 --scale paper --jobs 4 \
        --backend thread --store-dir .repro-results
"""

from __future__ import annotations

import argparse
import sys
import time
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from repro.api import Scenario, registry
from repro.core.variance import VARIANCE_METHODS
from repro.experiments import EXPERIMENTS, SCALES
from repro.netsim.sim.config import TRAFFIC_KINDS
from repro.runner.args import add_runner_arguments, runner_from_args
from repro.topology.prepare import MESH_TOPOLOGY_KINDS, prepare_topology

#: The methods a *loss* campaign document can drive (``delay`` consumes
#: delay campaigns, which have no document format yet).
LOSS_METHOD_CHOICES = registry.available(exclude_kind="delay")


def _positive(value: str) -> int:
    count = int(value)
    if count <= 0:
        raise argparse.ArgumentTypeError("must be a positive count")
    return count


def _prepare(args: argparse.Namespace):
    """The Section 3 front end at ``--size``/``--hosts``, as experiments size it."""
    sizing = SimpleNamespace(
        tree_nodes=args.size, mesh_nodes=args.size, num_end_hosts=args.hosts
    )
    return prepare_topology(args.topology, sizing, args.seed)


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.identifiability import audit_identifiability

    prepared = _prepare(args)
    print(prepared.topology.summary())
    report = audit_identifiability(prepared.routing, prepared.paths)
    print(report.summary())
    return 0 if report.variances_identifiable else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io import CampaignDocument, save_campaign
    from repro.lossmodel import INTERNET, LLRD1, LLRD2
    from repro.probing import ProberConfig

    models = {"llrd1": LLRD1, "llrd2": LLRD2, "internet": INTERNET}
    prepared = _prepare(args)
    topology, paths, routing = prepared.topology, prepared.paths, prepared.routing
    config = ProberConfig(
        probes_per_snapshot=args.probes,
        congestion_probability=args.congestion,
        truth_mode=args.truth_mode,
    )
    scenario = Scenario(prober=config, model=models[args.model], traffic=args.traffic)
    simulator = scenario.build_simulator(prepared)
    campaign = simulator.run_campaign(args.snapshots, routing, seed=args.seed)
    document = CampaignDocument(
        network=topology.network,
        beacons=topology.beacons,
        destinations=topology.destinations,
        paths=paths,
        snapshots=list(campaign.snapshots),
    )
    save_campaign(document, args.out)
    print(
        f"wrote {args.out}: {routing.num_paths} paths x "
        f"{routing.num_links} links, {len(campaign)} snapshots"
    )
    return 0


def _build_estimator(method: str, threshold: float, variance_solver: str = "wls"):
    """Registry dispatch with the CLI threshold routed to the right knob."""
    if method == "lia":
        return registry.get(
            "lia",
            congestion_threshold=threshold,
            variance_method=variance_solver,
        )
    return registry.get(method, link_threshold=threshold)


def _fit_predict(
    document, training, target, method: str, threshold: float,
    variance_solver: str = "wls",
):
    """Fit *method* on the training window, predict the target snapshot."""
    estimator = _build_estimator(method, threshold, variance_solver)
    estimator.fit(training, paths=document.paths)
    return estimator.predict(target)


def _check_loss_method(method: str) -> bool:
    if method in LOSS_METHOD_CHOICES:
        return True
    print(
        f"method {method!r} does not consume loss campaign documents; "
        f"choose one of {', '.join(LOSS_METHOD_CHOICES)}",
        file=sys.stderr,
    )
    return False


def cmd_infer(args: argparse.Namespace) -> int:
    from repro.io import load_campaign
    from repro.utils.tables import TextTable

    if not _check_loss_method(args.method):
        return 2
    document = load_campaign(args.document)
    if len(document.snapshots) < 2:
        print("document needs at least 2 snapshots", file=sys.stderr)
        return 2
    campaign = document.campaign()
    routing = campaign.routing
    training, target = campaign.split_training_target()
    result = _fit_predict(
        document, training, target, args.method, args.threshold,
        args.variance_solver,
    )
    num_training = len(training)
    if result.congested_columns is not None:
        congested = np.asarray(sorted(result.congested_columns), dtype=np.int64)
        verdict = f"{len(congested)} links flagged congested by {args.method}"
    else:
        congested = np.flatnonzero(result.loss_rates > args.threshold)
        verdict = f"{len(congested)} links above t_l={args.threshold}"
    print(
        f"{routing.num_paths} paths x {routing.num_links} links; "
        f"trained on {num_training} snapshots; {verdict}"
    )
    table = TextTable(["link column", "physical links", "inferred loss"])
    for column in sorted(
        congested, key=lambda c: (-result.values[c], c)
    )[: args.top]:
        vlink = routing.virtual_links[int(column)]
        table.add_row(
            [
                int(column),
                ",".join(str(i) for i in vlink.member_indices()),
                float(result.values[column]),
            ]
        )
    if len(table):
        print(table.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.io import load_campaign
    from repro.utils.tables import TextTable

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("no methods given", file=sys.stderr)
        return 2
    for method in methods:
        if method not in registry.available():
            print(
                f"unknown method {method!r}; choose from "
                f"{', '.join(registry.available())}",
                file=sys.stderr,
            )
            return 2
        if not _check_loss_method(method):
            return 2
    document = load_campaign(args.document)
    if len(document.snapshots) < 2:
        print("document needs at least 2 snapshots", file=sys.stderr)
        return 2
    # Campaign, routing matrix and split are built once and shared by
    # every method; only the estimators themselves differ.
    campaign = document.campaign()
    routing = campaign.routing
    training, target = campaign.split_training_target()

    results = {}
    flagged = {}
    for method in methods:
        result = _fit_predict(
            document, training, target, method, args.threshold,
            args.variance_solver,
        )
        results[method] = result
        if result.congested_columns is not None:
            flagged[method] = set(result.congested_columns)
        else:
            flagged[method] = set(
                int(c)
                for c in np.flatnonzero(result.loss_rates > args.threshold)
            )

    print(
        f"{routing.num_paths} paths x {routing.num_links} links; "
        f"trained on {len(training)} snapshots; "
        f"t_l={args.threshold}"
    )
    for method in methods:
        print(f"  {method}: {len(flagged[method])} links flagged")

    union = sorted(set().union(*flagged.values()))
    table = TextTable(["link column", "physical links"] + list(methods))
    for column in union[: args.top]:
        vlink = routing.virtual_links[column]
        row: List[object] = [
            column,
            ",".join(str(i) for i in vlink.member_indices()),
        ]
        for method in methods:
            result = results[method]
            if result.congested_columns is None:
                # Rate estimator: always show its estimate for this link.
                row.append(float(result.values[column]))
            else:
                row.append("X" if column in flagged[method] else "")
        table.add_row(row)
    if len(table):
        print(table.render())
    else:
        print("no method flagged any link")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run experiments in order, printing each result and runner stats.

    Every experiment — timing and duration included — routes its trials
    through ``runner.run()``, so ``last_stats`` always describes the
    experiment just printed.
    """
    runner = runner_from_args(args)
    names = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for name in names:
        start = time.perf_counter()
        result = EXPERIMENTS[name](scale=args.scale, seed=args.seed, runner=runner)
        elapsed = time.perf_counter() - start
        print(result.render())
        stats = runner.last_stats
        print(
            f"[{name} finished in {elapsed:.1f}s: "
            f"{stats.trials_executed} trials executed, "
            f"{stats.trials_cached} recalled from cache, "
            f"backend={runner.backend.name}, jobs={runner.n_jobs}]"
        )
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Loss tomography from second-order flow statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="identifiability report of a layout")
    simulate = sub.add_parser("simulate", help="simulate and save a campaign")
    for p in (audit, simulate):
        p.add_argument(
            "--topology", choices=("tree",) + MESH_TOPOLOGY_KINDS, default="tree"
        )
        p.add_argument(
            "--size",
            type=_positive,
            default=200,
            help=(
                "node count, sized as the experiments size a topology: the "
                "tree's nodes, or a mesh's (hierarchical-td: 20 ASes of "
                "size/20 routers; dimes: size/12 ASes, at least 10)"
            ),
        )
        p.add_argument(
            "--hosts",
            type=_positive,
            default=16,
            help=(
                "end hosts of a mesh (planetlab: hosts/2 sites of two, at "
                "least 4; the tree ignores it)"
            ),
        )
        p.add_argument("--seed", type=int, default=0)
    audit.set_defaults(func=cmd_audit)

    simulate.add_argument("--snapshots", type=int, default=31)
    simulate.add_argument("--probes", type=int, default=1000)
    simulate.add_argument("--congestion", type=float, default=0.10)
    simulate.add_argument(
        "--model", choices=("llrd1", "llrd2", "internet"), default="llrd1"
    )
    simulate.add_argument(
        "--truth-mode",
        choices=("fixed", "redraw", "persistent", "propensity"),
        default="fixed",
    )
    simulate.add_argument(
        "--traffic",
        choices=TRAFFIC_KINDS,
        default="analytic",
        help=(
            "loss realisation: 'analytic' samples the configured loss "
            "process; 'congestion' runs the packet-level simulator and "
            "drops probes by queue overflow (repro.netsim.sim)"
        ),
    )
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(func=cmd_simulate)

    infer = sub.add_parser(
        "infer", help="run one estimator on a campaign document"
    )
    infer.add_argument("document")
    infer.add_argument(
        "--method",
        choices=registry.available(),
        default="lia",
        help="estimator to run (repro.api registry name)",
    )
    infer.add_argument("--threshold", type=float, default=0.002)
    infer.add_argument("--top", type=_positive, default=20, help="rows to print")
    infer.set_defaults(func=cmd_infer)

    compare = sub.add_parser(
        "compare",
        help="run several estimators on one campaign document, side by side",
    )
    compare.add_argument("document")
    compare.add_argument(
        "--methods",
        default="lia,scfs,clink,tomo",
        help="comma-separated registry names (default: all loss estimators)",
    )
    compare.add_argument("--threshold", type=float, default=0.002)
    compare.add_argument("--top", type=_positive, default=30, help="rows to print")
    compare.set_defaults(func=cmd_compare)

    for p in (infer, compare):
        p.add_argument(
            "--variance-solver",
            choices=VARIANCE_METHODS,
            default="wls",
            help=(
                "LIA phase-1 estimator: weighted (wls), unweighted "
                "(normal) or non-negative (nnls) least squares"
            ),
        )

    experiments = sub.add_parser(
        "experiments", help="regenerate paper tables/figures (parallel runner)"
    )
    experiments.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (table/figure number) or 'all'",
    )
    experiments.add_argument("--scale", choices=SCALES, default="small")
    experiments.add_argument("--seed", type=int, default=0, help="master seed")
    add_runner_arguments(experiments)
    experiments.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
