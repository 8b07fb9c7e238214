"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runner.args import add_runner_arguments, runner_from_args

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def _assert_fresh_import_skips(statements, forbidden):
    """Run *statements* in a fresh interpreter; no *forbidden* module loads.

    A fresh interpreter because the test session itself has long since
    imported them through other tests.
    """
    code = (
        f"{statements}\n"
        "import sys\n"
        f"sys.exit(' '.join(m for m in {forbidden!r} if m in sys.modules) or None)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"imported: {proc.stderr}"


def test_building_the_parser_never_imports_scipy_stats():
    """The CLI reads the real registries; doing so must stay cheap."""
    _assert_fresh_import_skips(
        "import repro.experiments, repro.cli\nrepro.cli.build_parser()",
        ("scipy.stats",),
    )


def test_import_repro_stays_lean():
    """``import repro`` loads neither the runner nor single-method scipy."""
    _assert_fresh_import_skips(
        "import repro",
        (
            "scipy.optimize",
            "scipy.sparse.linalg",
            "repro.runner",
            "repro.io.serialization",
        ),
    )


class TestAudit:
    def test_tree_audit_exits_zero(self, capsys):
        code = main(["audit", "--topology", "tree", "--size", "60", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "variances identifiable: True" in out

    @pytest.mark.parametrize(
        "kind",
        [
            "tree",
            "planetlab",
            "dimes",
            "barabasi-albert",
            "waxman",
            "hierarchical-td",
            "hierarchical-bu",
        ],
    )
    def test_mesh_audits(self, kind, capsys):
        code = main(
            ["audit", "--topology", kind, "--size", "80", "--hosts", "8",
             "--seed", "2"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("dimes", "--size", "-5"),
            ("planetlab", "--hosts", "0"),
            ("hierarchical-td", "--size", "-5"),
        ],
    )
    def test_non_positive_sizes_rejected(self, kind, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--topology", kind, flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_mesh_audit_detects_fluttering_once(self, monkeypatch, capsys):
        """The CLI reuses the detected pairs; it does not detect twice."""
        import repro.topology as topology_package
        from repro.topology import fluttering, prepare as prepare_module
        from tests.test_topology_fluttering import fluttering_pair

        paths = list(fluttering_pair())
        original = fluttering.find_fluttering_pairs
        calls = []

        def counted(paths):
            calls.append(len(paths))
            return original(paths)

        for module in (topology_package, prepare_module):
            monkeypatch.setattr(module, "build_paths", lambda *a: paths)
        for module in (topology_package, prepare_module, fluttering):
            monkeypatch.setattr(module, "find_fluttering_pairs", counted)
        main(
            ["audit", "--topology", "waxman", "--size", "80", "--hosts", "8",
             "--seed", "2"]
        )
        assert calls == [2]


class TestSimulateInfer:
    def test_round_trip(self, tmp_path, capsys):
        doc = tmp_path / "campaign.json"
        code = main(
            [
                "simulate", "--topology", "tree", "--size", "80",
                "--snapshots", "12", "--probes", "300", "--seed", "3",
                "--out", str(doc),
            ]
        )
        assert code == 0
        assert doc.exists()

        code = main(["infer", str(doc), "--threshold", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained on 11 snapshots" in out

    def test_variance_solver_flag(self, tmp_path, capsys):
        """--variance-solver threads through the registry into LIA."""
        doc = tmp_path / "campaign.json"
        main(
            [
                "simulate", "--topology", "tree", "--size", "80",
                "--snapshots", "12", "--probes", "300", "--seed", "3",
                "--out", str(doc),
            ]
        )
        capsys.readouterr()
        for solver in ("normal", "nnls"):
            code = main(["infer", str(doc), "--variance-solver", solver])
            assert code == 0
            assert "trained on 11 snapshots" in capsys.readouterr().out
        code = main(
            ["compare", str(doc), "--methods", "lia", "--variance-solver",
             "nnls"]
        )
        assert code == 0

    def test_infer_finds_congested(self, tmp_path, capsys):
        doc = tmp_path / "campaign.json"
        main(
            [
                "simulate", "--topology", "tree", "--size", "100",
                "--snapshots", "16", "--probes", "400",
                "--congestion", "0.15", "--seed", "4", "--out", str(doc),
            ]
        )
        capsys.readouterr()
        main(["infer", str(doc)])
        out = capsys.readouterr().out
        assert "links above t_l" in out
        # With 15% congestion, some links should be reported.
        count = int(out.split(" links above")[0].rsplit(" ", 1)[-1])
        assert count >= 1

    def test_congestion_traffic_round_trip(self, tmp_path, capsys):
        """simulate --traffic congestion -> compare, the CI smoke path."""
        doc = tmp_path / "congested.json"
        code = main(
            [
                "simulate", "--topology", "tree", "--size", "40",
                "--hosts", "8", "--snapshots", "6", "--probes", "200",
                "--traffic", "congestion", "--seed", "5", "--out", str(doc),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["compare", str(doc), "--methods", "lia,scfs"]) == 0
        out = capsys.readouterr().out
        assert "lia:" in out and "links flagged" in out

    def test_congestion_traffic_is_seed_deterministic(self, tmp_path):
        import json

        docs = []
        for name in ("a.json", "b.json"):
            doc = tmp_path / name
            assert (
                main(
                    [
                        "simulate", "--topology", "tree", "--size", "40",
                        "--hosts", "8", "--snapshots", "4", "--probes", "150",
                        "--traffic", "congestion", "--seed", "9",
                        "--out", str(doc),
                    ]
                )
                == 0
            )
            docs.append(json.loads(doc.read_text()))
        assert docs[0] == docs[1]

    def test_internet_model_and_propensity(self, tmp_path):
        doc = tmp_path / "c.json"
        code = main(
            [
                "simulate", "--topology", "planetlab", "--hosts", "8",
                "--snapshots", "8", "--probes", "200",
                "--model", "internet", "--truth-mode", "propensity",
                "--seed", "5", "--out", str(doc),
            ]
        )
        assert code == 0
        assert main(["infer", str(doc)]) == 0


def test_infer_rejects_nan_rate(tmp_path):
    """A NaN rate in a campaign document fails loudly, naming the field."""
    import json

    doc = tmp_path / "campaign.json"
    main(["simulate", "--topology", "tree", "--size", "20", "--hosts", "4",
          "--snapshots", "4", "--probes", "200", "--out", str(doc)])
    payload = json.loads(doc.read_text())
    payload["snapshots"][1]["path_transmission"][0] = float("nan")
    doc.write_text(json.dumps(payload))
    path = os.pathsep.join(filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "infer", str(doc)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "path_transmission rates must lie in [0, 1]" in proc.stderr


class TestMethodDispatch:
    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        doc = tmp_path_factory.mktemp("cli") / "campaign.json"
        assert (
            main(
                [
                    "simulate", "--topology", "tree", "--size", "90",
                    "--snapshots", "10", "--probes", "300",
                    "--congestion", "0.15", "--seed", "6", "--out", str(doc),
                ]
            )
            == 0
        )
        return str(doc)

    @pytest.mark.parametrize("method", ["lia", "scfs", "clink", "tomo"])
    def test_infer_dispatches_through_registry(self, method, document, capsys):
        assert main(["infer", document, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "trained on 9 snapshots" in out
        if method == "lia":
            assert "links above t_l" in out
        else:
            assert f"flagged congested by {method}" in out

    def test_infer_rejects_delay_on_loss_document(self, document, capsys):
        assert main(["infer", document, "--method", "delay"]) == 2
        assert "does not consume loss campaign" in capsys.readouterr().err

    def test_compare_side_by_side(self, document, capsys):
        assert main(["compare", document]) == 0
        out = capsys.readouterr().out
        for method in ("lia", "scfs", "clink", "tomo"):
            assert f"{method}:" in out and "links flagged" in out
        # side-by-side table: one column per method
        header = [
            line for line in out.splitlines() if line.startswith("link column")
        ]
        assert header and all(
            m in header[0] for m in ("lia", "scfs", "clink", "tomo")
        )

    def test_compare_subset_of_methods(self, document, capsys):
        assert main(["compare", document, "--methods", "lia,tomo"]) == 0
        out = capsys.readouterr().out
        assert "scfs" not in out

    @pytest.mark.parametrize("top", ["-1", "0"])
    def test_infer_rejects_non_positive_top(self, document, top, capsys):
        # A negative count used to slice rows off the end of the table.
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", document, "--top", top])
        assert excinfo.value.code == 2
        assert "positive count" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["-1", "0"])
    def test_compare_rejects_non_positive_top(self, document, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", document, "--top", top])
        assert excinfo.value.code == 2
        assert "positive count" in capsys.readouterr().err

    def test_compare_rejects_unknown_method(self, document, capsys):
        assert main(["compare", document, "--methods", "lia,bogus"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_compare_agrees_with_infer(self, document, capsys):
        """The comparison table reuses the exact single-method pipelines."""
        main(["infer", document, "--method", "lia"])
        single = capsys.readouterr().out
        count = int(single.split(" links above")[0].rsplit(" ", 1)[-1])
        main(["compare", document, "--methods", "lia"])
        compared = capsys.readouterr().out
        assert f"lia: {count} links flagged" in compared


class TestExperimentsVerb:
    def test_static_choices_match_registry(self):
        """Every choice list the parser offers is the registry itself."""
        from repro.api import registry
        from repro.cli import LOSS_METHOD_CHOICES, build_parser
        from repro.core.variance import VARIANCE_METHODS
        from repro.experiments import EXPERIMENTS, SCALES
        from repro.netsim.sim import TRAFFIC_KINDS
        from repro.runner import available_backends

        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices

        def choices(command, dest):
            (action,) = [
                action
                for action in commands[command]._actions
                if action.dest == dest
            ]
            return tuple(action.choices)

        assert choices("experiments", "experiment") == (
            *sorted(EXPERIMENTS), "all",
        )
        assert choices("experiments", "scale") == SCALES
        assert choices("experiments", "backend") == available_backends()
        assert choices("infer", "method") == registry.available()
        assert set(LOSS_METHOD_CHOICES) == set(registry.available()) - {"delay"}
        for command in ("infer", "compare"):
            assert choices(command, "variance_solver") == VARIANCE_METHODS
        assert choices("simulate", "traffic") == TRAFFIC_KINDS

    def test_timing_routes_through_runner(self, capsys):
        # timing is one (non-cacheable) trial through the runner now, so
        # the stats line is real — no last_stats workaround needed.
        assert main(["experiments", "timing", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "[timing finished in" in out
        assert "1 trials executed, 0 recalled from cache" in out

    def test_timing_never_cached(self, tmp_path, capsys):
        argv = [
            "experiments", "timing", "--scale", "tiny",
            "--cache-dir", str(tmp_path),
        ]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            # wall-clock measurements re-execute on every invocation
            assert "1 trials executed, 0 recalled from cache" in out

    def test_runs_and_reports_runner_stats(self, capsys):
        code = main(["experiments", "fig5", "--scale", "tiny", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== fig5 ==" in out
        assert "2 trials executed, 0 recalled from cache" in out
        assert "backend=serial" in out

    def test_backend_flag_is_payload_identical(self, capsys):
        base_argv = ["experiments", "fig5", "--scale", "tiny", "--seed", "0"]
        assert main(base_argv + ["--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        for backend in ("thread", "process"):
            argv = base_argv + ["--jobs", "2", "--backend", backend]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"backend={backend}" in out
            # identical rendered tables: backend changes nothing but speed
            assert out.split("[fig5")[0] == sequential.split("[fig5")[0]

    def test_store_dir_streams_payloads(self, tmp_path, capsys):
        store = tmp_path / "results"
        argv = [
            "experiments", "fig6", "--scale", "tiny",
            "--store-dir", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        spills = list(store.glob("fig6-*.jsonl"))
        assert len(spills) == 1
        # one JSONL record per trial
        assert len(spills[0].read_text().splitlines()) == 2

    def test_congestion_experiment_is_backend_deterministic(
        self, tmp_path, capsys
    ):
        """Same seed, serial vs process backend, byte-identical payloads.

        The packet simulator's whole determinism contract in one test:
        each trial's drop realisations are a pure function of the trial
        seed, so the result stores diff clean across backends
        (scripts/diff_result_stores.py, the same check used in CI).
        """
        import subprocess
        import sys
        from pathlib import Path

        stores = {}
        outputs = {}
        for label, extra in (
            ("serial", ["--jobs", "1"]),
            ("process", ["--jobs", "2", "--backend", "process"]),
        ):
            store = tmp_path / label
            argv = [
                "experiments", "congestion", "--scale", "tiny", "--seed", "0",
                "--store-dir", str(store),
            ] + extra
            assert main(argv) == 0
            outputs[label] = capsys.readouterr().out
            spills = list(store.glob("congestion-*.jsonl"))
            assert len(spills) == 1
            stores[label] = spills[0]
        # rendered tables agree ...
        assert (
            outputs["serial"].split("[congestion")[0]
            == outputs["process"].split("[congestion")[0]
        )
        # ... and so does every stored trial payload, byte for byte
        script = Path(__file__).resolve().parents[1] / "scripts"
        proc = subprocess.run(
            [
                sys.executable, str(script / "diff_result_stores.py"),
                str(stores["serial"]), str(stores["process"]),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bad_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "fig5", "--backend", "carrier-pigeon"])

    def test_cache_dir_skips_rerun(self, tmp_path, capsys):
        argv = [
            "experiments", "fig6", "--scale", "tiny",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 trials executed, 0 recalled from cache" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 trials executed, 2 recalled from cache" in second
        # identical rendered tables: the cache changes nothing but time
        assert first.split("[fig6")[0] == second.split("[fig6")[0]


class TestRunnerArgs:
    """The runner flags of `repro experiments`: three backends, no others."""

    @staticmethod
    def _parse(argv):
        parser = argparse.ArgumentParser()
        add_runner_arguments(parser)
        return parser.parse_args(argv)

    def test_plain_flags_build_without_options(self):
        runner = runner_from_args(self._parse(["--jobs", "2"]))
        assert runner.backend.name == "process"
        assert runner.n_jobs == 2

    def test_parser_has_no_worker_verb(self):
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert "worker" not in sub.choices
        assert set(sub.choices) == {
            "audit", "simulate", "infer", "compare", "experiments"
        }

    @pytest.mark.parametrize(
        "flags", [["--backend", "remote"], ["--workers", "2"]]
    )
    def test_remote_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "fig5"] + flags)
        assert excinfo.value.code == 2
