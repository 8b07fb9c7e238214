"""``scripts/diff_result_stores.py``: the on-disk backend identity check.

CI's experiment smoke diffs the ``process`` and ``thread`` result stores
against the serial one with this script, so its verdicts are pinned
here: records match by trial index whatever their arrival order,
payloads compare after canonical re-encoding, and bad input exits 2.
The last class runs the same check the CI smoke runs, for every
experiment whose payloads carry no wall-clock time.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.runner import ParallelRunner

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_result_stores.py"


def load_script():
    spec = importlib.util.spec_from_file_location("diff_result_stores", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_result_stores = load_script()


def write_store(path: Path, records) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(
            json.dumps({"index": index, "payload": payload}) + "\n"
            for index, payload in records
        )
    )
    return path


def run(*argv):
    return diff_result_stores.main([str(arg) for arg in argv])


def exit_code(*argv):
    with pytest.raises(SystemExit) as excinfo:
        run(*argv)
    return excinfo.value.code


RECORDS = [(0, {"dr": 0.5, "fpr": [0.1, 0.2]}), (1, {"dr": 1.0, "fpr": []})]


class TestVerdicts:
    def test_identical_stores_pass(self, tmp_path, capsys):
        left = write_store(tmp_path / "a" / "fig5-1.jsonl", RECORDS)
        right = write_store(tmp_path / "b" / "fig5-2.jsonl", RECORDS)
        assert run(left, right) == 0
        assert "OK: 2 trial payloads identical" in capsys.readouterr().out

    def test_arrival_order_is_ignored(self, tmp_path):
        left = write_store(tmp_path / "a.jsonl", RECORDS)
        right = write_store(tmp_path / "b.jsonl", RECORDS[::-1])
        assert run(left, right) == 0

    def test_payload_key_order_is_ignored(self, tmp_path):
        left = write_store(tmp_path / "a.jsonl", [(0, {"x": 1, "y": 2})])
        right = write_store(tmp_path / "b.jsonl", [(0, {"y": 2, "x": 1})])
        assert run(left, right) == 0

    def test_differing_payload_fails(self, tmp_path, capsys):
        left = write_store(tmp_path / "a.jsonl", RECORDS)
        right = write_store(
            tmp_path / "b.jsonl", [RECORDS[0], (1, {"dr": 0.999, "fpr": []})]
        )
        assert run(left, right) == 1
        out = capsys.readouterr().out
        assert "trial 1: payloads differ" in out
        assert "FAIL: 1 of 2 trials differ" in out

    @pytest.mark.parametrize("short_side", ["left", "right"])
    def test_trial_missing_on_one_side_fails(self, tmp_path, capsys, short_side):
        full = write_store(tmp_path / "full.jsonl", RECORDS)
        short = write_store(tmp_path / "short.jsonl", RECORDS[:1])
        argv = (short, full) if short_side == "left" else (full, short)
        assert run(*argv) == 1
        assert "trial 1: only in" in capsys.readouterr().out

    def test_blank_lines_are_skipped(self, tmp_path):
        left = write_store(tmp_path / "a.jsonl", RECORDS)
        right = tmp_path / "b.jsonl"
        right.write_text("\n" + left.read_text() + "\n\n")
        assert run(left, right) == 0


class TestStoreResolution:
    def test_directory_with_one_store_resolves(self, tmp_path):
        write_store(tmp_path / "a" / "fig5-1.jsonl", RECORDS)
        write_store(tmp_path / "b" / "fig5-2.jsonl", RECORDS)
        assert run(tmp_path / "a", tmp_path / "b") == 0

    def test_experiment_selects_among_several_stores(self, tmp_path):
        for side in ("a", "b"):
            write_store(tmp_path / side / "fig5-1.jsonl", RECORDS)
            write_store(tmp_path / side / "fig6-1.jsonl", [(0, {side: 1})])
        assert run(tmp_path / "a", tmp_path / "b", "--experiment", "fig5") == 0
        assert run(tmp_path / "a", tmp_path / "b", "--experiment", "fig6") == 1

    def test_ambiguous_directory_is_bad_input(self, tmp_path, capsys):
        write_store(tmp_path / "a" / "fig5-1.jsonl", RECORDS)
        write_store(tmp_path / "a" / "fig6-1.jsonl", RECORDS)
        write_store(tmp_path / "b.jsonl", RECORDS)
        assert exit_code(tmp_path / "a", tmp_path / "b.jsonl") == 2
        assert "2 stores" in capsys.readouterr().err

    def test_empty_directory_is_bad_input(self, tmp_path):
        (tmp_path / "a").mkdir()
        write_store(tmp_path / "b.jsonl", RECORDS)
        assert exit_code(tmp_path / "a", tmp_path / "b.jsonl") == 2

    def test_missing_path_is_bad_input(self, tmp_path, capsys):
        write_store(tmp_path / "b.jsonl", RECORDS)
        assert exit_code(tmp_path / "nowhere", tmp_path / "b.jsonl") == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["not json", json.dumps({"payload": 1}), json.dumps({"index": 0})]
    )
    def test_malformed_record_is_bad_input(self, tmp_path, capsys, line):
        left = tmp_path / "a.jsonl"
        left.write_text(line + "\n")
        right = write_store(tmp_path / "b.jsonl", RECORDS)
        assert exit_code(left, right) == 2
        assert "not a result store" in capsys.readouterr().err


# ``timing`` payloads hold wall-clock measurements, so they differ
# between any two runs.
DETERMINISTIC = sorted(name for name in EXPERIMENTS if name != "timing")


class TestInTreeBackendStores:
    """Every experiment's thread and serial stores diff clean."""

    @pytest.mark.parametrize("experiment", DETERMINISTIC)
    def test_thread_store_matches_serial(self, tmp_path, capsys, experiment):
        for side, backend, jobs in (("serial", None, 1), ("thread", "thread", 2)):
            runner = ParallelRunner(
                n_jobs=jobs, backend=backend, store_dir=tmp_path / side
            )
            EXPERIMENTS[experiment](scale="tiny", seed=0, runner=runner)
        capsys.readouterr()
        code = run(
            tmp_path / "serial", tmp_path / "thread", "--experiment", experiment
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK: 0 " not in out
