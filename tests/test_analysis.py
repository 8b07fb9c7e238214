"""repro.analysis lint engine tests.

Two layers:

* per-rule fixtures — for every built-in rule, at least one snippet
  that fires and one that stays clean, built as scratch ``repro/``
  package trees so payload classification and module naming run the
  same code paths the real tree does;
* the engine/CLI surface — suppression comments, JSON/text reports,
  exit codes, and the pin that ``repro lint src/`` is clean at HEAD.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.base import (
    Rule,
    available_rules,
    register_rule,
    unregister_rule,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.cli import run_lint
from repro.analysis.engine import lint_paths
from repro.analysis.findings import Finding, parse_suppressions
from repro.analysis.project import module_name_for
from repro.analysis.rules.concurrency import (
    ContainerMutationRule,
    GlobalRebindRule,
)
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def write_tree(root, files):
    """Materialise ``{relative_path: source}`` under *root*."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def payload_tree(root, module_source, relative="repro/api/mod.py"):
    """A minimal tree where *relative* sits inside the payload closure."""
    return write_tree(
        root,
        {
            "repro/__init__.py": "",
            "repro/api/__init__.py": "",
            relative: module_source,
        },
    )


def findings_for(root, rule):
    report = lint_paths([root], [rule])
    return report.findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# -- project model -------------------------------------------------------------


def test_module_name_walks_packages(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/core/__init__.py": "",
            "repro/core/engine.py": "",
            "loose_script.py": "",
        },
    )
    name, is_package = module_name_for(tmp_path / "repro/core/engine.py")
    assert (name, is_package) == ("repro.core.engine", False)
    name, is_package = module_name_for(tmp_path / "repro/core/__init__.py")
    assert (name, is_package) == ("repro.core", True)
    name, is_package = module_name_for(tmp_path / "loose_script.py")
    assert (name, is_package) == ("loose_script", False)


def test_payload_closure_reaches_transitive_imports(tmp_path):
    # helper is imported by a payload root; bystander is not.
    write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/api/__init__.py": "import repro.helper\n",
            "repro/helper.py": "import random\nx = random.random()\n",
            "repro/bystander.py": "import random\ny = random.random()\n",
        },
    )
    findings = findings_for(tmp_path, UnseededRandomRule())
    paths = {finding.path for finding in findings}
    assert any(path.endswith("helper.py") for path in paths)
    assert not any(path.endswith("bystander.py") for path in paths)


def test_free_standing_script_importing_repro_is_payload(tmp_path):
    write_tree(
        tmp_path,
        {
            "scripts/drive.py": (
                "import random\nimport repro\nseed = random.random()\n"
            ),
            "scripts/unrelated.py": "import random\nx = random.random()\n",
        },
    )
    findings = findings_for(tmp_path, UnseededRandomRule())
    assert [Path(f.path).name for f in findings] == ["drive.py"]


# -- determinism rules ---------------------------------------------------------


def test_unseeded_random_fires_on_global_rng(tmp_path):
    payload_tree(
        tmp_path,
        """
        import numpy as np
        import random

        def draw():
            return np.random.rand(3), random.random()
        """,
    )
    findings = findings_for(tmp_path, UnseededRandomRule())
    assert rule_ids(findings) == ["unseeded-random", "unseeded-random"]


def test_unseeded_random_fires_on_seedless_factory(tmp_path):
    payload_tree(
        tmp_path,
        """
        from numpy.random import default_rng

        def draw():
            return default_rng()
        """,
    )
    findings = findings_for(tmp_path, UnseededRandomRule())
    assert rule_ids(findings) == ["unseeded-random"]


def test_unseeded_random_clean_on_seeded_generators(tmp_path):
    payload_tree(
        tmp_path,
        """
        import random

        import numpy as np

        def draw(seed):
            rng = np.random.default_rng(seed)
            stdlib = random.Random(seed)
            return rng.normal(), stdlib.random()
        """,
    )
    assert findings_for(tmp_path, UnseededRandomRule()) == []


def test_wall_clock_fires_and_perf_counter_is_exempt(tmp_path):
    payload_tree(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()

        def duration():
            return time.perf_counter()
        """,
    )
    findings = findings_for(tmp_path, WallClockRule())
    assert rule_ids(findings) == ["wall-clock"]
    assert findings[0].line == 5


def test_wall_clock_ignores_non_payload_modules(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/tools.py": "import time\nts = time.time()\n",
        },
    )
    assert findings_for(tmp_path, WallClockRule()) == []


def test_set_iteration_fires_on_order_escapes(tmp_path):
    payload_tree(
        tmp_path,
        """
        def leak(xs):
            out = []
            for x in {1, 2, 3}:
                out.append(x)
            ordered = list(set(xs))
            squares = [x * x for x in set(xs)]
            return out, ordered, squares
        """,
    )
    findings = findings_for(tmp_path, SetIterationRule())
    assert rule_ids(findings) == ["set-iteration"] * 3


def test_set_iteration_clean_when_sorted(tmp_path):
    payload_tree(
        tmp_path,
        """
        def stable(xs):
            members = set(xs)
            if 3 in members:
                return sorted(members)
            return sorted(set(xs))
        """,
    )
    assert findings_for(tmp_path, SetIterationRule()) == []


# -- concurrency ---------------------------------------------------------------


def test_unlocked_global_fires_without_lock(tmp_path):
    write_tree(
        tmp_path,
        {
            "mod.py": """
            _cache = None

            def set_cache(value):
                global _cache
                _cache = value
            """,
        },
    )
    findings = findings_for(tmp_path, GlobalRebindRule())
    assert rule_ids(findings) == ["unlocked-global"]
    assert "set_cache" in findings[0].message


def test_unlocked_global_clean_under_lock(tmp_path):
    write_tree(
        tmp_path,
        {
            "mod.py": """
            import threading

            _LOCK = threading.Lock()
            _cache = None

            def set_cache(value):
                global _cache
                with _LOCK:
                    _cache = value
            """,
        },
    )
    assert findings_for(tmp_path, GlobalRebindRule()) == []


def test_unlocked_mutation_fires_on_registry_write(tmp_path):
    write_tree(
        tmp_path,
        {
            "mod.py": """
            _REGISTRY = {}
            _ORDER = []

            def register(name, factory):
                _REGISTRY[name] = factory
                _ORDER.append(name)
            """,
        },
    )
    findings = findings_for(tmp_path, ContainerMutationRule())
    assert rule_ids(findings) == ["unlocked-mutation"] * 2


def test_unlocked_mutation_clean_under_lock_and_for_shadowed_params(tmp_path):
    write_tree(
        tmp_path,
        {
            "mod.py": """
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}

            def register(name, factory):
                with _LOCK:
                    _REGISTRY[name] = factory

            def local_only(_REGISTRY):
                _REGISTRY["x"] = 1
            """,
        },
    )
    assert findings_for(tmp_path, ContainerMutationRule()) == []


# -- suppressions --------------------------------------------------------------


def test_parse_suppressions_inline_and_preceding_line():
    source = textwrap.dedent(
        """
        import time

        # reprolint: disable=wall-clock -- label only
        a = time.time()
        b = time.time()  # reprolint: disable=wall-clock,unseeded-random
        c = time.time()  # reprolint: disable=all -- escape hatch
        """
    )
    suppressions = parse_suppressions(source)
    assert suppressions[5] == frozenset({"wall-clock"})
    assert suppressions[6] == frozenset({"wall-clock", "unseeded-random"})
    assert suppressions[7] == frozenset({"all"})


def test_suppressed_finding_moves_to_suppressed_list(tmp_path):
    payload_tree(
        tmp_path,
        """
        import time

        def stamp():
            # reprolint: disable=wall-clock -- metadata, not payload
            return time.time()
        """,
    )
    report = lint_paths([tmp_path], [WallClockRule()])
    assert report.findings == []
    assert rule_ids(report.suppressed) == ["wall-clock"]


def test_mismatched_suppression_does_not_hide_finding(tmp_path):
    payload_tree(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # reprolint: disable=set-iteration
        """,
    )
    report = lint_paths([tmp_path], [WallClockRule()])
    assert rule_ids(report.findings) == ["wall-clock"]
    assert report.suppressed == []


# -- engine / report / CLI -----------------------------------------------------


def test_syntax_error_becomes_finding_not_crash(tmp_path):
    write_tree(tmp_path, {"broken.py": "def nope(:\n"})
    report = lint_paths([tmp_path])
    assert rule_ids(report.findings) == ["syntax-error"]
    assert report.exit_code == 1


def test_builtin_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in (
        "unseeded-random",
        "wall-clock",
        "set-iteration",
        "unlocked-global",
        "unlocked-mutation",
    ):
        assert rule_id in listed
    assert "kernel-parity" not in listed
    assert "njit-unsupported" not in listed
    assert "registry-sync" not in listed


def test_rule_registry_round_trip():
    class ProbeRule(Rule):
        rule_id = "probe-rule"
        description = "test-only"

    assert "probe-rule" not in available_rules()
    register_rule(ProbeRule())
    try:
        assert "probe-rule" in available_rules()
        with pytest.raises(ValueError, match="already registered"):
            register_rule(ProbeRule())
        register_rule(ProbeRule(), overwrite=True)
    finally:
        unregister_rule("probe-rule")
    assert "probe-rule" not in available_rules()


def test_finding_ordering_and_render():
    first = Finding("a.py", 3, 0, "wall-clock", "msg")
    second = Finding("a.py", 10, 2, "wall-clock", "msg")
    assert sorted([second, first]) == [first, second]
    assert first.render() == "a.py:3:0: wall-clock: msg"


def test_cli_json_format_and_exit_code(tmp_path, capsys):
    payload_tree(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    code = lint_main(
        ["--format", "json", "--rule", "wall-clock", str(tmp_path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["rules"] == ["wall-clock"]
    assert [f["rule_id"] for f in payload["findings"]] == ["wall-clock"]


def test_cli_clean_run_writes_summary_file(tmp_path, capsys):
    write_tree(tmp_path, {"clean.py": "x = 1\n"})
    summary = tmp_path / "summary.md"
    code = run_lint([str(tmp_path / "clean.py")], summary_file=str(summary))
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out
    assert "reprolint: clean" in summary.read_text()


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert run_lint([str(tmp_path / "missing")]) == 2
    assert run_lint([str(tmp_path)], rule_ids=["no-such-rule"]) == 2
    errors = capsys.readouterr().err
    assert "missing" in errors
    assert "no-such-rule" in errors


def test_head_tree_is_lint_clean():
    """The acceptance pin: `repro lint src/` exits 0 at HEAD."""
    report = lint_paths([REPO_SRC])
    assert report.findings == []
