"""``repro.analysis`` — project-invariant static analysis (reprolint).

A rule-based AST lint engine enforcing the invariants this repo's
runtime tests otherwise catch only after a violation ships:

* **determinism** — payload-affecting modules (anything transitively
  imported by ``repro.experiments``/``api``/``lossmodel``/``netsim``)
  use no process-global RNG, no wall-clock reads, no bare-set iteration;
* **concurrency** — module-level registries/caches/globals are mutated
  under a lock (the ``thread`` backend shares the process).

Run it as ``repro lint [--format json] [paths]`` (CI blocks on
``repro lint src/``), or from Python::

    from repro.analysis import lint_paths
    report = lint_paths(["src"])
    assert report.exit_code == 0, report.findings

Suppress a finding per line with a justification comment::

    created = time.time()  # reprolint: disable=wall-clock -- metadata only

New rules subclass :class:`Rule`, yield :class:`Finding` objects and
call :func:`register_rule`.  The rules use only the stdlib and never
import, let alone execute, the code under analysis; importing the
package still runs ``repro/__init__.py``, so numpy must be installed.
"""

from repro.analysis.base import (
    Rule,
    all_rules,
    available_rules,
    get_rule,
    register_rule,
    unregister_rule,
)
from repro.analysis.engine import LintReport, lint_paths, lint_project
from repro.analysis.findings import Finding, parse_suppressions
from repro.analysis.project import (
    PAYLOAD_ROOTS,
    ModuleInfo,
    Project,
    module_name_for,
)
from repro.analysis.report import render, render_json, render_markdown, render_text

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "PAYLOAD_ROOTS",
    "Project",
    "Rule",
    "all_rules",
    "available_rules",
    "get_rule",
    "lint_paths",
    "lint_project",
    "module_name_for",
    "parse_suppressions",
    "register_rule",
    "render",
    "render_json",
    "render_markdown",
    "render_text",
    "unregister_rule",
]
