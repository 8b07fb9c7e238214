"""The lint engine: build a project, run every rule, apply suppressions.

:func:`lint_paths` is the one entry point the CLI, the CI wrapper and
the tests share.  The engine is deliberately boring: parse everything,
run file-scope rules per module and project-scope rules once, drop
findings whose line carries a matching ``# reprolint: disable=``
directive, sort what's left.  Unparseable files surface as
``syntax-error`` findings rather than crashing the run — a broken file
is exactly when you want the linter to keep going.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.analysis.base import Rule, all_rules
from repro.analysis.findings import SUPPRESS_ALL, Finding
from repro.analysis.project import (
    ModuleInfo,
    Project,
    iter_source_files,
    load_module,
)

__all__ = ["LintReport", "lint_paths", "lint_project"]


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: Tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "files": self.files,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }


def build_project(paths: Sequence[os.PathLike]) -> Tuple[Project, List[Finding]]:
    """Parse every file under *paths*; syntax errors become findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in iter_source_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as error:
            errors.append(
                Finding(
                    path=os.path.relpath(path),
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    rule_id="syntax-error",
                    message=f"file does not parse: {error.msg}",
                )
            )
    return Project(modules), errors


def lint_project(
    project: Project,
    rules: Sequence[Rule] = (),
    extra_findings: Iterable[Finding] = (),
) -> LintReport:
    """Run *rules* (default: every registered rule) over *project*."""
    active = tuple(rules) or all_rules()
    raw: List[Finding] = list(extra_findings)
    for rule in active:
        for module in project.modules:
            raw.extend(rule.check_module(module, project))

    by_path = {module.display_path: module for module in project.modules}
    report = LintReport(
        files=len(project.modules),
        rules=tuple(rule.rule_id for rule in active),
    )
    for finding in sorted(set(raw)):
        module = by_path.get(finding.path)
        suppressed_ids = (
            module.suppressions.get(finding.line, frozenset())
            if module is not None
            else frozenset()
        )
        if finding.rule_id in suppressed_ids or SUPPRESS_ALL in suppressed_ids:
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def lint_paths(
    paths: Sequence[os.PathLike], rules: Sequence[Rule] = ()
) -> LintReport:
    """Parse *paths* and lint them; the one-call entry point."""
    # Importing the rules package registers the built-in rules.
    import repro.analysis.rules  # noqa: F401

    project, errors = build_project(paths)
    return lint_project(project, rules, extra_findings=errors)
