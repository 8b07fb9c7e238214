"""Argparse front end of the lint engine.

:func:`run_lint` backs the ``repro lint`` verb; ``python -m
repro.analysis.cli --list-rules`` prints the registered rules.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import lint_paths
from repro.analysis.report import FORMATS, render, render_markdown

__all__ = ["build_parser", "main", "run_lint"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Project-invariant static analysis: determinism, "
            "concurrency (repro.analysis)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE_ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--summary-file",
        default=None,
        help=(
            "append a markdown summary of the run to this file "
            "(CI passes $GITHUB_STEP_SUMMARY)"
        ),
    )
    return parser


def run_lint(
    paths: List[str],
    fmt: str = "text",
    rule_ids: Optional[List[str]] = None,
    summary_file: Optional[str] = None,
) -> int:
    """Lint *paths*; print the report; return the process exit code."""
    from repro.analysis.base import all_rules

    import repro.analysis.rules  # noqa: F401 - registers the built-ins

    try:
        rules = all_rules(rule_ids or ())
        report = lint_paths(paths, rules)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(render(report, fmt))
    if summary_file:
        with open(summary_file, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(report))
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        from repro.analysis.base import all_rules

        import repro.analysis.rules  # noqa: F401

        for rule in all_rules():
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    return run_lint(
        args.paths,
        fmt=args.format,
        rule_ids=args.rule,
        summary_file=args.summary_file,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
