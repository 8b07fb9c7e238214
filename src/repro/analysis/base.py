"""The :class:`Rule` protocol and the string-keyed rule registry.

Concrete rules register under a stable ``rule_id`` (the id users write
in ``# reprolint: disable=`` comments), downstream code can plug in
project-specific rules with :func:`register_rule`, and the engine
dispatches exclusively through :func:`all_rules`.  Unlike the estimator
and backend registries, which are constants, this one stays open to
plugins, so its mutation is lock-guarded — the contract the
``unlocked-mutation`` rule enforces on every module-level container.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, Iterator, Tuple

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import ModuleInfo, Project

__all__ = [
    "Rule",
    "all_rules",
    "available_rules",
    "get_rule",
    "register_rule",
    "unregister_rule",
]


class Rule:
    """One named invariant checked against the parse tree.

    Subclasses set ``rule_id``/``description`` and override
    :meth:`check_module` (called once per parsed file, with the whole
    :class:`Project` for cross-file lookups).  It yields
    :class:`Finding`\\ s; the engine applies suppressions afterwards, so
    rules never need to read comments.
    """

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check_module(
        self, module: "ModuleInfo", project: "Project"
    ) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, module: "ModuleInfo", line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


_RULES: Dict[str, Rule] = {}
_RULES_LOCK = threading.Lock()


def register_rule(rule: Rule, overwrite: bool = False) -> None:
    """Add (or, with *overwrite*, replace) a rule under its ``rule_id``."""
    if not rule.rule_id:
        raise ValueError("rule_id must be non-empty")
    with _RULES_LOCK:
        if rule.rule_id in _RULES and not overwrite:
            raise ValueError(
                f"rule {rule.rule_id!r} already registered (pass overwrite=True)"
            )
        _RULES[rule.rule_id] = rule


def unregister_rule(rule_id: str) -> None:
    """Remove a rule (built-ins included — tests restore them)."""
    with _RULES_LOCK:
        _RULES.pop(rule_id, None)


def available_rules() -> Tuple[str, ...]:
    """Registered rule ids, sorted."""
    with _RULES_LOCK:
        return tuple(sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    with _RULES_LOCK:
        try:
            return _RULES[rule_id]
        except KeyError:
            raise ValueError(
                f"unknown rule {rule_id!r}; registered: "
                f"{', '.join(sorted(_RULES))}"
            ) from None


def all_rules(only: Iterable[str] = ()) -> Tuple[Rule, ...]:
    """Every registered rule (or the *only* subset), id-sorted."""
    wanted = tuple(only)
    if wanted:
        return tuple(get_rule(rule_id) for rule_id in sorted(wanted))
    with _RULES_LOCK:
        return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))
