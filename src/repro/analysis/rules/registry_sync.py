"""Registry-sync rule: static CLI choice mirrors must match registries.

``repro.cli`` (and ``repro.runner.args``) deliberately keep *static*
copies of each runtime registry's names so that building an argparse
parser never imports scipy or the netsim stack.  The price of a mirror
is drift; this rule pays it once, statically, for every mirror at
lint time instead of per-mirror runtime pin tests.

Each :class:`Mirror` names the tuple holding the static copy and the
registry it must equal.  Registries are read literally: a dict display
(string keys, or ``SomeClass.name`` attributes resolved through the
class body — following one ``from ... import`` hop inside the project)
plus any module-level ``register*("name", ...)`` calls.  A registry the
rule cannot statically resolve is itself a finding: these tables are
load-bearing, so they must stay analysable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.astutil import (
    class_str_attribute,
    constant_str_sequence,
    top_level_assignment,
)
from repro.analysis.base import Rule
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project

__all__ = ["MIRRORS", "Mirror", "RegistrySyncRule"]


@dataclass(frozen=True)
class Mirror:
    """One static choice tuple and the registry it mirrors."""

    mirror_module: str
    mirror_name: str
    source_module: str
    source_name: str
    #: "tuple" = plain tuple of strings; "registry" = dict keys plus
    #: module-level register*() calls.
    source_kind: str = "tuple"


MIRRORS: Tuple[Mirror, ...] = (
    Mirror("repro.cli", "METHOD_CHOICES", "repro.api.registry",
           "_REGISTRY", "registry"),
    Mirror("repro.cli", "VARIANCE_SOLVER_CHOICES", "repro.core.variance",
           "VARIANCE_METHODS"),
    Mirror("repro.cli", "TRAFFIC_CHOICES", "repro.netsim.sim.config",
           "TRAFFIC_KINDS"),
    Mirror("repro.cli", "EXPERIMENT_CHOICES", "repro.experiments",
           "EXPERIMENTS", "registry"),
    Mirror("repro.cli", "SCALE_CHOICES", "repro.experiments.base",
           "SCALES"),
    Mirror("repro.runner.args", "BACKEND_CHOICES", "repro.runner.backends",
           "_BACKENDS", "registry"),
)


class RegistrySyncRule(Rule):
    rule_id = "registry-sync"
    description = (
        "static CLI choice tuples must equal the registries they mirror "
        "(dict keys + register() calls), name for name"
    )

    def __init__(self, mirrors: Tuple[Mirror, ...] = MIRRORS) -> None:
        self.mirrors = mirrors

    def check_project(self, project: Project) -> Iterator[Finding]:
        for mirror in self.mirrors:
            yield from self._check_mirror(project, mirror)

    def _check_mirror(
        self, project: Project, mirror: Mirror
    ) -> Iterator[Finding]:
        holder = project.find_module(mirror.mirror_module)
        source = project.find_module(mirror.source_module)
        if holder is None or source is None:
            # Partial lint (single file): nothing to compare against.
            return
        assignment = top_level_assignment(holder.tree, mirror.mirror_name)
        if assignment is None:
            yield self.finding(
                holder,
                1,
                0,
                f"{mirror.mirror_module}.{mirror.mirror_name} is gone but "
                f"is the static mirror of "
                f"{mirror.source_module}.{mirror.source_name}",
            )
            return
        stmt, value = assignment
        declared = constant_str_sequence(value)
        if declared is None:
            yield self.finding(
                holder,
                stmt.lineno,
                stmt.col_offset,
                f"{mirror.mirror_name} must be a literal tuple/list of "
                "strings so the mirror stays statically checkable",
            )
            return
        if mirror.source_kind == "registry":
            names, problem = _registry_names(
                project, source, mirror.source_name
            )
        else:
            names, problem = _tuple_names(source, mirror.source_name)
        if problem is not None:
            yield self.finding(source, problem[0], 0, problem[1])
            return
        missing = sorted(set(names) - set(declared))
        extra = sorted(set(declared) - set(names))
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {', '.join(missing)}")
            if extra:
                detail.append(f"stale {', '.join(extra)}")
            yield self.finding(
                holder,
                stmt.lineno,
                stmt.col_offset,
                f"{mirror.mirror_name} drifted from "
                f"{mirror.source_module}.{mirror.source_name}: "
                f"{'; '.join(detail)}",
            )


def _tuple_names(
    source: ModuleInfo, name: str
) -> Tuple[Tuple[str, ...], Optional[Tuple[int, str]]]:
    assignment = top_level_assignment(source.tree, name)
    if assignment is None:
        return (), (1, f"registry tuple {name} not found in {source.name}")
    stmt, value = assignment
    names = constant_str_sequence(value)
    if names is None:
        return (), (
            stmt.lineno,
            f"{name} is not a literal tuple of strings; the registry-sync "
            "rule cannot verify its mirrors",
        )
    return names, None


def _registry_names(
    project: Project, source: ModuleInfo, name: str
) -> Tuple[Tuple[str, ...], Optional[Tuple[int, str]]]:
    """Keys of a registry dict plus module-level ``register*()`` calls."""
    assignment = top_level_assignment(source.tree, name)
    if assignment is None:
        return (), (1, f"registry dict {name} not found in {source.name}")
    stmt, value = assignment
    if not isinstance(value, ast.Dict):
        return (), (
            stmt.lineno,
            f"{name} is not a dict display; the registry-sync rule "
            "cannot statically read its keys",
        )
    names: List[str] = []
    for key in value.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.append(key.value)
            continue
        resolved = _resolve_name_attribute(project, source, key)
        if resolved is None:
            return (), (
                getattr(key, "lineno", stmt.lineno),
                f"cannot statically resolve a key of {name}; use a string "
                "literal or a Class.name attribute with a literal value",
            )
        names.append(resolved)
    for node in source.tree.body:
        call = node.value if isinstance(node, ast.Expr) else None
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id.startswith("register")
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            names.append(call.args[0].value)
    return tuple(names), None


def _resolve_name_attribute(
    project: Project, source: ModuleInfo, key: Optional[ast.expr]
) -> Optional[str]:
    """Resolve a ``SomeClass.name`` registry key to its string value."""
    if not (
        isinstance(key, ast.Attribute) and isinstance(key.value, ast.Name)
    ):
        return None
    class_name, attribute = key.value.id, key.attr
    value = class_str_attribute(source.tree, class_name, attribute)
    if value is not None:
        return value
    # One import hop: `from repro.api.adapters import LIAEstimator`.
    for node in source.tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.module):
            continue
        origins: Dict[str, str] = {
            (alias.asname or alias.name): alias.name for alias in node.names
        }
        if class_name not in origins:
            continue
        target = project.find_module(node.module)
        if target is None:
            return None
        return class_str_attribute(target.tree, origins[class_name], attribute)
    return None
