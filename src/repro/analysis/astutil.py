"""Shared AST helpers: import bindings, dotted-name resolution, literals.

Every rule works on the parse tree alone — nothing here imports or
executes project code, which is what lets the linter check modules
whose runtime dependencies (numpy, scipy) may be absent.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "call_name",
    "class_str_attribute",
    "constant_str_sequence",
    "dotted_name",
    "import_bindings",
    "top_level_assignment",
]


def import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Map local names introduced by imports to their dotted origins.

    ``import numpy as np`` binds ``np -> numpy``; ``import numpy.random``
    binds ``numpy -> numpy``; ``from numpy import random as npr`` binds
    ``npr -> numpy.random``; ``from time import time`` binds
    ``time -> time.time``.  Relative imports are skipped — the rules
    that need them resolve modules through the project, not here.
    """
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    bindings[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                bindings[local] = f"{node.module}.{alias.name}"
    return bindings


def dotted_name(
    node: ast.AST, bindings: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """The dotted path of a Name/Attribute chain, resolved through imports.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``.  Returns None for anything that is not a
    plain attribute chain rooted at a name (calls, subscripts, ...).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if bindings and root in bindings:
        root = bindings[root]
    parts.append(root)
    return ".".join(reversed(parts))


def call_name(
    node: ast.Call, bindings: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """Dotted path of a call target (see :func:`dotted_name`)."""
    return dotted_name(node.func, bindings)


def top_level_assignment(
    tree: ast.Module, name: str
) -> Optional[Tuple[ast.stmt, ast.expr]]:
    """The last module-level assignment to *name* and its value node."""
    found: Optional[Tuple[ast.stmt, ast.expr]] = None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    found = (node, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and node.target.id == name:
                found = (node, node.value)
    return found


def constant_str_sequence(value: ast.expr) -> Optional[Tuple[str, ...]]:
    """The strings of a tuple/list display of constants, else None."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    items: List[str] = []
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        items.append(element.value)
    return tuple(items)


def class_str_attribute(
    tree: ast.Module, class_name: str, attribute: str
) -> Optional[str]:
    """The string constant ``attribute`` assigned in ``class class_name``."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for stmt in node.body:
            targets: Sequence[ast.expr] = ()
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == attribute
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    return value.value
    return None
