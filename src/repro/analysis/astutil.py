"""Shared AST helpers: import bindings and dotted-name resolution.

Every rule works on the parse tree alone — nothing here imports or
executes project code, which is what lets the linter check modules
whose runtime dependencies (numpy, scipy) may be absent.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

__all__ = [
    "call_name",
    "dotted_name",
    "import_bindings",
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
