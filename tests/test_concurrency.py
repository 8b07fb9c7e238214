"""Module-level shared state in ``repro.core``.

The ``thread`` execution backend runs trials concurrently *inside one
process*, so any module-level mutable state would be shared between
trials.  ``repro.core`` keeps none, which is why it needs no lock, and
no module anywhere writes its module state from a function except the
reviewed seams in ``UNLOCKED_STATE``.
"""

import ast
from pathlib import Path

import repro.core


def test_core_holds_no_locks():
    """repro.core keeps no module-level shared state, so it needs no lock."""
    core = Path(repro.core.__file__).parent
    for path in sorted(core.glob("*.py")):
        assert "threading" not in path.read_text(), path.name


def test_registries_are_constants():
    """The estimator and backend registries are never mutated, so the
    modules holding them need no lock either."""
    from repro.api import registry
    from repro.runner import backends

    for module in (registry, backends):
        assert "threading" not in Path(module.__file__).read_text()


#: Module state a function may write without a lock, with the reason.
UNLOCKED_STATE = {
    ("src/repro/runner/cache.py", "_code_version_cache"):
        "idempotent memo: racing writers compute the same hash",
}
_CONTAINER_FACTORIES = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
}


def _module_containers(tree: ast.Module) -> set:
    """Names the module binds to a mutable container at import time."""
    names = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        func = value.func if isinstance(value, ast.Call) else None
        factory = getattr(func, "id", None) or getattr(func, "attr", None)
        if factory in _CONTAINER_FACTORIES or isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _written_module_state(tree: ast.Module):
    """Module globals some function rebinds or mutates in place."""
    containers = _module_containers(tree)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        declared = {n for node in nodes if isinstance(node, ast.Global) for n in node.names}
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)} | {
            node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        shared = (containers - local) | declared
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                target = node.id  # shared only if declared global
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = getattr(node.value, "id", None)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS:
                target = getattr(node.func.value, "id", None)
            else:
                continue
            if target in shared:
                yield target


def test_module_state_is_not_written_from_functions():
    """The thread backend shares one process: no function in src/,
    scripts/ or examples/ rebinds a module global or mutates a
    module-level container, except the reviewed seams above."""
    root = Path(__file__).resolve().parents[1]
    written = {
        (path.relative_to(root).as_posix(), name)
        for tree in ("src", "scripts", "examples")
        for path in sorted((root / tree).rglob("*.py"))
        for name in _written_module_state(ast.parse(path.read_text()))
    }
    assert written == set(UNLOCKED_STATE)
