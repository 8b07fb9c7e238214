"""Concurrency rules: module-level mutable state wants a lock.

The ``thread`` :class:`~repro.runner.backends.ExecutionBackend` (and the
planned asyncio monitoring service) run trials concurrently *inside one
process*, so every module-level registry and cache is shared state.  Two statically checkable hazards:

``unlocked-global``
    a function rebinds a module global (``global x; x = ...``) outside
    a ``with <module-level lock>:`` block.  Swapping out a registry or
    a cache is the canonical case.
``unlocked-mutation``
    a function mutates a module-level container (``_REGISTRY[k] = v``,
    ``_cache.move_to_end(...)``, ``cache.clear()``) outside a lock.

A mutation is considered guarded when it executes under ``with <lock>``
where ``<lock>`` is a module-level ``threading.Lock()`` / ``RLock()`` /
``Condition()`` (or ``multiprocessing`` equivalent).  Genuinely
single-writer seams (import-time memoisation, idempotent caches) should
carry a ``# reprolint: disable=...`` comment documenting that contract
— the suppression *is* the documentation.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.analysis.astutil import dotted_name, import_bindings
from repro.analysis.base import Rule
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project

__all__ = ["GlobalRebindRule", "ContainerMutationRule"]

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

_CONTAINER_FACTORIES = {
    "dict",
    "list",
    "set",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.deque",
    "collections.Counter",
}

#: Methods that mutate a container in place.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def _module_locks(module: ModuleInfo) -> Set[str]:
    bindings = import_bindings(module.tree)
    locks: Set[str] = set()
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call):
            continue
        name = dotted_name(value.func, bindings)
        if name not in _LOCK_FACTORIES:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                locks.add(target.id)
    return locks


def _module_containers(module: ModuleInfo) -> Set[str]:
    bindings = import_bindings(module.tree)
    containers: Set[str] = set()
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        )
        if not mutable and isinstance(value, ast.Call):
            mutable = dotted_name(value.func, bindings) in _CONTAINER_FACTORIES
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                containers.add(target.id)
    return containers


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _global_names(function: ast.stmt) -> Set[str]:
    """Names this function body declares ``global`` (nested defs excluded)."""
    names: Set[str] = set()

    def visit(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Global):
                names.update(stmt.names)
            for block in _sub_blocks(stmt):
                visit(block)

    visit(function.body)
    return names


def _sub_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    blocks: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            blocks.append(value)
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    for case in getattr(stmt, "cases", []):
        blocks.append(case.body)
    return blocks


def _scan(
    stmts: Sequence[ast.stmt], locks: Set[str], under_lock: bool
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Yield (simple statement, guarded?) pairs, tracking ``with`` locks."""
    for stmt in stmts:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            guarded = under_lock or any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in locks
                for item in stmt.items
            )
            yield from _scan(stmt.body, locks, guarded)
            continue
        blocks = _sub_blocks(stmt)
        if blocks:
            # Compound statement: header expressions (if/while tests, for
            # iterables) are scanned as synthetic simple statements so a
            # mutating call in a header is still seen; bodies recurse.
            for attr in ("test", "iter", "subject"):
                value = getattr(stmt, attr, None)
                if isinstance(value, ast.expr):
                    yield ast.copy_location(ast.Expr(value=value), stmt), under_lock
            for block in blocks:
                yield from _scan(block, locks, under_lock)
        else:
            yield stmt, under_lock


class GlobalRebindRule(Rule):
    rule_id = "unlocked-global"
    description = (
        "functions rebinding module globals (`global x; x = ...`) must "
        "hold a module-level lock (the thread backend shares the process)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        locks = _module_locks(module)
        for function in _functions(module.tree):
            declared = _global_names(function)
            if not declared:
                continue
            for stmt, guarded in _scan(function.body, locks, False):
                if guarded:
                    continue
                for target in _assigned_names(stmt):
                    if target in declared:
                        yield self.finding(
                            module,
                            stmt.lineno,
                            stmt.col_offset,
                            f"global {target!r} rebound outside a lock in "
                            f"{function.name}(); guard it with a module "
                            "threading.Lock or document the single-writer "
                            "contract in a suppression",
                        )


def _assigned_names(stmt: ast.stmt) -> List[str]:
    names: List[str] = []
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(
                element.id
                for element in target.elts
                if isinstance(element, ast.Name)
            )
    return names


class ContainerMutationRule(Rule):
    rule_id = "unlocked-mutation"
    description = (
        "module-level containers (registries, caches) must be mutated "
        "under a module-level lock"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        containers = _module_containers(module)
        if not containers:
            return
        locks = _module_locks(module)
        for function in _functions(module.tree):
            # Names shadowed by parameters are locals, not module state.
            shadowed = {
                arg.arg
                for arg in (
                    function.args.posonlyargs
                    + function.args.args
                    + function.args.kwonlyargs
                )
            }
            visible = containers - shadowed
            if not visible:
                continue
            for stmt, guarded in _scan(function.body, locks, False):
                if guarded:
                    continue
                for node, name in _mutations(stmt, visible):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"module-level container {name!r} mutated outside "
                        f"a lock in {function.name}(); guard it with a "
                        "module threading.Lock or document the "
                        "single-writer contract in a suppression",
                    )


def _mutations(
    stmt: ast.stmt, containers: Set[str]
) -> Iterator[Tuple[ast.AST, str]]:
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            name = _subscript_base(target)
            if name in containers:
                yield target, name
    elif isinstance(stmt, ast.AugAssign):
        name = _subscript_base(stmt.target)
        if name in containers:
            yield stmt.target, name
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            name = _subscript_base(target)
            if name in containers:
                yield target, name
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in containers
            and node.func.attr in _MUTATORS
        ):
            yield node, node.func.value.id


def _subscript_base(node: ast.expr) -> str:
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    return ""
