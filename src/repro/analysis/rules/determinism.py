"""Determinism rules: payload modules must be seed-for-seed reproducible.

The repo's load-bearing contract — pinned at runtime by
``tests/test_runner.py`` and ``scripts/diff_result_stores.py`` — is
that every experiment payload is a pure function of its seeds:
identical across reruns, worker counts and execution backends.  Three statically checkable ways
to break that:

``unseeded-random``
    calling the process-global RNGs (``np.random.rand``,
    ``random.random``, ...) or constructing a generator without a seed
    (``np.random.default_rng()``).  All randomness must flow from an
    explicit seed threaded through the call tree.
``wall-clock``
    reading wall-clock time (``time.time()``, ``datetime.now()``): the
    value differs per run and, cached into a payload, breaks byte
    identity.  ``time.perf_counter()`` is exempt — duration
    measurement is what the timing experiment exists to do.
``set-iteration``
    materialising or iterating a bare ``set`` where order can escape
    into results: set hash order is stable within one process but not a
    contract across versions/machines.  Wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import call_name, import_bindings
from repro.analysis.base import Rule
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project

__all__ = ["SetIterationRule", "UnseededRandomRule", "WallClockRule"]

#: numpy.random names that are fine *when given a seed argument*.
_SEEDED_FACTORIES = {
    "default_rng",
    "Generator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "RandomState",
    "SFC64",
    "SeedSequence",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


class UnseededRandomRule(Rule):
    rule_id = "unseeded-random"
    description = (
        "no process-global or unseeded RNG (np.random.*, random.*, "
        "default_rng()) in payload-affecting modules"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if not project.is_payload(module):
            return
        bindings = import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, bindings)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                leaf = name.rsplit(".", 1)[1]
                if leaf in _SEEDED_FACTORIES:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"{leaf}() built without a seed; thread an "
                            "explicit seed or SeedSequence through instead",
                        )
                else:
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"np.random.{leaf} uses the process-global RNG; "
                        "use a Generator from np.random.default_rng(seed)",
                    )
            elif name.startswith("random.") and name.count(".") == 1:
                leaf = name.rsplit(".", 1)[1]
                if leaf == "Random" and (node.args or node.keywords):
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"random.{leaf} draws from the process-global stdlib "
                    "RNG; use a seeded random.Random or numpy Generator",
                )


class WallClockRule(Rule):
    rule_id = "wall-clock"
    description = (
        "no wall-clock reads (time.time, datetime.now) in "
        "payload-affecting modules; perf_counter is exempt"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if not project.is_payload(module):
            return
        bindings = import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, bindings)
            if name in _WALL_CLOCK:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{name}() reads the wall clock; payloads must not "
                    "depend on when a run happened "
                    "(time.perf_counter is fine for durations)",
                )


def _is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetIterationRule(Rule):
    rule_id = "set-iteration"
    description = (
        "no iteration over bare sets where order can reach payload "
        "data; wrap in sorted(...)"
    )

    #: Builtins that materialise iteration order into an ordered result.
    _ORDER_SINKS = ("list", "tuple", "enumerate", "iter", "next")

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if not project.is_payload(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_bare_set(node.iter):
                yield self._order_finding(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if _is_bare_set(comp.iter):
                        yield self._order_finding(module, comp.iter)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SINKS
                and node.args
                and _is_bare_set(node.args[0])
            ):
                yield self._order_finding(module, node.args[0])

    def _order_finding(self, module: ModuleInfo, node: ast.expr) -> Finding:
        return self.finding(
            module,
            node.lineno,
            node.col_offset,
            "iteration order of a bare set escapes into an ordered "
            "result; wrap the set in sorted(...)",
        )
