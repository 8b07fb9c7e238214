"""Built-in rules: importing this package registers all of them.

Two families, five rules, each targeting a failure mode this repo has
actually shipped fixes for (see CHANGES.md PRs 6–9):

========================  ====================================================
``unseeded-random``       process-global / unseeded RNG in payload modules
``wall-clock``            ``time.time()`` & friends in payload modules
``set-iteration``         bare-set iteration order escaping into results
``unlocked-global``       module globals rebound outside a lock
``unlocked-mutation``     module containers mutated outside a lock
========================  ====================================================
"""

from __future__ import annotations

from repro.analysis.base import available_rules, register_rule
from repro.analysis.rules.concurrency import (
    ContainerMutationRule,
    GlobalRebindRule,
)
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)

__all__ = [
    "ContainerMutationRule",
    "GlobalRebindRule",
    "SetIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
]

_BUILTINS = (
    UnseededRandomRule,
    WallClockRule,
    SetIterationRule,
    GlobalRebindRule,
    ContainerMutationRule,
)

for _rule_class in _BUILTINS:
    if _rule_class.rule_id not in available_rules():
        register_rule(_rule_class())
del _rule_class
