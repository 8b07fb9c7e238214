"""String-keyed registry of estimator backends.

The one place that maps method names to adapter classes::

    from repro.api import registry
    estimator = registry.get("lia", reduction_strategy="gap")
    registry.available()            # ("clink", "delay", "lia", "scfs", "tomo")

The table is a constant: the CLI (``repro infer --method`` /
``repro compare``) reads its names directly, and
:class:`~repro.api.scenario.Scenario` dispatches exclusively through
here.  A new estimator is one adapter class plus one entry below.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.api.adapters import (
    CLINKEstimator,
    DelayEstimator,
    LIAEstimator,
    SCFSEstimator,
    TomoEstimator,
)
from repro.api.estimator import Estimator

_REGISTRY: Dict[str, Type[Estimator]] = {
    LIAEstimator.name: LIAEstimator,
    DelayEstimator.name: DelayEstimator,
    SCFSEstimator.name: SCFSEstimator,
    CLINKEstimator.name: CLINKEstimator,
    TomoEstimator.name: TomoEstimator,
}


def available(exclude_kind: Optional[str] = None) -> Tuple[str, ...]:
    """Registered method names, sorted; *exclude_kind* drops the
    estimators whose output ``kind`` it names (e.g. ``"delay"``)."""
    return tuple(
        sorted(name for name, cls in _REGISTRY.items() if cls.kind != exclude_kind)
    )


def get(name: str, **params) -> Estimator:
    """Build a fresh estimator for *name* with the given parameters."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; registered: {', '.join(available())}"
        ) from None
    return cls(**params)
