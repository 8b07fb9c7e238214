"""Argument checks that name the argument they reject."""

from __future__ import annotations

import math
import numbers
from typing import Any


def check_real(name: str, value: Any) -> Any:
    """*value*, or ``ValueError`` naming *name* unless a finite real."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def check_count(name: str, value: Any) -> Any:
    """*value*, or ``ValueError`` naming *name* unless an integer.

    Numpy integers pass; ``bool`` and integral floats do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
