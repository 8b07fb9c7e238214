"""Shared utilities: seeded RNG plumbing, argument checks and text tables."""

from repro.utils.checks import check_count, check_real
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.tables import TextTable

__all__ = ["as_rng", "check_count", "check_real", "spawn_rngs", "TextTable"]
