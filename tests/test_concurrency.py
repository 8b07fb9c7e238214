"""Module-level shared state in ``repro.core``.

The ``thread`` execution backend runs trials concurrently *inside one
process*, so any module-level mutable state would be shared between
trials.  ``repro.core`` keeps none, which is why it needs no lock.
"""

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
