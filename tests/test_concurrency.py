"""Thread-safety regressions for module-level shared state.

The ``thread`` execution backend runs trials concurrently *inside one
process*, so the estimator and backend registries are shared state.
Each test hammers one of them from many threads and asserts the
invariant the lock exists to protect; before the locks landed these
lost registrations (registry check-then-set races).

Races are probabilistic: these tests cannot prove absence, but they
fail loudly (and did, pre-lock) when the guarded sections regress.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro.core
from repro.api import registry
from repro.runner.backends import (
    SerialBackend,
    available_backends,
    register_backend,
    unregister_backend,
)

WORKERS = 8


def run_concurrently(tasks):
    """Run thunks in a pool; re-raise the first worker exception."""
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = [pool.submit(task) for task in tasks]
        for future in futures:
            future.result()


class TestRegistryRaces:
    def test_estimator_registry_register_unregister_cycles(self):
        names = [f"_race_est_{i}" for i in range(WORKERS)]
        barrier = threading.Barrier(WORKERS)

        def cycle(name):
            barrier.wait()
            for _ in range(200):
                registry.register(name, object)
                assert name in registry.available()
                registry.unregister(name)

        try:
            run_concurrently([lambda n=n: cycle(n) for n in names])
        finally:
            for name in names:
                registry.unregister(name)
        assert not set(names) & set(registry.available())

    def test_backend_registry_register_unregister_cycles(self):
        names = [f"_race_backend_{i}" for i in range(WORKERS)]
        builtin = set(available_backends())
        barrier = threading.Barrier(WORKERS)

        def cycle(name):
            barrier.wait()
            for _ in range(200):
                register_backend(name, SerialBackend)
                assert name in available_backends()
                unregister_backend(name)

        try:
            run_concurrently([lambda n=n: cycle(n) for n in names])
        finally:
            for name in names:
                unregister_backend(name)
        assert set(available_backends()) == builtin

    def test_duplicate_registration_still_raises_under_contention(self):
        name = "_race_dup"
        registry.register(name, object)
        errors = []
        barrier = threading.Barrier(WORKERS)

        def reregister():
            barrier.wait()
            try:
                registry.register(name, object)
            except ValueError as error:
                errors.append(error)

        try:
            run_concurrently([reregister] * WORKERS)
        finally:
            registry.unregister(name)
        assert len(errors) == WORKERS


def test_core_holds_no_locks():
    """repro.core keeps no module-level shared state, so it needs no lock."""
    core = Path(repro.core.__file__).parent
    for path in sorted(core.glob("*.py")):
        assert "threading" not in path.read_text(), path.name
