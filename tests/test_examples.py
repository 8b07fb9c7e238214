"""Every script under ``examples/`` runs to completion.

The examples are the documented entry points (and the only callers of
the paper's ``LossInferenceAlgorithm`` name outside the tests), so each
one runs as its own subprocess against this checkout's ``src/``.  The
golden corpus pins what ``src/`` computes; the scripts under
``examples/`` and ``scripts/`` sit outside it, so a static scan keeps
them free of unseeded randomness, wall-clock reads and set-order
iteration.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, "no scripts under examples/"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr


_WALL_CLOCK = {
    "time.time", "time.time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
}
#: RNG constructors that are fine when given a seed.
_SEEDABLE = {
    "default_rng", "Generator", "RandomState", "SeedSequence", "Random",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}


def _is_set(node: ast.expr) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "frozenset")
    )


def _nondeterminism(tree: ast.Module):
    """(line, message) per global or unseeded RNG call, wall-clock read
    and bare-set iteration in *tree*."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            imported.update({a.asname: a.name for a in node.names if a.asname})
    for node in ast.walk(tree):
        iterated = [node.iter] if isinstance(node, ast.For) else [
            comp.iter for comp in getattr(node, "generators", [])
        ]
        if isinstance(node, ast.Call):
            head, _, rest = ast.unparse(node.func).partition(".")
            name = ".".join(filter(None, [imported.get(head, head), rest]))
            if name in _WALL_CLOCK:
                yield node.lineno, f"{name}() reads the wall clock"
            elif name.startswith(("numpy.random.", "random.")) and not (
                name.rsplit(".", 1)[1] in _SEEDABLE and (node.args or node.keywords)
            ):
                yield node.lineno, f"{name}() is a global or unseeded RNG"
            if getattr(node.func, "id", None) in ("list", "tuple", "enumerate", "iter", "next"):
                iterated += node.args[:1]
        for expr in filter(_is_set, iterated):
            yield expr.lineno, "set iteration order escapes; use sorted()"


def test_entry_points_are_deterministic():
    """No script under examples/ or scripts/ draws from a global or
    unseeded RNG, reads the wall clock, or iterates a bare set."""
    found = [
        f"{path.relative_to(ROOT)}:{line}: {message}"
        for tree in ("examples", "scripts")
        for path in sorted((ROOT / tree).glob("*.py"))
        for line, message in _nondeterminism(ast.parse(path.read_text()))
    ]
    assert not found, "\n".join(found)
