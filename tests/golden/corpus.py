"""The golden corpus: absolute digests of every deterministic payload.

Each entry is a sha256 over the exact bytes of one payload plus a few
summary statistics (DR, FPR, median and maximum error factor, wherever
the payload defines them) so a moved entry says how far it moved.  The
corpus covers every experiment except ``timing`` (its payload is wall
clock) at tiny scale with seeds 0 and 1, the ``repro simulate``
documents of both traffic kinds, and one packet-simulator trace.

Run as a script, this module prints the corpus as JSON on stdout.
``tests/test_golden.py`` checks ``corpus.json`` against two such runs;
``scripts/update_goldens.py`` rewrites it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CORPUS_PATH = Path(__file__).with_name("corpus.json")
SIMULATE_ARGS = (
    "simulate", "--topology", "tree", "--size", "20", "--hosts", "4",
    "--snapshots", "4", "--probes", "200", "--seed", "0",
)
#: Data keys whose numbers feed each summary statistic.
STAT_KEYS = {
    "dr": ("dr", "lia_dr"),
    "fpr": ("fpr", "lia_fpr"),
    "ef": ("error_factors", "error_factor", "factor_cdf"),
}


def _feed(update, value: object) -> None:
    """Feed a tagged, unambiguous byte encoding of *value* to *update*.

    Floats go in as ``float.hex()`` and arrays as dtype, shape and raw
    bytes, so a one-ulp change anywhere moves the digest (``repr`` of an
    array keeps 8 digits and elides long arrays).  Dicts keep insertion
    order: an order that depends on hashing is a defect to catch.
    """
    if value is None:
        update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        update(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        update(b"f%s;" % float(value).hex().encode())
    elif isinstance(value, (str, bytes)):
        tag, data = (b"s", value.encode()) if isinstance(value, str) else (b"y", value)
        update(b"%s%d:%s" % (tag, len(data), data))
    elif isinstance(value, np.ndarray) and not value.dtype.hasobject:
        update(b"a%s%r" % (value.dtype.str.encode(), value.shape))
        update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        update(b"d%d:" % len(value))
        for key, item in value.items():
            _feed(update, key)
            _feed(update, item)
    elif isinstance(value, (list, tuple)):
        update(b"%s%d:" % (b"l" if isinstance(value, list) else b"t", len(value)))
        for item in value:
            _feed(update, item)
    elif dataclasses.is_dataclass(value):
        _feed(update, type(value).__qualname__)
        _feed(update, {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    elif hasattr(value, "__dict__"):
        _feed(update, type(value).__qualname__)
        _feed(update, vars(value))
    else:
        raise TypeError(f"no golden encoding for {type(value).__name__}")


def digest(value: object) -> str:
    sha = hashlib.sha256()
    _feed(sha.update, value)
    return sha.hexdigest()


def _gather(data: object, keys, out: List[float], take: bool = False) -> List[float]:
    """Every number in *data* under one of *keys*, depth first."""
    if isinstance(data, dict):
        for key, item in data.items():
            _gather(item, keys, out, take or key in keys)
    elif isinstance(data, (list, tuple)):
        for item in data:
            _gather(item, keys, out, take)
    elif dataclasses.is_dataclass(data):
        _gather(vars(data), keys, out, take)
    elif take:
        out.extend(np.ravel(data).astype(float))
    return out


def experiment_stats(result) -> Dict[str, float]:
    """DR, FPR and error-factor summaries, where the payload has them."""
    stats: Dict[str, float] = {}
    for name, header in (("dr", "DR"), ("fpr", "FPR")):
        values = _gather(result.data, STAT_KEYS[name], [])
        if not values and header in result.table.headers:
            # ablations carries its payload in the rendered table only.
            column = result.table.headers.index(header)
            values = [float(row[column]) for row in result.table._rows]
        if values:
            stats[name] = float(np.mean(values))
    factors = _gather(result.data, STAT_KEYS["ef"], [])
    if factors:
        stats["ef_median"] = float(np.median(factors))
        stats["ef_max"] = float(np.max(factors))
    return stats


def compute() -> Dict[str, Dict]:
    """Every corpus entry, computed in this process."""
    from repro.cli import main
    from repro.experiments import EXPERIMENTS
    from repro.netsim.sim import CongestionSimulator, TrafficConfig

    corpus = {}
    for name, run in EXPERIMENTS.items():
        for seed in () if name == "timing" else (0, 1):
            result = run(scale="tiny", seed=seed)
            corpus[f"experiment/{name}/seed{seed}"] = {
                "sha256": digest(result), "stats": experiment_stats(result),
            }
    with tempfile.TemporaryDirectory() as tmp:
        for traffic in ("analytic", "congestion"):
            out = Path(tmp) / "campaign.json"
            with contextlib.redirect_stdout(io.StringIO()):
                main([*SIMULATE_ARGS, "--traffic", traffic, "--out", str(out)])
            corpus[f"simulate/{traffic}"] = {
                "sha256": digest(out.read_bytes()), "stats": {},
            }
    # The 12-link chain-and-branch layout of benchmarks/test_bench_netsim.py.
    paths = [(0, 1, 2), (0, 1, 3), (0, 4, 5), (0, 4, 6), (7, 8), (7, 9), (10, 11), (10, 2)]
    rates = np.zeros(12)
    rates[[1, 5, 8]] = (0.05, 0.1, 0.03)
    simulator = CongestionSimulator(paths, 12, TrafficConfig(kind="congestion"))
    trace = simulator.run_snapshot(rates, 600, 17)
    counts = ("events", "packets_forwarded", "background_sent", "probe_drops")
    corpus["netsim/trace"] = {
        "sha256": digest(trace),
        "stats": {name: getattr(trace, name) for name in counts},
    }
    return corpus


def compute_under_two_hash_seeds() -> Tuple[Dict, List[str]]:
    """The corpus from fresh interpreters under ``PYTHONHASHSEED=0`` and
    ``=1``, run concurrently, plus the entries on which the two disagree.

    BLAS and OpenMP pools are pinned to one thread, as in ``perfbench``,
    so no reduction's summation order depends on the host.
    """
    runs = []
    for hash_seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), VECLIB_MAXIMUM_THREADS="1")
        env.update({f"{pool}_NUM_THREADS": "1" for pool in ("OPENBLAS", "OMP", "MKL", "NUMEXPR")})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen(
            [sys.executable, __file__], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outputs = [run.communicate() for run in runs]
    for run, (_, stderr) in zip(runs, outputs):
        if run.returncode != 0:
            raise RuntimeError(f"golden corpus run failed:\n{stderr}")
    first, second = (json.loads(stdout) for stdout, _ in outputs)
    return first, diff(first, second)


def load() -> Dict[str, Dict]:
    return json.loads(CORPUS_PATH.read_text()) if CORPUS_PATH.exists() else {}


def dump(corpus: Dict[str, Dict]) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def diff(old: Dict[str, Dict], new: Dict[str, Dict]) -> List[str]:
    """One line per entry that is new, gone or moved between two corpora."""
    lines = []
    for key in sorted(set(old) | set(new)):
        before, after = old.get(key), new.get(key)
        if before and after and before["sha256"] == after["sha256"]:
            continue
        line = f"{key}: {before['sha256'][:16] if before else 'new'} -> "
        line += after["sha256"][:16] if after else "gone"
        if before and after:
            shifts = [
                f"{name} {after['stats'][name] - before['stats'][name]:+.3g}"
                for name in sorted(set(before["stats"]) & set(after["stats"]))
            ]
            line += f" ({', '.join(shifts)})" if shifts else ""
        lines.append(line)
    return lines


if __name__ == "__main__":
    sys.stdout.write(dump(compute()))
