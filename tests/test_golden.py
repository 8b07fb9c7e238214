"""Determinism gate: every payload in the golden corpus, bit for bit.

The corpus is computed twice, concurrently, in fresh interpreters under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``.  The two runs must agree
with each other (string-hash order must not reach a payload) and with
the committed ``tests/golden/corpus.json`` (nothing may move a payload
unnoticed: unseeded RNGs, wall-clock reads, one-ulp arithmetic changes).
An intentional change is recorded with ``python scripts/update_goldens.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).with_name("golden")))

import corpus  # noqa: E402


def test_corpus_matches_under_two_hash_seeds():
    computed, between = corpus.compute_under_two_hash_seeds()
    assert not between, (
        "PYTHONHASHSEED=0 and =1 disagree:\n" + "\n".join(between)
    )
    moved = corpus.diff(corpus.load(), computed)
    assert not moved, (
        "payloads moved against tests/golden/corpus.json "
        "(run scripts/update_goldens.py if intended):\n" + "\n".join(moved)
    )
