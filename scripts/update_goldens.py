"""Rewrite ``tests/golden/corpus.json``: ``python scripts/update_goldens.py``.

The corpus is computed under ``PYTHONHASHSEED=0`` and ``=1`` and refused
if the two disagree.  Each moved entry prints its old and new digest and
the shift in each summary statistic, so a numeric change is reviewed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "golden"))

import corpus  # noqa: E402


def main() -> int:
    computed, between = corpus.compute_under_two_hash_seeds()
    if between:
        print("PYTHONHASHSEED=0 and =1 disagree; corpus not written:")
        print("\n".join(between))
        return 1
    moved = corpus.diff(corpus.load(), computed)
    print("\n".join(moved) if moved else "no entry moved")
    corpus.CORPUS_PATH.write_text(corpus.dump(computed))
    print(f"wrote {len(computed)} entries to {corpus.CORPUS_PATH}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
