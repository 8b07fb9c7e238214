"""Route-fluttering detection (Assumption T.2 of the paper).

Two paths *flutter* when they share two links without sharing all the links
in between: they meet, diverge, and meet again.  Theorem 1 requires that no
pair of probing paths flutters.  The paper removes fluttering paths from the
routing matrix before inference (Section 7.1 removed 52 of 48 151 paths); we
provide the same filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.topology.graph import Path
from repro.topology.routing import within_group_pairs


def shared_segments(path_a: Path, path_b: Path) -> List[List[int]]:
    """Contiguous runs (in *path_a* order) of links shared with *path_b*.

    Each run is returned as a list of physical link indices.  A single run
    means the two paths meet once; two or more runs mean they flutter.
    """
    links_b: Set[int] = set(path_b.link_indices())
    runs: List[List[int]] = []
    current: List[int] = []
    for link in path_a.links:
        if link.index in links_b:
            current.append(link.index)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def paths_flutter(path_a: Path, path_b: Path) -> bool:
    """True when the pair violates Assumption T.2.

    The shared links must be contiguous along *both* paths (a shared
    contiguous segment of one path could be visited in scattered order by
    the other in a pathological routing).
    """
    if len(shared_segments(path_a, path_b)) > 1:
        return True
    return len(shared_segments(path_b, path_a)) > 1


def find_fluttering_pairs(paths: Sequence[Path]) -> List[Tuple[int, int]]:
    """All fluttering pairs, as (row, row) index tuples with row_a < row_b.

    Works on the path-by-link incidence with each link's position on its
    path.  Every pair of incidences of one link on two paths is one
    shared link of that pair; a pair sharing at most one link can never
    flutter.  For a pair of simple paths, its shared links are
    contiguous along a path exactly when their positions there span
    ``count`` consecutive slots, so the pair flutters when
    ``max - min + 1 != count`` on either path.  A path that visits a
    link twice breaks that count, so its candidate pairs are settled by
    :func:`paths_flutter` instead.  The within-link pairs come from
    :func:`~repro.topology.routing.within_group_pairs`, the enumeration
    that also builds the augmented matrix's intersecting pairs.
    """
    lengths = np.fromiter((len(p.links) for p in paths), dtype=np.int64)
    links = np.fromiter(
        (link.index for p in paths for link in p.links),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    path_of = np.repeat(np.arange(lengths.size), lengths)
    position = np.arange(links.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # Group incidences by link; a stable sort keeps paths ascending.
    order = np.argsort(links, kind="stable")
    links, path_of, position = links[order], path_of[order], position[order]
    repeat = (links[1:] == links[:-1]) & (path_of[1:] == path_of[:-1])
    walks = np.unique(path_of[1:][repeat]) if repeat.any() else None

    # Every pair of incidences of one link; a != b drops each
    # incidence's pair with itself and a walk's revisits.
    first, second = within_group_pairs(np.bincount(links))
    a, b = path_of[first], path_of[second]
    distinct = a != b
    if not distinct.any():
        return []
    # Per pair of paths: how many links they share, and the span of
    # those links' positions along each path.
    key = a[distinct] * len(paths) + b[distinct]
    order = np.argsort(key)
    key = key[order]
    pos_a = position[first[distinct][order]]
    pos_b = position[second[distinct][order]]
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    count = np.searchsorted(key, key[bounds], side="right") - bounds
    span_a = np.maximum.reduceat(pos_a, bounds) - np.minimum.reduceat(pos_a, bounds)
    span_b = np.maximum.reduceat(pos_b, bounds) - np.minimum.reduceat(pos_b, bounds)
    candidate = count >= 2
    flutter = candidate & ((span_a + 1 != count) | (span_b + 1 != count))
    pair_a, pair_b = np.divmod(key[bounds], len(paths))
    if walks is not None:
        irregular = candidate & (np.isin(pair_a, walks) | np.isin(pair_b, walks))
        for k in np.flatnonzero(irregular):
            flutter[k] = paths_flutter(paths[pair_a[k]], paths[pair_b[k]])
    return list(zip(pair_a[flutter].tolist(), pair_b[flutter].tolist()))


def remove_fluttering_paths(
    paths: Sequence[Path],
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[List[Path], List[int]]:
    """Drop a minimal-ish set of paths so no fluttering pair remains.

    Greedy: repeatedly remove the path involved in the most fluttering
    pairs.  Mirrors the paper's pragmatic handling ("we keep only the
    measurements on one path and ignore the others").  Returns the kept
    paths (re-indexed 0..k-1) and the original indices of removed paths.
    *pairs* takes the :func:`find_fluttering_pairs` result when the
    caller already has it.
    """
    pairs = list(find_fluttering_pairs(paths) if pairs is None else pairs)
    removed: Set[int] = set()
    while pairs:
        counts: Dict[int, int] = {}
        for a, b in pairs:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        victim = max(sorted(counts), key=lambda i: counts[i])
        removed.add(victim)
        pairs = [p for p in pairs if victim not in p]

    kept: List[Path] = []
    for i, path in enumerate(paths):
        if i in removed:
            continue
        kept.append(
            Path(
                index=len(kept),
                source=path.source,
                dest=path.dest,
                links=path.links,
            )
        )
    return kept, sorted(removed)


def assert_no_fluttering(paths: Sequence[Path]) -> None:
    """Raise ``ValueError`` when Assumption T.2 is violated."""
    pairs = find_fluttering_pairs(paths)
    if pairs:
        raise ValueError(
            f"routing violates Assumption T.2: {len(pairs)} fluttering "
            f"path pairs, first {pairs[0]}"
        )
