"""Tests for route-fluttering detection (Assumption T.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.base import scale_params
from repro.topology import prepare as prepare_module
from repro.topology.fluttering import (
    assert_no_fluttering,
    find_fluttering_pairs,
    paths_flutter,
    remove_fluttering_paths,
    shared_segments,
)
from repro.topology.graph import Network, Path, build_paths
from repro.topology.prepare import (
    MESH_TOPOLOGY_KINDS,
    make_topology,
    prepare_topology,
)


def fluttering_pair():
    """Two paths that meet, diverge, and meet again."""
    net = Network()
    a = net.add_link(0, 1)
    b1 = net.add_link(1, 2)
    b2 = net.add_link(1, 3)
    c1 = net.add_link(2, 4)
    c2 = net.add_link(3, 4)
    d = net.add_link(4, 5)
    p1 = Path(index=0, source=0, dest=5, links=(a, b1, c1, d))
    p2 = Path(index=1, source=0, dest=5, links=(a, b2, c2, d))
    return p1, p2


def nested_pair():
    """Two paths sharing one contiguous segment (legal)."""
    net = Network()
    a = net.add_link(0, 1)
    b = net.add_link(1, 2)
    c = net.add_link(2, 3)
    e = net.add_link(4, 1)
    f = net.add_link(2, 5)
    p1 = Path(index=0, source=0, dest=3, links=(a, b, c))
    p2 = Path(index=1, source=4, dest=5, links=(e, b, f))
    return p1, p2


class TestDetection:
    def test_fluttering_detected(self):
        p1, p2 = fluttering_pair()
        assert paths_flutter(p1, p2)

    def test_contiguous_overlap_is_legal(self):
        p1, p2 = nested_pair()
        assert not paths_flutter(p1, p2)

    def test_disjoint_paths_do_not_flutter(self):
        net = Network()
        a = net.add_link(0, 1)
        b = net.add_link(2, 3)
        p1 = Path(index=0, source=0, dest=1, links=(a,))
        p2 = Path(index=1, source=2, dest=3, links=(b,))
        assert not paths_flutter(p1, p2)

    def test_shared_segments_counts_runs(self):
        p1, p2 = fluttering_pair()
        assert len(shared_segments(p1, p2)) == 2

    def test_find_pairs(self):
        p1, p2 = fluttering_pair()
        assert find_fluttering_pairs([p1, p2]) == [(0, 1)]

    def test_find_pairs_empty_for_tree(self, small_tree):
        _, paths, _ = small_tree
        assert find_fluttering_pairs(paths) == []

    def test_assert_raises_on_fluttering(self):
        p1, p2 = fluttering_pair()
        with pytest.raises(ValueError, match="T.2"):
            assert_no_fluttering([p1, p2])

    def test_assert_passes_on_clean(self, small_tree):
        _, paths, _ = small_tree
        assert_no_fluttering(paths)


class TestRemoval:
    def test_removal_clears_fluttering(self):
        p1, p2 = fluttering_pair()
        kept, removed = remove_fluttering_paths([p1, p2])
        assert len(kept) == 1
        assert len(removed) == 1
        assert find_fluttering_pairs(kept) == []

    def test_removal_reindexes(self):
        p1, p2 = fluttering_pair()
        q1, q2 = nested_pair()
        # Re-index the clean pair after the fluttering ones.
        q1 = Path(index=2, source=q1.source, dest=q1.dest, links=q1.links)
        q2 = Path(index=3, source=q2.source, dest=q2.dest, links=q2.links)
        kept, removed = remove_fluttering_paths([p1, p2, q1, q2])
        assert [p.index for p in kept] == list(range(len(kept)))
        assert len(kept) == 3

    def test_no_op_on_clean_paths(self, small_tree):
        _, paths, _ = small_tree
        kept, removed = remove_fluttering_paths(paths)
        assert removed == []
        assert len(kept) == len(paths)


def all_pairs_flutter(paths):
    """The definition itself: every pair through :func:`paths_flutter`."""
    return [
        (i, j)
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
        if paths_flutter(paths[i], paths[j])
    ]


def random_walks(network, count, rng):
    """Simple random walks; unlike shortest paths they often flutter."""
    nodes = list(network.nodes())
    walks = []
    while len(walks) < count:
        node = nodes[rng.integers(len(nodes))]
        visited, links = {node}, []
        for _ in range(rng.integers(1, 12)):
            options = [x for x in network.out_links(node) if x.head not in visited]
            if not options:
                break
            link = options[rng.integers(len(options))]
            links.append(link)
            visited.add(link.head)
            node = link.head
        if links:
            walks.append(
                Path(index=len(walks), source=links[0].tail, dest=node,
                     links=tuple(links))
            )
    return walks


def line(net, nodes):
    """The links along *nodes*, adding any that are missing."""
    return tuple(
        net.find_link(a, b) or net.add_link(a, b) for a, b in zip(nodes, nodes[1:])
    )


def hand_built_paths():
    """Meet-diverge-meet shapes, a reversed shared segment, and walks."""
    net = Network()
    specs = [
        (0, 1, 2, 3, 4, 5),
        (0, 1, 6, 3, 4, 5),  # meets 0-1, diverges, meets 3-4-5
        (7, 1, 2, 3, 8),  # one contiguous shared run with the first
        (9, 2, 3, 4, 10),
        (4, 3, 2, 1, 0),  # the first's links in reverse: none shared
        (11, 3, 4, 12, 2, 3),  # revisits node 3: link 2->3 then 3->4 again
        (2, 3, 4, 12, 2, 3, 4),  # a walk that uses 2->3 and 3->4 twice
        (13, 2, 3, 14),
        (15, 4, 5, 16, 1, 2, 17),  # shares 4-5 and 1-2 with the first, swapped
        (20, 21, 20, 21),  # a walk over one link pair: 20->21 twice
        (20, 21, 20),  # one contiguous run on both, despite the repeat
    ]
    return [
        Path(index=i, source=nodes[0], dest=nodes[-1], links=line(net, nodes))
        for i, nodes in enumerate(specs)
    ]


class TestAgainstAllPairs:
    """find_fluttering_pairs against the brute-force all-pairs scan."""

    def test_hand_built_shapes(self):
        paths = hand_built_paths()
        expected = all_pairs_flutter(paths)
        assert (0, 1) in expected and (0, 8) in expected and (0, 2) not in expected
        assert any(6 in pair for pair in expected) and (9, 10) not in expected
        assert find_fluttering_pairs(paths) == expected

    def test_segment_in_another_order(self):
        """Shared links contiguous on one path, scattered on the other."""
        net = Network()
        p_links = line(net, (0, 1, 2, 3))
        q_links = line(net, (1, 2, 5, 0, 1, 6, 2, 3))  # y, ..., x, ..., z
        p = Path(index=0, source=0, dest=3, links=p_links)
        q = Path(index=1, source=1, dest=3, links=q_links)
        for paths in ([p, q], [q, p]):
            assert all_pairs_flutter(paths) == [(0, 1)]
            assert find_fluttering_pairs(paths) == [(0, 1)]

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(MESH_TOPOLOGY_KINDS + ("tree",)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_meshes(self, kind, seed):
        topo = make_topology(kind, scale_params("tiny"), seed)
        routed = build_paths(topo.network, topo.beacons, topo.destinations)
        walks = random_walks(topo.network, 120, np.random.default_rng(seed))
        for paths in (routed, walks, routed + walks):
            assert find_fluttering_pairs(paths) == all_pairs_flutter(paths)

    @pytest.mark.parametrize("kind", MESH_TOPOLOGY_KINDS)
    def test_random_walks_do_flutter(self, kind):
        """The walks above exercise the fluttering branch, not just no-ops."""
        topo = make_topology(kind, scale_params("tiny"), 0)
        walks = random_walks(topo.network, 120, np.random.default_rng(0))
        assert find_fluttering_pairs(walks) == all_pairs_flutter(walks) != []


class TestPrepareDetectsOnce:
    def test_one_detection_per_prepare(self, monkeypatch):
        p1, p2 = fluttering_pair()
        q1, q2 = nested_pair()
        q1 = Path(index=2, source=q1.source, dest=q1.dest, links=q1.links)
        q2 = Path(index=3, source=q2.source, dest=q2.dest, links=q2.links)
        paths = [p1, p2, q1, q2]
        expected_kept, expected_removed = remove_fluttering_paths(paths)
        calls = []
        original = find_fluttering_pairs

        def counted(paths):
            calls.append(len(paths))
            return original(paths)

        monkeypatch.setattr(prepare_module, "build_paths", lambda *a: paths)
        monkeypatch.setattr(prepare_module, "find_fluttering_pairs", counted)
        monkeypatch.setattr(
            "repro.topology.fluttering.find_fluttering_pairs", counted
        )
        prepared = prepare_topology("tree", scale_params("tiny"), 0)
        assert calls == [4]
        assert prepared.num_removed_fluttering == len(expected_removed) == 1
        assert [p.links for p in prepared.paths] == [
            p.links for p in expected_kept
        ]
