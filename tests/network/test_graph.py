"""Tests for the mutable overlay graph."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network.graph import OverlayGraph
from repro.network.topology import (
    mesh_topology,
    power_law_topology,
    ring_topology,
)


@pytest.fixture
def triangle():
    return OverlayGraph([(0, 1), (1, 2), (0, 2)])


class TestStructure:
    def test_basic_counts(self, triangle):
        assert len(triangle) == 3
        assert triangle.n_edges() == 3
        assert triangle.degree(0) == 2

    def test_contains(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle

    def test_isolated_nodes_via_n_nodes(self):
        graph = OverlayGraph([(0, 1)], n_nodes=4)
        assert len(graph) == 4
        assert graph.degree(3) == 0
        assert not graph.is_connected()

    def test_edges_sorted_pairs(self, triangle):
        assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_neighbors_deterministic(self):
        graph = OverlayGraph([(0, 1), (0, 2), (0, 3)])
        assert graph.neighbors(0) == [1, 2, 3]


class TestMutation:
    def test_add_edge_idempotent(self, triangle):
        version = triangle.version
        triangle.add_edge(0, 1)
        assert triangle.n_edges() == 3
        assert triangle.version == version  # no-op does not bump

    def test_self_loop_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_edge(1, 1)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)
        with pytest.raises(TopologyError):
            triangle.remove_edge(0, 1)

    def test_negative_id_rejected(self):
        with pytest.raises(TopologyError):
            OverlayGraph([(-1, 0)])

    def test_join_assigns_fresh_id(self, triangle):
        node = triangle.join(attach_to=[0, 1])
        assert node == 3
        assert triangle.has_edge(3, 0)
        assert triangle.has_edge(3, 1)

    def test_join_random_attachment(self, triangle):
        node = triangle.join(n_links=2, rng=np.random.default_rng(0))
        assert triangle.degree(node) == 2

    def test_seeded_join_history_bootstrap_picks(self):
        """Bootstrap links of a seeded 50-join history (with leaves) are pinned.

        The candidate list's order feeds ``rng.choice``, so any reordering
        of it moves every pick below.
        """
        rng = np.random.default_rng(3)
        graph = OverlayGraph(power_law_topology(40, alpha=2.5, rng=rng), n_nodes=40)
        picks = []
        for i in range(50):
            if i % 5 == 4:
                nodes = graph.nodes()
                graph.leave(nodes[int(rng.integers(len(nodes)))])
            node = graph.join(n_links=2, rng=rng)
            picks.append(list(graph.neighbors(node)))
        assert picks == [
            [32, 33], [27, 0], [38, 33], [32, 40], [16, 4], [28, 36], [21, 40],
            [6, 9], [36, 13], [6, 12], [19, 26], [6, 30], [40, 9], [39, 2],
            [16, 28], [24, 49], [13, 48], [8, 50], [55, 34], [27, 57],
            [47, 18], [58, 3], [3, 21], [15, 11], [55, 39], [3, 7], [31, 25],
            [56, 37], [49, 62], [52, 37], [58, 50], [20, 50], [25, 10],
            [5, 50], [39, 4], [53, 43], [2, 37], [71, 8], [74, 44], [37, 29],
            [1, 50], [16, 10], [57, 61], [30, 78], [31, 6], [63, 28], [85, 43],
            [7, 25], [5, 81], [67, 66],
        ]

    def test_ids_never_reused(self, triangle):
        node = triangle.join(attach_to=[0])
        triangle.leave(node)
        assert triangle.join(attach_to=[0]) == node + 1

    def test_leave_rewires_ring(self):
        """Removing a ring node must keep the graph connected via rewiring."""
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        graph.leave(3, rewire=True)
        assert graph.is_connected()
        assert 3 not in graph

    def test_leave_without_rewire_can_disconnect(self):
        graph = OverlayGraph([(0, 1), (1, 2)], n_nodes=3)
        graph.leave(1, rewire=False)
        assert not graph.is_connected()

    def test_leave_unknown_raises(self, triangle):
        with pytest.raises(TopologyError):
            triangle.leave(42)

    def test_version_bumps_on_change(self, triangle):
        before = triangle.version
        triangle.join(attach_to=[0])
        assert triangle.version > before


class TestAnalysis:
    def test_hop_distances(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)])
        distances = graph.hop_distances(0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_hop_distance_cache_invalidation(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)])
        assert graph.hop_distances(0)[3] == 3
        graph.add_edge(0, 3)
        assert graph.hop_distances(0)[3] == 1

    def test_hop_distances_unknown_source(self, triangle):
        with pytest.raises(TopologyError):
            triangle.hop_distances(99)

    def test_is_connected_mesh(self):
        graph = OverlayGraph(mesh_topology(30), n_nodes=30)
        assert graph.is_connected()

    def test_empty_graph_connected(self):
        assert OverlayGraph([]).is_connected()

    def test_csr_roundtrip(self):
        graph = OverlayGraph([(0, 2), (2, 5), (0, 5)], n_nodes=6)
        node_ids, offsets, targets = graph.csr()
        assert node_ids.tolist() == [0, 1, 2, 3, 4, 5]
        rebuilt = set()
        for row in range(len(node_ids)):
            for position in range(offsets[row], offsets[row + 1]):
                neighbor = node_ids[targets[position]]
                rebuilt.add((min(node_ids[row], neighbor), max(node_ids[row], neighbor)))
        assert rebuilt == {(0, 2), (2, 5), (0, 5)}

    def test_csr_after_leave_has_compact_indices(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        graph.leave(2)
        node_ids, offsets, targets = graph.csr()
        assert 2 not in node_ids.tolist()
        assert targets.max() < len(node_ids)

    def test_copy_independent(self, triangle):
        clone = triangle.copy()
        clone.join(attach_to=[0])
        assert len(clone) == 4
        assert len(triangle) == 3

    def test_copy_preserves_structure(self, triangle):
        clone = triangle.copy()
        assert clone.edges() == triangle.edges()
        assert clone.nodes() == triangle.nodes()

    def test_copy_carries_version(self):
        graph = OverlayGraph(ring_topology(50), n_nodes=50)
        assert graph.version > 0
        assert graph.copy().version == graph.version

    def test_copy_has_its_own_caches(self, triangle):
        before = triangle.csr()
        triangle.hop_distances(0)
        clone = triangle.copy()
        clone.add_edge(0, 3)
        assert triangle.csr() is before
        assert 3 not in triangle.hop_distances(0)
        assert clone.hop_distances(0)[3] == 1
        node_ids, _, _ = clone.csr()
        assert node_ids.tolist() == [0, 1, 2, 3]
        assert triangle.csr()[0].tolist() == [0, 1, 2]


def _reference_csr(graph):
    """The original element-at-a-time CSR build, kept as the oracle."""
    node_ids = np.array(graph.nodes(), dtype=np.int64)
    index_of = {int(node): i for i, node in enumerate(node_ids)}
    offsets = np.zeros(len(node_ids) + 1, dtype=np.int64)
    for i, node in enumerate(node_ids):
        offsets[i + 1] = offsets[i] + len(graph.neighbors(int(node)))
    targets = np.empty(int(offsets[-1]), dtype=np.int64)
    cursor = 0
    for node in node_ids:
        for neighbor in graph.neighbors(int(node)):
            targets[cursor] = index_of[neighbor]
            cursor += 1
    return node_ids, offsets, targets


class TestCsrCache:
    def test_same_object_while_version_unchanged(self, triangle):
        first = triangle.csr()
        triangle.hop_distances(0)  # a query, not a mutation
        assert triangle.csr() is first

    def test_rebuilt_after_mutation(self, triangle):
        first = triangle.csr()
        triangle.join(attach_to=[0])
        second = triangle.csr()
        assert second is not first
        assert second[0].tolist() == [0, 1, 2, 3]

    def test_duplicate_edge_keeps_cache(self, triangle):
        first = triangle.csr()
        triangle.add_edge(0, 1)  # already present: no-op, no version bump
        assert triangle.csr() is first

    def test_arrays_are_read_only(self, triangle):
        for array in triangle.csr():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7

    def test_empty_graph(self):
        node_ids, offsets, targets = OverlayGraph([]).csr()
        assert node_ids.size == 0 and targets.size == 0
        assert offsets.tolist() == [0]


def _mutate(graph, op, a, b):
    """Apply one random mutation (skipped when it does not apply)."""
    nodes = graph.nodes()
    if op == "join":
        graph.join(n_links=1 + a % 3, rng=b)
    elif not nodes:
        return
    elif op == "leave":
        if len(nodes) > 1:
            graph.leave(nodes[a % len(nodes)], rewire=bool(b % 2))
    else:
        u, v = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if u == v:
            return
        if op == "add_edge":
            graph.add_edge(u, v)
        elif graph.has_edge(u, v):
            graph.remove_edge(u, v)


_HISTORY = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_edge", "remove_edge", "join", "leave", "csr", "copy"]
        ),
        st.integers(0, 15),
        st.integers(0, 15),
    ),
    max_size=60,
)


def _assert_csr_matches_reference(graph):
    cached = graph.csr()
    for got, want in zip(cached, _reference_csr(graph)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert graph.csr() is cached


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add_edge", "remove_edge", "join", "leave"]),
            st.integers(0, 15),
            st.integers(0, 15),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_cached_csr_matches_reference(operations):
    """After any mutation history the cached CSR equals a fresh build."""
    graph = OverlayGraph(ring_topology(6), n_nodes=6)
    for op, a, b in operations:
        _mutate(graph, op, a, b)
        _assert_csr_matches_reference(graph)


@given(operations=_HISTORY)
@settings(max_examples=200, deadline=None)
def test_property_spliced_csr_matches_reference(operations):
    """Snapshots spliced over several mutations equal a fresh build.

    Snapshots are taken only at ``csr`` steps, so each splice covers a
    run of mutations; a ``copy`` step forks the history, and from then on
    mutations alternate between the graphs, each splicing from its own
    previous snapshot (the clone's first one is a full build).
    """
    graphs = [OverlayGraph(ring_topology(6), n_nodes=6)]
    graphs[0].csr()
    for op, a, b in operations:
        graph = graphs[(a + b) % len(graphs)]
        if op == "csr":
            _assert_csr_matches_reference(graph)
        elif op == "copy":
            graphs.append(graph.copy())
        else:
            _mutate(graph, op, a, b)
    for graph in graphs:
        _assert_csr_matches_reference(graph)


def _reference_hops(graph, source):
    """Deque BFS over the adjacency lists: ``{node: hops}`` of reachable nodes."""
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return distances


@given(operations=_HISTORY, source=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_property_array_bfs_matches_deque_reference(operations, source):
    """After any history the CSR BFS equals a deque BFS, as dict and array.

    Histories include ``leave(rewire=False)``, so the graph may be
    disconnected; a source that is not (or no longer) in the graph is
    rejected.
    """
    graph = OverlayGraph(ring_topology(6), n_nodes=6)
    for op, a, b in operations:
        if op == "csr":
            graph.hop_distances(graph.nodes()[a % len(graph)])
        elif op != "copy":
            _mutate(graph, op, a, b)
    if source not in graph:
        with pytest.raises(TopologyError):
            graph.hop_distances(source)
        with pytest.raises(TopologyError):
            graph.hop_counts(source)
        return
    want = _reference_hops(graph, source)
    assert graph.hop_distances(source) == want
    node_ids = graph.csr()[0]
    hops = graph.hop_counts(source)
    assert hops.dtype == np.int64 and not hops.flags.writeable
    assert hops.tolist() == [want.get(int(node), -1) for node in node_ids]
    assert graph.is_connected() == (len(want) == len(graph))


class TestSplicedSnapshot:
    def test_leaver_and_its_neighbors_are_respliced(self):
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        graph.csr()
        graph.leave(3, rewire=False)
        graph.leave(5, rewire=True)
        graph.join(attach_to=[0, 7])
        _assert_csr_matches_reference(graph)

    def test_copy_starts_with_no_log_or_cache(self, triangle):
        triangle.csr()
        triangle.add_edge(0, 3)
        clone = triangle.copy()
        assert clone._csr_cache is None and not clone._touched
        _assert_csr_matches_reference(clone)
        _assert_csr_matches_reference(triangle)


class TestHopCounts:
    def test_one_search_serves_array_and_dict(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)], n_nodes=5)
        hops = graph.hop_counts(1)
        assert hops.tolist() == [1, 0, 1, 2, -1]
        distances = graph.hop_distances(1)
        assert distances == {0: 1, 1: 0, 2: 1, 3: 2}
        assert graph.hop_counts(1) is hops
        assert graph.hop_distances(1) is distances

    def test_mutation_or_new_source_invalidates(self):
        graph = OverlayGraph([(0, 1), (1, 2), (2, 3)])
        hops = graph.hop_counts(0)
        assert graph.hop_counts(3) is not hops
        graph.add_edge(0, 3)
        assert graph.hop_counts(0).tolist() == [0, 1, 2, 1]


class TestComponents:
    def test_connected_graph_is_one_component(self):
        graph = OverlayGraph(ring_topology(6), n_nodes=6)
        assert graph.components() == [[0, 1, 2, 3, 4, 5]]

    def test_fragments_enumerated_by_smallest_member(self):
        graph = OverlayGraph([(4, 5), (0, 1), (2, 3)], n_nodes=6)
        assert graph.components() == [[0, 1], [2, 3], [4, 5]]

    def test_isolated_node_is_its_own_component(self):
        graph = OverlayGraph([(0, 1)], n_nodes=3)
        assert graph.components() == [[0, 1], [2]]


class TestBridgeComponents:
    def test_noop_on_connected_graph(self):
        graph = OverlayGraph(ring_topology(5), n_nodes=5)
        assert graph.bridge_components(np.random.default_rng(0)) == []

    def test_restores_connectivity_with_minimum_edges(self):
        graph = OverlayGraph([(0, 1), (2, 3), (4, 5)], n_nodes=6)
        added = graph.bridge_components(np.random.default_rng(0))
        assert len(added) == 2  # 3 components -> 2 bridges
        assert graph.is_connected()

    def test_respects_degree_bound_when_headroom_exists(self):
        # stars: centers have degree 3, leaves degree 1
        star = [(0, 1), (0, 2), (0, 3), (10, 11), (10, 12), (10, 13)]
        graph = OverlayGraph(star, n_nodes=0)
        added = graph.bridge_components(
            np.random.default_rng(0), max_degree=2
        )
        assert graph.is_connected()
        for u, v in added:
            # bridges land on leaves (degree 1 -> 2), not the full centers
            assert u not in (0, 10) and v not in (0, 10)

    def test_connectivity_wins_when_no_headroom(self):
        # every node saturated at max_degree=1 by its own pair edge
        graph = OverlayGraph([(0, 1), (2, 3)], n_nodes=4)
        added = graph.bridge_components(
            np.random.default_rng(0), max_degree=1
        )
        assert graph.is_connected()
        assert len(added) == 1

    def test_rejects_nonpositive_max_degree(self):
        graph = OverlayGraph([(0, 1), (2, 3)], n_nodes=4)
        with pytest.raises(TopologyError, match="max_degree"):
            graph.bridge_components(np.random.default_rng(0), max_degree=0)

    def test_deterministic_in_rng(self):
        def repair() -> list:
            graph = OverlayGraph([(0, 1), (2, 3), (4, 5), (6, 7)], n_nodes=8)
            return graph.bridge_components(np.random.default_rng(42))

        assert repair() == repair()
