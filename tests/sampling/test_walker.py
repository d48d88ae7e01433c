"""Tests for the walk snapshot, its Metropolis edge table and the kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError, StoreError, TopologyError
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology, ring_topology
from repro.sampling import walker
from repro.sampling.metropolis import (
    acceptance_probability,
    metropolis_matrix,
    stationary_distribution,
)
from repro.sampling.mixing import sparse_transition_matrix, total_variation
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import (
    content_size_weights,
    table_weights,
    uniform_weights,
)


@pytest.fixture
def mesh_context():
    graph = OverlayGraph(mesh_topology(25), n_nodes=25)
    return WalkContext.from_graph(graph, uniform_weights())


class TestWalkContext:
    def test_basic_fields(self, mesh_context):
        assert mesh_context.n_nodes == 25
        assert mesh_context.degrees.sum() == mesh_context.targets.size
        np.testing.assert_allclose(mesh_context.target_distribution().sum(), 1.0)

    def test_compact_index_roundtrip(self, mesh_context):
        for node in (0, 7, 24):
            index = mesh_context.compact_index(node)
            assert mesh_context.node_ids[index] == node

    def test_compact_index_unknown(self, mesh_context):
        with pytest.raises(SamplingError):
            mesh_context.compact_index(999)

    def test_rejects_isolated_nodes(self):
        graph = OverlayGraph([(0, 1)], n_nodes=3)
        with pytest.raises(TopologyError, match="isolated"):
            WalkContext.from_graph(graph, uniform_weights())

    def test_rejects_negative_weights(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(SamplingError):
            WalkContext.from_graph(graph, lambda node: -1.0)

    def test_accept_table_matches_scalar_rule(self):
        context = _pin_context()
        assert not context.accept.flags.writeable
        assert context.accept.shape == context.targets.shape
        for i in range(context.n_nodes):
            for e in range(context.offsets[i], context.offsets[i + 1]):
                j = context.targets[e]
                assert context.accept[e] == acceptance_probability(
                    context.weights[i], int(context.degrees[i]),
                    context.weights[j], int(context.degrees[j]),
                )

    def test_graph_version_recorded(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        context = WalkContext.from_graph(graph, uniform_weights())
        assert context.graph_version == graph.version


class TestSingleWalker:
    """One agent driven through :func:`batch_walk`."""

    def test_stays_on_edges(self, mesh_context):
        graph = OverlayGraph(mesh_topology(25), n_nodes=25)
        rng = np.random.default_rng(0)
        position = np.array([mesh_context.compact_index(0)])
        for _ in range(200):
            step, _ = batch_walk(mesh_context, position, 1, rng, laziness=0.0)
            previous = int(mesh_context.node_ids[position[0]])
            current = int(mesh_context.node_ids[step[0]])
            assert current == previous or graph.has_edge(previous, current)
            position = step

    def test_step_counters(self, mesh_context):
        ledger = MessageLedger()
        batch_walk(
            mesh_context, np.zeros(1, dtype=np.int64), 100,
            np.random.default_rng(0), ledger=ledger,
        )
        # with laziness 1/2, roughly half the steps propose
        assert 20 <= ledger.walk_steps <= 80

    def test_ledger_counts_proposals(self, mesh_context):
        # without laziness every step is one proposal, accepted or not
        ledger = MessageLedger()
        batch_walk(
            mesh_context, np.zeros(1, dtype=np.int64), 100,
            np.random.default_rng(0), ledger=ledger, laziness=0.0,
        )
        assert ledger.walk_steps == 100

    def test_negative_steps_rejected(self, mesh_context):
        with pytest.raises(SamplingError):
            batch_walk(
                mesh_context, np.zeros(1, dtype=np.int64), -1,
                np.random.default_rng(0),
            )

    def test_invalid_laziness(self, mesh_context):
        for laziness in (1.0, -0.1):
            with pytest.raises(SamplingError):
                batch_walk(
                    mesh_context, np.zeros(1, dtype=np.int64), 1,
                    np.random.default_rng(0), laziness=laziness,
                )

    def test_converges_to_uniform(self):
        """One long walk visits nodes ~ uniformly (ergodic average)."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        context = WalkContext.from_graph(graph, uniform_weights())
        rng = np.random.default_rng(0)
        position, _ = batch_walk(context, np.zeros(1, dtype=np.int64), 500, rng)
        counts = np.zeros(16)
        for _ in range(30000):
            position, _ = batch_walk(context, position, 1, rng)
            counts[position[0]] += 1
        empirical = counts / counts.sum()
        assert total_variation(empirical, context.target_distribution()) < 0.05


class TestBatchWalk:
    def test_zero_steps_identity(self, mesh_context):
        starts = np.array([0, 3, 5])
        ends, _ = batch_walk(mesh_context, starts, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(ends, starts)

    def test_empty_batch(self, mesh_context):
        ends, _ = batch_walk(
            mesh_context, np.array([], dtype=np.int64), 10, np.random.default_rng(0)
        )
        assert ends.size == 0

    def test_does_not_mutate_starts(self, mesh_context):
        starts = np.zeros(8, dtype=np.int64)
        batch_walk(mesh_context, starts, 50, np.random.default_rng(0))
        assert (starts == 0).all()

    def test_ledger_accounting(self, mesh_context):
        ledger = MessageLedger()
        batch_walk(
            mesh_context,
            np.zeros(10, dtype=np.int64),
            100,
            np.random.default_rng(0),
            ledger=ledger,
        )
        # ~half of 10*100 walker-steps are non-lazy proposals
        assert 300 <= ledger.walk_steps <= 700

    def test_negative_steps_rejected(self, mesh_context):
        with pytest.raises(SamplingError):
            batch_walk(
                mesh_context, np.zeros(2, dtype=np.int64), -1, np.random.default_rng(0)
            )

    def test_uniform_target_distribution(self):
        """Many converged walkers land ~ target-distributed (uniform)."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        context = WalkContext.from_graph(graph, uniform_weights())
        starts = np.zeros(20000, dtype=np.int64)
        ends, _ = batch_walk(context, starts, 300, np.random.default_rng(0))
        counts = np.bincount(ends, minlength=16).astype(float)
        empirical = counts / counts.sum()
        assert total_variation(empirical, context.target_distribution()) < 0.03

    def test_nonuniform_target_distribution(self):
        """Walkers respect an arbitrary weight function (Theorem 2)."""
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        weights = {node: float(node + 1) for node in graph.nodes()}
        weight = table_weights(weights)
        context = WalkContext.from_graph(graph, weight)
        _, target = stationary_distribution(graph, weight)
        starts = np.zeros(20000, dtype=np.int64)
        ends, _ = batch_walk(context, starts, 400, np.random.default_rng(1))
        counts = np.bincount(ends, minlength=8).astype(float)
        empirical = counts / counts.sum()
        assert total_variation(empirical, target) < 0.03

    def test_matches_dense_chain_distribution(self):
        """End positions follow ``e_0 P^150`` of the dense reference chain."""
        rng = np.random.default_rng(3)
        graph = OverlayGraph(power_law_topology(40, rng=rng), n_nodes=40)
        weight = uniform_weights()
        context = WalkContext.from_graph(graph, weight)
        node_ids, dense = metropolis_matrix(graph, weight)
        assert node_ids.tolist() == context.node_ids.tolist()
        exact = np.linalg.matrix_power(dense, 150)[0]
        ends, _ = batch_walk(
            context, np.zeros(20000, dtype=np.int64), 150,
            np.random.default_rng(4),
        )
        empirical = np.bincount(ends, minlength=40) / ends.size
        # a 20000-draw histogram over 40 bins sits ~0.02 TV from its
        # exact law; 0.04 flags a wrong chain
        assert total_variation(empirical, exact) < 0.04

    def test_rejects_out_of_range_starts(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        context = WalkContext.from_graph(graph, uniform_weights())
        for starts in ([-2, -2], [-1], [4], [0, 7]):
            for steps in (0, 3):
                with pytest.raises(SamplingError, match="start positions"):
                    batch_walk(
                        context, np.array(starts), steps,
                        np.random.default_rng(0),
                    )

    def test_edgeless_context_keeps_starts(self):
        graph = OverlayGraph([], n_nodes=1)
        context = WalkContext.from_graph(graph, uniform_weights())
        ledger = MessageLedger()
        ends, _ = batch_walk(
            context, np.zeros(5, dtype=np.int64), 20,
            np.random.default_rng(0), ledger=ledger,
        )
        assert ends.tolist() == [0] * 5
        assert ledger.walk_steps == 0


def _pin_context():
    """300-node power-law overlay, integer weights 0-4 (61 zero nodes)."""
    rng = np.random.default_rng(11)
    graph = OverlayGraph(power_law_topology(300, rng=rng), n_nodes=300)
    draws = np.random.default_rng(12).integers(0, 5, size=300)
    weight = table_weights(
        {node: float(draws[i]) for i, node in enumerate(graph.nodes())}
    )
    return WalkContext.from_graph(graph, weight)


@pytest.mark.parametrize(
    ("laziness", "seed", "expected_ends", "expected_steps"),
    [
        (
            0.0, 5,
            [65, 44, 192, 250, 75, 53, 32, 24, 93, 71, 36, 143,
             233, 129, 117, 250, 132, 76, 124, 205, 287, 19, 102, 280],
            1920,
        ),
        (
            0.5, 6,
            [19, 297, 292, 289, 281, 118, 3, 206, 199, 125, 12, 198,
             156, 141, 71, 167, 53, 31, 229, 51, 154, 224, 248, 166],
            920,
        ),
    ],
)
def test_kernel_pin(laziness, seed, expected_ends, expected_steps):
    """Seed-for-seed pin of :func:`batch_walk`: end positions and ledger."""
    context = _pin_context()
    assert int((context.weights == 0).sum()) == 61
    ledger = MessageLedger()
    ends, _ = batch_walk(
        context, np.arange(0, 300, 13, dtype=np.int64), 80,
        np.random.default_rng(seed), ledger, laziness,
    )
    assert ends.tolist() == expected_ends
    assert ledger.walk_steps == expected_steps


def _reference_walk(context, start_positions, lengths, rng, ledger, laziness):
    """The per-round kernel :func:`batch_walk` must reproduce bit for bit.

    Each round makes its own ``rng.random((2, k))`` call: the ``k``
    moving agents' neighbor picks, then their acceptance coins.
    """
    positions = np.array(start_positions, dtype=np.int64, copy=True)
    lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), positions.shape)
    if context.targets.size == 0:
        return positions, np.zeros(positions.size, dtype=np.int64)
    budgets = (
        rng.binomial(lengths, 1.0 - laziness) if laziness > 0.0 else lengths.copy()
    )
    order = np.argsort(-budgets, kind="stable")
    walking = positions[order]
    descending = budgets[order]
    n_moving = np.searchsorted(-descending, -np.arange(budgets.max(initial=0)))
    for k in n_moving.tolist():
        current = walking[:k]
        pick, coin = rng.random((2, k))
        edge = context.offsets[current] + (
            pick * context.degrees[current]
        ).astype(np.int64)
        moved = np.flatnonzero(coin < context.accept[edge])
        walking[moved] = context.targets[edge[moved]]
    positions[order] = walking
    if ledger is not None:
        ledger.record_walk_steps(int(budgets.sum()))
    return positions, budgets


def _random_kernel_call(seed):
    """A random context and call: power-law overlay, some zero weights."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 80))
    if n_nodes < 3:
        graph = OverlayGraph([], n_nodes=1)  # the edgeless context
    else:
        graph = OverlayGraph(
            power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes
        )
    draws = rng.integers(0, 4, size=len(graph))
    draws[int(rng.integers(len(graph)))] = 1  # some weight is positive
    weight = table_weights(
        {node: float(draws[i]) for i, node in enumerate(graph.nodes())}
    )
    context = WalkContext.from_graph(graph, weight)
    n_agents = int(rng.integers(0, 60))
    starts = rng.integers(0, context.n_nodes, size=n_agents)
    if rng.random() < 0.5:
        lengths = rng.integers(0, 40, size=n_agents)  # per agent, some 0
    else:
        lengths = int(rng.integers(0, 40))
    laziness = (0.0, 0.5)[seed % 2]
    return context, starts, lengths, laziness


@pytest.mark.parametrize(
    ("block", "tail"),
    [
        pytest.param(
            block, tail, id=f"{block}" if tail is None else f"{block}-tail{tail}"
        )
        for tail in (None, 0, 1, 64)
        for block in (None, 1, 2, 7)
    ],
)
@pytest.mark.parametrize("seed", range(60))
def test_kernel_matches_per_round_reference(seed, block, tail, monkeypatch):
    """Same ends, budgets, ledger and generator state as the reference.

    ``block`` overrides the kernel's uniforms-per-draw cap and ``tail``
    its scalar-tail threshold (None keeps a default): blocks 1 and 2 draw
    every vector round on its own, 7 groups the short rounds at the end
    of a call. Tail 0 runs every round as a vector round, 64 steps these
    calls of at most 60 agents one agent at a time, and 1 switches over
    for the last mover alone.
    """
    if block is not None:
        monkeypatch.setattr(walker, "_BLOCK_VALUES", block)
    if tail is not None:
        monkeypatch.setattr(walker, "_TAIL_MOVERS", tail)
    context, starts, lengths, laziness = _random_kernel_call(seed)
    outcomes = []
    for kernel in (batch_walk, _reference_walk):
        rng = np.random.default_rng(1000 + seed)
        ledger = MessageLedger()
        ends, budgets = kernel(context, starts, lengths, rng, ledger, laziness)
        outcomes.append(
            (ends.tolist(), budgets.tolist(), ledger.walk_steps, rng.random())
        )
    assert outcomes[0] == outcomes[1]


def _law_context():
    """20-node power-law overlay (degrees 1-10) with weights 1-4."""
    graph = OverlayGraph(
        power_law_topology(20, rng=np.random.default_rng(2)), n_nodes=20
    )
    draws = np.random.default_rng(3).integers(1, 5, size=20)
    weight = table_weights(
        {node: float(draws[i]) for i, node in enumerate(graph.nodes())}
    )
    return WalkContext.from_graph(graph, weight)


def _lazy_law(context, origin, length):
    """Origin row of ``P_lazy^length`` (laziness 1/2), exactly."""
    row = np.zeros(context.n_nodes)
    row[origin] = 1.0
    transpose = sparse_transition_matrix(context, 0.5).T.tocsr()
    for _ in range(length):
        row = transpose @ row
    return row


#: TV between an N-draw histogram over 20 bins and its own law is at
#: most about sqrt(20 / (2 pi N)) / 2: 0.0025 for N = 200 000, 0.0035
#: for a third of that. The bound leaves about three times that; the
#: lazy chain one step shorter or longer, the non-lazy chain, or another
#: group's length sits over 0.05 away on these short walks.
LAW_WALKERS = 200_000
LAW_TV_BOUND = 0.01


class TestKernelLaw:
    """End positions follow the lazy chain's ``P_lazy^L`` row, per agent."""

    def test_one_length(self):
        context = _law_context()
        assert len(set(context.degrees.tolist())) > 2  # not regular
        origin = int(np.argmax(context.degrees))
        exact = _lazy_law(context, origin, 3)
        wrong = [_lazy_law(context, origin, 2), _lazy_law(context, origin, 4)]
        non_lazy = sparse_transition_matrix(context, 0.0).toarray()
        wrong.append(np.linalg.matrix_power(non_lazy, 3)[origin])
        for law in wrong:
            assert total_variation(exact, law) > 5 * LAW_TV_BOUND
        ends, budgets = batch_walk(
            context, np.full(LAW_WALKERS, origin), 3, np.random.default_rng(9)
        )
        empirical = np.bincount(ends, minlength=context.n_nodes) / LAW_WALKERS
        assert total_variation(empirical, exact) < LAW_TV_BOUND
        # Binomial(3, 1/2) budgets: mean 1.5, standard error 0.0019
        assert budgets.max() <= 3
        assert abs(budgets.mean() - 1.5) < 0.01

    def test_mixed_lengths_in_one_call(self):
        context = _law_context()
        origin = int(np.argmax(context.degrees))
        lengths = np.tile([7, 2, 4], LAW_WALKERS // 3)
        ledger = MessageLedger()
        ends, budgets = batch_walk(
            context, np.full(lengths.size, origin), lengths,
            np.random.default_rng(10), ledger,
        )
        assert ledger.walk_steps == budgets.sum()
        assert (budgets <= lengths).all()
        for length in (7, 2, 4):
            group = ends[lengths == length]
            empirical = np.bincount(group, minlength=context.n_nodes) / group.size
            exact = _lazy_law(context, origin, length)
            assert total_variation(empirical, exact) < LAW_TV_BOUND


class TestFromSubgraph:
    def test_keeps_only_intra_scope_edges(self):
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[0, 1, 2, 3]
        )
        assert context.node_ids.tolist() == [0, 1, 2, 3]
        # the ring arc 0-1-2-3 keeps its 3 internal edges; the wrap-around
        # edges (0,7) and (3,4) are dropped
        assert context.degrees.tolist() == [1, 2, 2, 1]

    def test_matches_from_graph_on_full_scope(self):
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        full = WalkContext.from_graph(graph, uniform_weights())
        scoped = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=graph.nodes()
        )
        assert scoped.node_ids.tolist() == full.node_ids.tolist()
        assert scoped.offsets.tolist() == full.offsets.tolist()
        assert scoped.targets.tolist() == full.targets.tolist()

    def test_rejects_empty_scope(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(SamplingError, match="no nodes"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes=[])

    def test_rejects_internally_disconnected_scope(self):
        # 0 and 2 are opposite corners of a 4-ring: scope {0, 2} has no
        # internal edges, leaving both isolated
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(TopologyError, match="isolated"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes=[0, 2])

    def test_walks_never_leave_the_scope(self):
        graph = OverlayGraph(ring_topology(10), n_nodes=10)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[0, 1, 2, 3, 4]
        )
        rng = np.random.default_rng(0)
        starts = np.zeros(32, dtype=np.int64)
        final, _ = batch_walk(context, starts, lengths=50, rng=rng)
        sampled = {int(context.node_ids[index]) for index in final}
        assert sampled <= {0, 1, 2, 3, 4}

    def test_rejects_nodes_outside_the_overlay(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        with pytest.raises(TopologyError, match=r"\[9\]"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes=[0, 1, 9])

    def test_single_node_scope_is_allowed(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        context = WalkContext.from_subgraph(
            graph, uniform_weights(), nodes=[1]
        )
        assert context.n_nodes == 1


def _reference_subgraph(graph, nodes):
    """The original per-neighbor subgraph CSR loop, kept as the oracle."""
    node_ids = np.array(sorted(int(node) for node in nodes), dtype=np.int64)
    member = set(node_ids.tolist())
    offsets = np.zeros(node_ids.size + 1, dtype=np.int64)
    kept: list[int] = []
    for i, node in enumerate(node_ids):
        local = [n for n in graph.neighbors(int(node)) if n in member]
        offsets[i + 1] = offsets[i] + len(local)
        kept.extend(local)
    index_of = {int(node): i for i, node in enumerate(node_ids)}
    targets = np.array([index_of[n] for n in kept], dtype=np.int64)
    return node_ids, offsets, targets


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(3, 40),
    leaves=st.integers(0, 8),
    keep=st.floats(0.1, 1.0),
)
@settings(max_examples=120, deadline=None)
def test_property_subgraph_matches_reference(seed, n, leaves, keep):
    """The masked cut of the cached CSR equals the per-neighbor loop."""
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(n, rng=rng), n_nodes=n)
    for _ in range(min(leaves, n - 2)):
        graph.leave(int(rng.choice(graph.nodes())))
    graph.join(rng=rng)
    nodes = [node for node in graph.nodes() if rng.random() < keep]
    if not nodes:
        return
    node_ids, offsets, targets = _reference_subgraph(graph, nodes)
    if node_ids.size > 1 and np.any(np.diff(offsets) == 0):
        with pytest.raises(TopologyError, match="isolated"):
            WalkContext.from_subgraph(graph, uniform_weights(), nodes)
        return
    context = WalkContext.from_subgraph(graph, uniform_weights(), nodes)
    assert np.array_equal(context.node_ids, node_ids)
    assert np.array_equal(context.offsets, offsets)
    assert np.array_equal(context.targets, targets)
    assert context.targets.dtype == np.int64


def _outcome(build):
    """A context's ``(weights, accept)`` bytes, or the error it raised."""
    try:
        context = build()
    except (SamplingError, StoreError, TopologyError) as error:
        return type(error), str(error)
    return context.weights.tobytes(), context.accept.tobytes()


@given(seed=st.integers(0, 2**16), rounds=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_property_size_array_context_is_bit_identical(seed, rounds):
    """Weighing through the size array equals calling the weight per node.

    After random inserts, deletes and churn rounds (joins, leaves, and the
    database's ``handle_churn``), a content-size context built with one
    gather and one built by per-node calls agree bit for bit on
    ``weights`` and ``accept``, or raise the same error, for the full
    overlay and for a scope.
    """
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(40, rng=rng), n_nodes=40)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    churn = ChurnProcess(
        graph, ChurnConfig(leave_probability=0.1, join_rate=3.0), rng
    )
    for _ in range(rounds):
        nodes = database.nodes()
        for _ in range(int(rng.integers(0, 15))):
            database.insert(nodes[int(rng.integers(len(nodes)))], {"v": 1.0})
        for node in rng.choice(nodes, size=3):
            ids = database.store(int(node)).tuple_ids()
            if ids:
                database.delete(ids[0])
        database.handle_churn(churn.step())
    weight = content_size_weights(database)

    def per_node(node):
        return weight(node)

    origin = graph.nodes()[0]
    scope = [n for n, h in graph.hop_distances(origin).items() if h <= 2]
    for make in (
        lambda w: WalkContext.from_graph(graph, w),
        lambda w: WalkContext.from_subgraph(graph, w, scope),
    ):
        assert _outcome(lambda: make(weight)) == _outcome(lambda: make(per_node))


class TestSizeArrayWeights:
    def test_all_zero_weights_rejected(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        with pytest.raises(SamplingError, match="all node weights are zero"):
            WalkContext.from_graph(graph, content_size_weights(database))

    def test_missing_store_rejected(self):
        graph = OverlayGraph(ring_topology(4), n_nodes=4)
        database = P2PDatabase(Schema(("v",)), [0, 1, 3])
        database.insert(0, {"v": 1.0})
        with pytest.raises(StoreError, match="node 2 has no store"):
            WalkContext.from_graph(graph, content_size_weights(database))
        with pytest.raises(StoreError, match="node 2 has no store"):
            WalkContext.from_subgraph(
                graph, content_size_weights(database), [1, 2, 3]
            )
