"""Tests for the sampling operator S."""

import numpy as np
import pytest

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology, power_law_topology
from repro.obs.schema import SPAN_SAMPLE_ACQUISITION
from repro.obs.tracer import SinkTracer
from repro.sampling import mixing
from repro.sampling import operator as operator_module
from repro.sampling.mixing import total_variation
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import (
    content_size_weights,
    table_weights,
    uniform_weights,
)


def _world(n=36, tuples_low=1, tuples_high=6, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(int(rng.integers(tuples_low, tuples_high))):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


def _plan(*episodes):
    return PartitionPlan(PartitionSchedule(episodes=episodes), rng=1)


def _count_eigengaps(monkeypatch):
    """Record every eigengap the operator computes, in call order."""
    gaps = []
    compute = mixing.eigengap_sparse

    def counting(matrix):
        gaps.append(compute(matrix))
        return gaps[-1]

    monkeypatch.setattr(mixing, "eigengap_sparse", counting)
    return gaps


def _lost_messages(tracer):
    """The lost messages the recorded ``sample_acquisition`` spans count."""
    return sum(
        span.attrs["n_lost"]
        for span in tracer.trace().spans_named(SPAN_SAMPLE_ACQUISITION)
    )


class TestConfig:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"laziness": 1.0},
            {"walk_length": 0},
            {"reset_length": 0},
            {"recompute_drift": 0.0},
            {"length_policy": "bogus"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(SamplingError):
            SamplerConfig(**kwargs)


class TestNodeSampling:
    def test_respects_weight_function(self):
        graph, _ = _world()
        weights = {node: 1.0 if node < 18 else 3.0 for node in graph.nodes()}
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(gamma=0.02, continued_walks=False),
        )
        samples = operator.sample_nodes(table_weights(weights), 6000, origin=0)
        counts = np.zeros(36)
        for node in samples:
            counts[node] += 1
        target = np.array([weights[n] for n in range(36)])
        target = target / target.sum()
        assert total_variation(counts / counts.sum(), target) < 0.05

    @pytest.mark.parametrize("length_policy", ["empirical", "theorem3"])
    def test_one_node_overlay_returns_origin(self, length_policy):
        graph = OverlayGraph([], n_nodes=1)
        ledger = MessageLedger()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            ledger,
            SamplerConfig(length_policy=length_policy),
        )
        assert operator.sample_nodes(uniform_weights(), 3, 0) == [0, 0, 0]
        assert ledger.total == 0
        assert operator.samples_drawn == 3

    def test_zero_samples(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        assert operator.sample_nodes(uniform_weights(), 0, origin=0) == []

    def test_negative_samples_rejected(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_nodes(uniform_weights(), -1, origin=0)

    def test_unknown_origin_rejected(self):
        graph, _ = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_nodes(uniform_weights(), 1, origin=999)

    def test_fixed_walk_length_used(self):
        graph, _ = _world()
        ledger = MessageLedger()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            ledger,
            SamplerConfig(walk_length=40, continued_walks=False, laziness=0.0),
        )
        operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert ledger.walk_steps == 400  # every step proposes at laziness 0

    def test_continued_walks_cheaper(self):
        graph, database = _world(64)
        costs = {}
        for continued in (True, False):
            ledger = MessageLedger()
            operator = SamplingOperator(
                graph,
                np.random.default_rng(0),
                ledger,
                SamplerConfig(continued_walks=continued),
            )
            for _ in range(4):
                operator.sample_nodes(uniform_weights(), 20, origin=0)
                if not continued:
                    operator.reset_pool()
            costs[continued] = ledger.walk_steps
        assert costs[True] < costs[False]

    def test_pool_survives_and_prunes_on_churn(self, monkeypatch):
        """Surviving agents resume from their compact rows, in pool order.

        Two pool nodes leave: one from the middle of the id range, and
        the overlay's largest id, whose search row falls past the last
        row. Their agents are dropped; fresh agents from the origin take
        their places at the end of the batch.
        """
        graph, _ = _world(49)
        starts = []

        def kernel(context, start_positions, *args):
            starts.append(np.array(start_positions))
            return batch_walk(context, start_positions, *args)

        monkeypatch.setattr(operator_module, "batch_walk", kernel)
        tracer = SinkTracer(record=True)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), config=SamplerConfig(), tracer=tracer
        )
        operator.sample_nodes(uniform_weights(), 200, origin=0)
        pool = operator.pool_nodes
        largest = max(graph.nodes())
        assert largest in pool
        middle = sorted(set(pool))[len(set(pool)) // 2]
        graph.leave(middle)
        graph.leave(largest)
        survivors = [node for node in pool if node not in (middle, largest)]
        operator.sample_nodes(uniform_weights(), len(pool), origin=0)
        rows = sorted(graph.nodes())
        assert starts[-1].tolist() == (
            [rows.index(node) for node in survivors]
            + [rows.index(0)] * (len(pool) - len(survivors))
        )
        span = tracer.trace().spans_named(SPAN_SAMPLE_ACQUISITION)[-1]
        assert span.attrs["n_continued"] == len(survivors)

    def test_sample_returns_counted(self):
        graph, _ = _world()
        ledger = MessageLedger()
        operator = SamplingOperator(graph, np.random.default_rng(0), ledger)
        operator.sample_nodes(uniform_weights(), 5, origin=0)
        assert ledger.sample_returns > 0

    def test_loss_exposure_counts_messages_sent(self, monkeypatch):
        """Each message risks loss once, lazy steps none.

        Loss draws before the walk cover outbound legs, exposed once per
        proposal: the first covers every agent's budget, each later one the
        retried legs of the agents lost so far, and together they sum to
        the proposals the ledger booked. Draws after the walk cover
        returns: the first only the agents whose outbound leg arrived, once
        per hop home from their end, each later one the lost returns,
        resent over the same hops. The second call mixes continued agents
        (reset length) with fresh ones.
        """
        graph, _ = _world(49)
        ledger = MessageLedger()
        faults = FaultPlan(FaultConfig(message_loss=0.01), rng=4)
        draws: list[tuple[np.ndarray, np.ndarray] | None] = []
        draw = faults.walks_lost

        def recording(batch):
            lost = draw(batch)
            draws.append((np.array(batch), lost.copy()))
            return lost

        def kernel(*args):
            draws.append(None)  # the walk: outbound draws before, returns after
            return batch_walk(*args)

        monkeypatch.setattr(faults, "walks_lost", recording)
        monkeypatch.setattr(operator_module, "batch_walk", kernel)
        tracer = SinkTracer(record=True)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), ledger, faults=faults, tracer=tracer
        )
        hops = graph.hop_counts(0)  # the mesh's node ids are its CSR rows
        lost_legs = resends = 0
        for n in (12, 30):
            draws.clear()
            steps, returns = ledger.walk_steps, ledger.sample_returns
            delivered = operator.sample_nodes(uniform_weights(), n, origin=0)
            walk = draws.index(None)
            outbound, home = draws[:walk], draws[walk + 1 :]
            assert outbound[0][0].size == n
            assert sum(int(e.sum()) for e, _ in outbound) == (
                ledger.walk_steps - steps
            )
            # agents still pending after each outbound draw are its lost ones
            pending = np.arange(n)
            for exposures, lost in outbound:
                assert exposures.size == pending.size
                pending = pending[lost]
            arrived = np.ones(n, dtype=bool)
            arrived[pending] = False
            # the pool holds every agent's end, in agent order
            ends = np.array(operator.pool_nodes)
            assert home[0][0].tolist() == hops[ends[arrived]].tolist()
            for (exposures, lost), (resent, _) in zip(home, home[1:]):
                assert resent.tolist() == exposures[lost].tolist()
            assert sum(int(e.sum()) for e, _ in home) == (
                ledger.sample_returns - returns
            )
            assert len(delivered) == int(arrived.sum()) - int(home[-1][1].sum())
            lost_legs += sum(int(lost.sum()) for _, lost in outbound + home)
            resends += len(home) - 1
        assert lost_legs > 0 and resends > 0
        # the spans count every lost message, none of the survivors
        assert _lost_messages(tracer) == lost_legs

    def test_eigengap_cached_until_drift(self, monkeypatch):
        graph, _ = _world(49)
        plan = _plan(PartitionEpisode(start=0, duration=1))
        operator = SamplingOperator(
            graph, np.random.default_rng(0), partitions=plan
        )
        gaps = _count_eigengaps(monkeypatch)
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        first_gap = operator.last_eigengap
        # tiny change: cache should persist (drift below threshold)
        graph.join(attach_to=[0, 1])
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert operator.last_eigengap == first_gap
        assert len(gaps) == 1
        # a cut opens and heals between two calls: the overlay the walk
        # sees is unchanged, but the plan's epoch moved
        plan.step(0, graph)
        plan.step(1, graph)
        assert not plan.active
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert len(gaps) == 2
        assert operator.last_eigengap is not None

    def test_cut_below_drift_recomputes_walk_length(self, monkeypatch):
        graph, _ = _world(49)
        plan = _plan(PartitionEpisode(start=1, duration=4, fractions=(0.96, 0.04)))
        operator = SamplingOperator(
            graph, np.random.default_rng(0), partitions=plan
        )
        gaps = _count_eigengaps(monkeypatch)
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        plan.step(1, graph)
        scope = plan.reachable(graph, 0)
        drift = operator.config.recompute_drift
        assert len(graph) * (1 - drift) < len(scope) < len(graph)
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert len(gaps) == 2
        # the length was computed over the reachable region
        assert operator.last_eigengap == gaps[-1]
        assert gaps[-1] != gaps[0]

    def test_theorem3_policy_runs(self):
        graph, _ = _world(25)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(length_policy="theorem3", gamma=0.1),
        )
        samples = operator.sample_nodes(uniform_weights(), 5, origin=0)
        assert len(samples) == 5


class TestTupleSampling:
    def test_two_stage_uniform_over_tuples(self):
        """Two-stage sampling makes every tuple ~equally likely."""
        graph, database = _world(25, tuples_low=1, tuples_high=8, seed=2)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(3),
            config=SamplerConfig(gamma=0.02, continued_walks=False),
        )
        samples = operator.sample_tuples(database, 8000, origin=0)
        n = database.n_tuples
        empirical = np.bincount(samples, minlength=n).astype(float)
        empirical /= empirical.sum()
        assert total_variation(empirical, np.full(n, 1.0 / n)) < 0.08

    def test_sample_row_matches_database(self):
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        samples = operator.sample_tuples(database, 10, origin=0)
        assert samples.dtype == np.int64 and samples.shape == (10,)
        values = database.gather(["v"], samples)["v"]
        for tuple_id, value in zip(samples.tolist(), values.tolist()):
            assert database.read(tuple_id) == {"v": value}

    def test_empty_relation_rejected(self):
        graph = OverlayGraph(mesh_topology(9), n_nodes=9)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(SamplingError):
            operator.sample_tuples(database, 1, origin=0)

    def test_empty_nodes_skipped(self):
        """Nodes with no tuples have zero weight and yield no samples."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in range(8):  # only half the nodes hold data
            database.insert(node, {"v": 1.0})
        operator = SamplingOperator(graph, np.random.default_rng(0))
        samples = operator.sample_tuples(database, 50, origin=0)
        assert len(samples) == 50
        assert all(database.locate(t) < 8 for t in samples.tolist())

    def test_vector_local_draw_matches_scalar_draws(self, monkeypatch):
        """One ``integers`` call over the delivered nodes is one draw per node.

        The delivered nodes are scripted: empty, one-tuple and large
        fragments, repeats included. The operator's ids and its generator
        state afterwards equal a ``sample_uniform`` loop over the same
        nodes that skips the empty ones.
        """
        sizes = [0, 1, 3, 0, 2000, 1, 57, 0, 9, 40_000]
        graph = OverlayGraph(mesh_topology(len(sizes)), n_nodes=len(sizes))
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node, size in enumerate(sizes):
            for _ in range(size):
                database.insert(node, {"v": 0.0})
        delivered = [9, 0, 1, 4, 3, 2, 6, 9, 8, 7, 5, 4, 4, 0, 2] * 20
        rng = np.random.default_rng(11)
        operator = SamplingOperator(graph, rng)
        monkeypatch.setattr(
            operator, "sample_nodes", lambda weight, n, origin: delivered
        )
        drawn = operator.sample_tuples(
            database, len(delivered), origin=0, allow_partial=True
        )

        reference = np.random.default_rng(11)
        expected = [
            database.store(node).sample_uniform(reference)
            for node in delivered
            if sizes[node]
        ]
        assert drawn.dtype == np.int64
        assert drawn.tolist() == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_cluster_sample_returns_whole_fragment(self):
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        node, batch = operator.cluster_sample(database, origin=0)
        assert batch.dtype == np.int64
        assert batch.tolist() == database.store(node).tuple_ids()


@pytest.fixture
def context_builds(monkeypatch):
    """Count full-overlay and scoped :class:`WalkContext` builds."""
    builds = {"graph": 0, "subgraph": 0}

    def counting(kind, original):
        def build(cls, *args, **kwargs):
            builds[kind] += 1
            return original(cls, *args, **kwargs)

        return classmethod(build)

    monkeypatch.setattr(
        WalkContext,
        "from_graph",
        counting("graph", WalkContext.from_graph.__func__),
    )
    monkeypatch.setattr(
        WalkContext,
        "from_subgraph",
        counting("subgraph", WalkContext.from_subgraph.__func__),
    )
    return builds


class TestContextReuse:
    def _operator(self, graph, partitions=None):
        return SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=20),
            partitions=partitions,
        )

    def test_unchanged_world_builds_one_context(self, context_builds):
        graph, database = _world()
        operator = self._operator(graph)
        operator.sample_tuples(database, 10, origin=0)
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds["graph"] == 1

    def test_insert_forces_a_rebuild(self, context_builds):
        graph, database = _world()
        operator = self._operator(graph)
        operator.sample_tuples(database, 10, origin=0)
        database.insert(3, {"v": 1.0})
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds["graph"] == 2

    def test_update_keeps_the_context(self, context_builds):
        graph, database = _world()
        operator = self._operator(graph)
        operator.sample_tuples(database, 10, origin=0)
        database.update(0, {"v": 99.0})
        samples = operator.sample_tuples(database, 40, origin=0)
        assert context_builds["graph"] == 1
        # samples are ids; their values are read afterwards, updates included
        values = database.gather(["v"], samples)["v"]
        assert values.tolist() == [database.read(t)["v"] for t in samples.tolist()]

    def test_graph_change_forces_a_rebuild(self, context_builds):
        graph, database = _world()
        operator = self._operator(graph)
        operator.sample_tuples(database, 10, origin=0)
        database.add_node(graph.join(attach_to=[0, 1]))
        operator.sample_tuples(database, 10, origin=0)
        graph.add_edge(0, 35)
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds["graph"] == 3

    def test_other_database_forces_a_rebuild(self, context_builds):
        graph, database = _world(seed=3)
        _, twin = _world(seed=3)
        operator = self._operator(graph)
        operator.sample_tuples(database, 10, origin=0)
        operator.sample_tuples(twin, 10, origin=0)
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds["graph"] == 3

    def test_opaque_weights_are_evaluated_every_call(self, context_builds):
        graph, database = _world()
        operator = self._operator(graph)
        weight = content_size_weights(database)
        operator.sample_nodes(weight, 5, origin=0)
        operator.sample_nodes(weight, 5, origin=0)
        assert context_builds["graph"] == 2

    def test_reuse_draws_identical_samples(self):
        def draws(reuse: bool) -> list[int]:
            graph, database = _world(seed=5)
            operator = self._operator(graph)
            drawn = []
            for _ in range(4):
                if not reuse:
                    operator._tuple_walk = None
                drawn += operator.sample_tuples(database, 12, origin=0).tolist()
            return drawn

        assert draws(True) == draws(False)

    def test_active_partition_never_reuses_the_clean_context(
        self, context_builds
    ):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        graph, database = _world(n=30)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=5, duration=10),)
            ),
            rng=1,
        )
        plan.step(0, graph)
        operator = self._operator(graph, partitions=plan)
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds == {"graph": 1, "subgraph": 0}
        plan.step(5, graph)
        assert plan.active
        scope = set(plan.reachable(graph, 0))
        assert 1 < len(scope) < len(graph)
        for _ in range(2):
            samples = operator.sample_tuples(database, 10, origin=0)
            assert {database.locate(t) for t in samples.tolist()} <= scope
        assert context_builds["graph"] == 1
        assert context_builds["subgraph"] == 1

    def _cut(self, start, duration):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        return PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=start, duration=duration),)
            ),
            rng=1,
        )

    def test_scoped_context_reused_within_one_cut(self, context_builds):
        graph, database = _world(n=30)
        plan = self._cut(start=0, duration=10)
        operator = self._operator(graph, partitions=plan)
        for time in range(4):
            plan.step(time, graph)
            operator.sample_tuples(database, 10, origin=0)
        assert context_builds == {"graph": 0, "subgraph": 1}

    def test_insert_rebuilds_the_scoped_context(self, context_builds):
        graph, database = _world(n=30)
        plan = self._cut(start=0, duration=10)
        plan.step(0, graph)
        operator = self._operator(graph, partitions=plan)
        operator.sample_tuples(database, 10, origin=0)
        database.insert(0, {"v": 1.0})
        operator.sample_tuples(database, 10, origin=0)
        operator.sample_tuples(database, 10, origin=0)
        assert context_builds == {"graph": 0, "subgraph": 2}

    def test_heal_rebuilds_the_full_context(self, context_builds):
        graph, database = _world(n=30)
        plan = self._cut(start=0, duration=3)
        operator = self._operator(graph, partitions=plan)
        for time in range(6):
            plan.step(time, graph)
            samples = operator.sample_tuples(database, 10, origin=0)
        assert not plan.active
        assert context_builds == {"graph": 1, "subgraph": 1}
        assert len({database.locate(t) for t in samples.tolist()}) > 1

    def test_scoped_reuse_draws_identical_samples(self):
        def draws(reuse: bool) -> list[int]:
            graph, database = _world(n=30, seed=5)
            plan = self._cut(start=1, duration=4)
            operator = self._operator(graph, partitions=plan)
            drawn = []
            for time in range(7):
                plan.step(time, graph)
                if not reuse:
                    operator._tuple_walk = None
                drawn += operator.sample_tuples(database, 12, origin=0).tolist()
            return drawn

        assert draws(True) == draws(False)


class TestPartitionScoping:
    def _partitioned_world(self, n=30, seed=0, fractions=(0.5, 0.5)):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        graph, database = _world(n=n, seed=seed)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(
                    PartitionEpisode(
                        start=0, duration=10, fractions=fractions
                    ),
                )
            ),
            rng=seed + 3,
        )
        plan.step(0, graph)
        return graph, database, plan

    def test_samples_confined_to_origin_region(self):
        graph, database, plan = self._partitioned_world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=30, continued_walks=False),
            partitions=plan,
        )
        origin = 0
        scope = set(plan.reachable(graph, origin))
        assert len(scope) < len(graph)
        sampled = operator.sample_nodes(uniform_weights(), 40, origin)
        assert set(sampled) <= scope

    def test_return_hops_follow_the_scope_bfs(self):
        """Each agent under a cut books its hop count in the origin's scope."""
        graph, database, plan = self._partitioned_world(fractions=(0.7, 0.3))
        ledger = MessageLedger()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            ledger,
            config=SamplerConfig(walk_length=30, continued_walks=False),
            partitions=plan,
        )
        scope = plan.reachable(graph, 0)
        assert 1 < len(scope) < len(graph)
        assert list(scope) != sorted(scope)  # BFS order, not row order
        for _ in range(2):
            booked = ledger.sample_returns
            sampled = operator.sample_nodes(uniform_weights(), 40, 0)
            assert ledger.sample_returns - booked == sum(
                scope[node] for node in sampled
            )

    def test_singleton_scope_degenerates_to_origin(self):
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        # two nodes, one edge: a 50/50 cut always isolates the origin
        graph = OverlayGraph([(0, 1)], n_nodes=2)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=0, duration=5),)
            ),
            rng=0,
        )
        plan.step(0, graph)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=5, continued_walks=False),
            partitions=plan,
        )
        assert operator.sample_nodes(uniform_weights(), 4, 0) == [0, 0, 0, 0]

    def test_lone_origin_sends_no_messages(self):
        """A partition scope of one node serves the origin, silently.

        The origin has zero weight here: the lone-origin branch is taken
        before any walk context (which would reject all-zero weights) is
        built.
        """
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        graph = OverlayGraph([(0, 1)], n_nodes=2)
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=0, duration=5),)
            ),
            rng=0,
        )
        plan.step(0, graph)
        ledger = MessageLedger()
        operator = SamplingOperator(
            graph, np.random.default_rng(1), ledger, partitions=plan
        )
        weight = table_weights({0: 0.0, 1: 1.0})
        assert operator.sample_nodes(weight, 2, 0) == [0, 0]
        assert ledger.total == 0

    def test_inactive_plan_is_rng_transparent(self):
        """An idle partition plan must not perturb the walk draws."""
        from repro.network.partitions import (
            PartitionEpisode,
            PartitionPlan,
            PartitionSchedule,
        )

        def draws(with_plan: bool) -> list[int]:
            graph, database = _world(seed=4)
            plan = None
            if with_plan:
                plan = PartitionPlan(
                    PartitionSchedule(
                        episodes=(PartitionEpisode(start=50, duration=5),)
                    ),
                    rng=9,
                )
                plan.step(0, graph)
            operator = SamplingOperator(
                graph,
                np.random.default_rng(7),
                config=SamplerConfig(walk_length=20, continued_walks=False),
                partitions=plan,
            )
            return operator.sample_nodes(uniform_weights(), 15, 0)

        assert draws(False) == draws(True)

    def test_full_sampling_resumes_after_heal(self):
        graph, database, plan = self._partitioned_world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(1),
            config=SamplerConfig(walk_length=30, continued_walks=False),
            partitions=plan,
        )
        plan.step(10, graph)  # heal
        assert not plan.active
        sampled = operator.sample_nodes(uniform_weights(), 60, 0)
        # walks roam the whole overlay again
        assert len(set(sampled)) > len(graph) // 2


class TestLossRetry:
    """Lost messages are retried inside the one kernel call: outbound legs
    before the walk, returns resent from the walk's end after it."""

    @pytest.mark.parametrize("loss", [0.0, 0.02])
    def test_retried_walks_keep_the_law(self, loss):
        """Under loss the samples stay as close to pi as without it.

        One tuple per node makes the tuple law the node law, uniform over
        the 64 nodes. Each round seeds the pool with 60 agents, then draws
        120, so every request mixes continued and fresh agents, and at
        this loss most first legs of both kinds are lost and retried.
        """
        graph = OverlayGraph(mesh_topology(64), n_nodes=64)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in graph.nodes():
            database.insert(node, {"v": 0.0})
        faults = (
            FaultPlan(FaultConfig(message_loss=loss), rng=1) if loss else None
        )
        tracer = SinkTracer(record=True)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), faults=faults, tracer=tracer
        )
        counts = np.zeros(64)
        for _ in range(200):
            operator.reset_pool()
            for n in (60, 120):
                drawn = operator.sample_tuples(database, n, 0, allow_partial=True)
                np.add.at(counts, [database.locate(t) for t in drawn.tolist()], 1)
        if loss:
            assert _lost_messages(tracer) > counts.sum() / 2
        assert total_variation(counts / counts.sum(), np.full(64, 1 / 64)) < 0.05

    @staticmethod
    def _traced_operator(monkeypatch, loss, ledger):
        """An operator whose kernel calls and loss draws land in one log."""
        graph, database = _world(49)
        faults = FaultPlan(FaultConfig(message_loss=loss), rng=2)
        log: list[tuple[str, np.ndarray, np.ndarray]] = []
        draw = faults.walks_lost

        def losses(exposures):
            lost = draw(exposures)
            log.append(("loss", np.array(exposures), lost.copy()))
            return lost

        def kernel(context, starts, lengths, rng, ledger, laziness):
            ends, budgets = batch_walk(context, starts, lengths, rng, ledger, laziness)
            log.append(("walk", budgets, context.node_ids[ends]))
            return ends, budgets

        monkeypatch.setattr(faults, "walks_lost", losses)
        monkeypatch.setattr(operator_module, "batch_walk", kernel)
        tracer = SinkTracer(record=True)
        operator = SamplingOperator(
            graph, np.random.default_rng(3), ledger, faults=faults, tracer=tracer
        )
        return operator, database, tracer, log

    @staticmethod
    def _split(log):
        """Split one request's log into (outbound draws, walk, return draws)."""
        kinds = [kind for kind, _, _ in log]
        assert kinds.count("walk") == 1  # one kernel call per request
        walk = kinds.index("walk")
        draws = [(first, second) for _, first, second in log]
        return draws[:walk], draws[walk], draws[walk + 1 :]

    @staticmethod
    def _messages(n, outbound, home):
        """Each agent's messages (legs plus resends), checked draw by draw.

        An outbound draw after the first covers exactly the agents whose
        legs were all lost. The first return draw covers the agents whose
        outbound leg arrived, and each later one exactly the agents whose
        return was just lost and who have sent fewer than ``MAX_ATTEMPTS``
        messages. Returns the messages per agent and the mask of agents
        whose outbound leg arrived.
        """
        sent = np.zeros(n, dtype=np.int64)
        pending = np.arange(n)
        for exposures, lost in outbound:
            assert exposures.size == pending.size
            sent[pending] += 1
            pending = pending[lost]
        arrived = np.ones(n, dtype=bool)
        arrived[pending] = False
        pending = np.flatnonzero(arrived)
        for exposures, lost in home:
            assert exposures.size == pending.size
            pending = pending[lost]
            pending = pending[sent[pending] < operator_module.MAX_ATTEMPTS]
            sent[pending] += 1
        assert pending.size == 0
        return sent, arrived

    def test_one_kernel_call_per_request(self, monkeypatch):
        ledger = MessageLedger()
        operator, database, tracer, log = self._traced_operator(
            monkeypatch, 0.01, ledger
        )
        retried = resent = 0
        for n in (20, 35, 50, 35, 20, 50, 10, 40):
            log.clear()
            steps, returns = ledger.walk_steps, ledger.sample_returns
            lost_before = _lost_messages(tracer)
            operator.sample_tuples(database, n, 0, allow_partial=True)
            outbound, (_, ends), home = self._split(log)
            # the pool keeps every end of the request
            assert operator.pool_nodes == ends.tolist()
            assert len(ends) == n
            retried += len(outbound) > 1
            resent += len(home) > 1
            # every leg's proposals are booked, walked or restarted, and
            # every send of a sample home, resends included
            assert ledger.walk_steps - steps == sum(
                int(exposures.sum()) for exposures, _ in outbound
            )
            assert ledger.sample_returns - returns == sum(
                int(hops.sum()) for hops, _ in home
            )
            lost_messages = sum(int(lost.sum()) for _, lost in outbound + home)
            assert _lost_messages(tracer) - lost_before == lost_messages
        assert retried >= 3 and resent >= 3

    def test_attempts_bound_the_legs(self, monkeypatch):
        """No agent sends more than MAX_ATTEMPTS legs plus resends."""
        operator, database, _, log = self._traced_operator(
            monkeypatch, 0.5, MessageLedger()
        )
        most = []
        for n in (10, 30, 30):
            log.clear()
            operator.sample_tuples(database, n, 0, allow_partial=True)
            outbound, _, home = self._split(log)
            sent, _ = self._messages(n, outbound, home)
            assert len(outbound) <= operator_module.MAX_ATTEMPTS
            most.append(int(sent.max()))
        assert max(most) == operator_module.MAX_ATTEMPTS

    def test_returns_booked_only_for_arrived_agents(self, monkeypatch):
        """At heavy loss most agents never reach an end and send nothing home.

        The ledger books the return hops of every agent whose outbound leg
        arrived, plus the hops of every resend, and nothing for the agents
        whose legs were all lost.
        """
        ledger = MessageLedger()
        operator, _, _, log = self._traced_operator(monkeypatch, 0.2, ledger)
        graph = OverlayGraph(mesh_topology(49), n_nodes=49)
        hops = graph.hop_counts(0)  # the mesh's node ids are its CSR rows
        for n in (40, 40):
            log.clear()
            returns = ledger.sample_returns
            operator.sample_nodes(uniform_weights(), n, 0)
            outbound, (_, ends), home = self._split(log)
            _, arrived = self._messages(n, outbound, home)
            assert 0 < arrived.sum() < n / 2
            resends = sum(int(h.sum()) for h, _ in home[1:])
            assert resends > 0
            assert ledger.sample_returns - returns == (
                int(hops[ends[arrived]].sum()) + resends
            )

    def test_resent_returns_keep_the_law(self):
        """Under loss the delivered law stays pi, as without loss.

        An 8x8 mesh with a corner origin and one tuple per node, so the
        tuple law is uniform over the 64 nodes; 200 requests of 120 tuples
        at q = 0.05 on each of five seeds. A lost return is resent from the
        walk's end, so far ends, which lose more returns, are delivered as
        often as near ones. Mean TV from pi: 0.021 without loss, 0.022 with
        resends, 0.071 when a lost return drops its sample.
        """
        uniform = np.full(64, 1 / 64)
        distances = []
        for seed in range(5):
            graph = OverlayGraph(mesh_topology(64), n_nodes=64)
            database = P2PDatabase(Schema(("v",)), graph.nodes())
            for node in graph.nodes():
                database.insert(node, {"v": 0.0})
            faults = FaultPlan(FaultConfig(message_loss=0.05), rng=seed)
            tracer = SinkTracer(record=True)
            operator = SamplingOperator(
                graph, np.random.default_rng(seed), faults=faults, tracer=tracer
            )
            counts = np.zeros(64)
            for _ in range(200):
                drawn = operator.sample_tuples(database, 120, 0, allow_partial=True)
                np.add.at(counts, [database.locate(t) for t in drawn.tolist()], 1)
            assert _lost_messages(tracer) > counts.sum() / 4
            distances.append(total_variation(counts / counts.sum(), uniform))
        assert np.mean(distances) < 0.035

    def test_loss_free_stream_is_the_lazy_kernel(self):
        """Without faults a request draws exactly what one lazy kernel call draws."""
        graph, _ = _world(49)
        rng = np.random.default_rng(5)
        operator = SamplingOperator(
            graph, rng, config=SamplerConfig(walk_length=40, reset_length=10)
        )
        operator.sample_nodes(uniform_weights(), 10, 0)
        pool = operator.pool_nodes
        twin = np.random.default_rng(0)
        twin.bit_generator.state = rng.bit_generator.state
        ends = operator.sample_nodes(uniform_weights(), 25, 0)

        context = WalkContext.from_graph(graph, uniform_weights())
        starts = [context.compact_index(node) for node in pool] + [
            context.compact_index(0)
        ] * 15
        expected, _ = batch_walk(
            context, np.array(starts), np.repeat((10, 40), (10, 15)), twin
        )
        assert ends == context.node_ids[expected].tolist()
        assert rng.random() == twin.random()
