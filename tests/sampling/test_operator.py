"""Tests for the sampling operator S."""

import numpy as np
import pytest

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology
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

    def test_pool_survives_and_prunes_on_churn(self):
        graph, database = _world(49)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), config=SamplerConfig()
        )
        operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert operator.pool_nodes  # continued pool populated
        # remove a sampled node; the pool entry must not be reused
        victim = operator.pool_nodes[0]
        graph.leave(victim)
        samples = operator.sample_nodes(uniform_weights(), 10, origin=0)
        assert victim not in samples

    def test_sample_returns_counted(self):
        graph, _ = _world()
        ledger = MessageLedger()
        operator = SamplingOperator(graph, np.random.default_rng(0), ledger)
        operator.sample_nodes(uniform_weights(), 5, origin=0)
        assert ledger.sample_returns > 0

    def test_loss_exposure_counts_messages_sent(self, monkeypatch):
        """Each leg risks loss once per message it sent, lazy steps none.

        A direct call makes two loss draws. The outbound draw, before the
        walk, is exposed once per proposal: its exposures are the agents'
        budgets, which sum to the proposals the ledger booked. The return
        draw, after the walk, covers only the agents whose outbound leg
        arrived, once per hop home from their end. The second call mixes
        continued agents (reset length) with fresh ones.
        """
        graph, _ = _world(49)
        ledger = MessageLedger()
        faults = FaultPlan(FaultConfig(message_loss=0.01), rng=4)
        draws: list[tuple[np.ndarray, np.ndarray]] = []
        draw = faults.walks_lost

        def recording(batch):
            lost = draw(batch)
            draws.append((np.array(batch), lost.copy()))
            return lost

        monkeypatch.setattr(faults, "walks_lost", recording)
        operator = SamplingOperator(
            graph, np.random.default_rng(0), ledger, faults=faults
        )
        hops = graph.hop_counts(0)  # the mesh's node ids are its CSR rows
        lost_legs = 0
        for n in (12, 30):
            draws.clear()
            steps = ledger.walk_steps
            operator.sample_nodes(uniform_weights(), n, origin=0)
            (outbound, outbound_lost), (home, home_lost) = draws
            assert outbound.size == n
            assert int(outbound.sum()) == ledger.walk_steps - steps
            # the pool holds every agent's end, in agent order
            ends = np.array(operator.pool_nodes)
            assert home.tolist() == hops[ends[~outbound_lost]].tolist()
            lost_legs += int(outbound_lost.sum() + home_lost.sum())
        assert 0 < operator.samples_drawn < 42
        assert lost_legs == 42 - operator.samples_drawn
        # one walk_lost event per lost leg, none for the survivors
        assert faults.log.count("walk_lost") == lost_legs

    def test_eigengap_cached_until_drift(self):
        graph, _ = _world(49)
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        first_gap = operator.last_eigengap
        # tiny change: cache should persist (drift below threshold)
        graph.join(attach_to=[0, 1])
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert operator.last_eigengap == first_gap
        operator.invalidate_walk_length_cache()
        operator.sample_nodes(uniform_weights(), 1, origin=0)
        assert operator.last_eigengap is not None

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
    """Lost outbound legs are retried inside the one kernel call."""

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
        operator = SamplingOperator(
            graph, np.random.default_rng(0), faults=faults
        )
        counts = np.zeros(64)
        for _ in range(200):
            operator.reset_pool()
            for n in (60, 120):
                drawn = operator.sample_tuples(database, n, 0, allow_partial=True)
                np.add.at(counts, [database.locate(t) for t in drawn.tolist()], 1)
        if loss:
            assert faults.log.count("walk_lost") > counts.sum() / 2
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
        operator = SamplingOperator(
            graph, np.random.default_rng(3), ledger, faults=faults
        )
        return operator, database, faults, log

    @staticmethod
    def _calls(log):
        """Split a request's log into (outbound draws, walk, return draw)."""
        calls = []
        outbound: list[tuple[np.ndarray, np.ndarray]] = []
        entries = iter(log)
        for kind, first, second in entries:
            if kind == "loss":
                outbound.append((first, second))
                continue
            _, hops, home_lost = next(entries)
            calls.append((outbound, (first, second), (hops, home_lost)))
            outbound = []
        assert not outbound
        return calls

    def test_one_kernel_call_per_request(self, monkeypatch):
        ledger = MessageLedger()
        operator, database, faults, log = self._traced_operator(
            monkeypatch, 0.003, ledger
        )
        single = retried = 0
        for n in (20, 35, 50, 35, 20, 50, 10, 40):
            log.clear()
            steps = ledger.walk_steps
            events = faults.log.count("walk_lost")
            operator.sample_tuples(database, n, 0, allow_partial=True)
            calls = self._calls(log)
            outbound, (budgets, ends), (_, home_lost) = calls[0]
            if not home_lost.any():
                assert len(calls) == 1
                # the pool keeps every end of the request
                assert operator.pool_nodes == ends.tolist()
                assert len(ends) == n
                single += 1
            retried += len(outbound) > 1
            legs = [leg for call in calls for leg in call[0]]
            # every leg's proposals are booked, walked or restarted
            assert ledger.walk_steps - steps == sum(
                int(exposures.sum()) for exposures, _ in legs
            )
            lost_legs = sum(int(lost.sum()) for _, lost in legs) + sum(
                int(call[2][1].sum()) for call in calls
            )
            assert faults.log.count("walk_lost") - events == lost_legs
        assert single >= 3 and retried >= 3

    def test_attempts_bound_the_legs(self, monkeypatch):
        operator, database, _, log = self._traced_operator(
            monkeypatch, 0.5, MessageLedger()
        )
        used = []
        for n in (10, 30, 30):
            log.clear()
            operator.sample_tuples(database, n, 0, max_retries=3, allow_partial=True)
            used.append(sum(len(outbound) for outbound, _, _ in self._calls(log)))
        assert max(used) == 3

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
