"""Integration tests for a one-query Digest session (both tiers composed)."""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.sim.engine import PRIORITY_UPDATES, SimulationEngine


def _world(seed=0, n_nodes=36, per_node=5):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    tids = []
    for node in graph.nodes():
        for _ in range(per_node):
            tids.append(database.insert(node, {"v": float(rng.normal(50, 8))}))
    return graph, database, tids


def _continuous_query(delta=4.0, epsilon=2.0, duration=30):
    return ContinuousQuery(
        parse_query("SELECT AVG(v) FROM R"),
        Precision(delta=delta, epsilon=epsilon, confidence=0.95),
        duration=duration,
    )


def _session(graph, database, continuous, seed, config=None, origin=0):
    """A session at ``origin`` running ``continuous``, and its runtime."""
    session = DigestSession(
        graph, database, origin, np.random.default_rng(seed)
    )
    query_id = session.add_query(continuous, config=config)
    return session, session.runtime(query_id)


class TestConfigValidation:
    def test_rejects_unknown_scheduler(self):
        with pytest.raises(QueryError):
            EngineConfig(scheduler="sometimes")

    def test_rejects_unknown_evaluator(self):
        with pytest.raises(QueryError):
            EngineConfig(evaluator="psychic")

    def test_rejects_unknown_origin(self):
        graph, database, _ = _world()
        with pytest.raises(QueryError):
            _session(graph, database, _continuous_query(), 0, origin=10**6)

    def test_rejects_bad_expression(self):
        graph, database, _ = _world()
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(nope) FROM R"), Precision(1.0, 1.0)
        )
        with pytest.raises(Exception):
            _session(graph, database, continuous, 0)


class TestStepping:
    def test_all_scheduler_queries_every_step(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=10),
            1,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        for t in range(10):
            assert runtime.query_id in session.step(t)
        assert session.metrics.snapshot_queries == 10

    def test_inactive_outside_duration(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=3),
            1,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        for t in range(6):
            session.step(t)
        assert session.metrics.snapshot_queries == 3

    def test_pred_scheduler_skips(self):
        graph, database, tids = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(delta=6.0, duration=30),
            1,
            config=EngineConfig(scheduler="pred", evaluator="independent"),
        )
        rng = np.random.default_rng(2)
        for t in range(30):
            for tid in tids:  # slow drift
                database.update(tid, {"v": database.read(tid)["v"] + 0.05})
            session.step(t)
        assert session.metrics.snapshot_queries < 30

    def test_step_before_due_is_noop(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=10),
            1,
            config=EngineConfig(scheduler="pred", evaluator="independent",
                                pred_points=2),
        )
        session.step(0)
        due = runtime.next_due
        if due > 1:
            assert session.step(due - 1) == {}  # not due yet

    def test_running_result_tracks_truth(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(epsilon=1.5, duration=5),
            3,
            config=EngineConfig(scheduler="all", evaluator="repeated"),
        )
        for t in range(5):
            session.step(t)
        truth = float(database.exact_values(Expression("v")).mean())
        assert abs(runtime.result.value_at(4) - truth) < 3.0

    def test_metrics_accumulate(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=4),
            1,
            config=EngineConfig(scheduler="all", evaluator="repeated"),
        )
        for t in range(4):
            session.step(t)
        metrics = runtime.metrics
        assert metrics.samples_total == metrics.samples_fresh + metrics.samples_retained
        assert len(runtime.history) == 4
        assert session.ledger.total > 0


class TestSimulationAttachment:
    def test_attach_runs_like_manual_loop(self):
        graph, database, _ = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=8),
            5,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        simulation = SimulationEngine()
        session.attach(simulation)
        simulation.run_until(20)
        assert session.metrics.snapshot_queries == 8

    def test_attach_respects_update_priority(self):
        """Engine queries run after same-step data updates."""
        graph, database, tids = _world()
        session, runtime = _session(
            graph,
            database,
            _continuous_query(duration=3, epsilon=0.5),
            5,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        simulation = SimulationEngine()
        seen = []

        def bump(time):
            for tid in tids:
                database.update(tid, {"v": 100.0 + time})
            seen.append(time)

        simulation.schedule_every(1, bump, PRIORITY_UPDATES, until=2)
        session.attach(simulation)
        simulation.run_until(5)
        # each snapshot saw the post-update world: estimates near 100+t
        for record, time in zip(runtime.result.updates, seen):
            assert abs(record.estimate - (100.0 + time)) < 1.0
