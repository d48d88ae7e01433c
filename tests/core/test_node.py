"""Tests for the multi-query Digest node."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.node import DigestNode
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.sim.engine import SimulationEngine


def _world(seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(36), n_nodes=36)
    database = P2PDatabase(Schema(("mem", "cpu")), graph.nodes())
    for node in graph.nodes():
        for _ in range(5):
            database.insert(
                node,
                {"mem": float(rng.normal(50, 8)), "cpu": float(rng.uniform(0, 4))},
            )
    return graph, database


def _query(text="SELECT AVG(mem) FROM R", delta=4.0, epsilon=2.0, duration=10):
    return ContinuousQuery(
        parse_query(text), Precision(delta, epsilon, 0.95), duration=duration
    )


class TestRegistration:
    def test_register_and_step(self):
        graph, database = _world()
        node = DigestNode(graph, database, 0, np.random.default_rng(1))
        qid_avg = node.register(
            _query(), EngineConfig(scheduler="all", evaluator="independent")
        )
        qid_sum = node.register(
            _query("SELECT SUM(mem) FROM R", epsilon=400.0),
            EngineConfig(scheduler="all", evaluator="independent"),
        )
        assert node.query_ids() == [qid_avg, qid_sum]
        executed = node.step(0)
        assert set(executed) == {qid_avg, qid_sum}
        truth = float(database.exact_values(Expression("mem")).mean())
        assert abs(executed[qid_avg].aggregate - truth) < 5.0
        assert abs(executed[qid_sum].aggregate - truth * database.n_tuples) < 2000

    def test_deregister(self):
        graph, database = _world()
        node = DigestNode(graph, database, 0, np.random.default_rng(1))
        qid = node.register(_query())
        node.deregister(qid)
        assert node.query_ids() == []
        with pytest.raises(QueryError):
            node.engine(qid)
        with pytest.raises(QueryError):
            node.deregister(qid)

    def test_unknown_origin_rejected(self):
        graph, database = _world()
        with pytest.raises(QueryError):
            DigestNode(graph, database, 10**6, np.random.default_rng(0))

    def test_results_accessible(self):
        graph, database = _world()
        node = DigestNode(graph, database, 0, np.random.default_rng(1))
        qid = node.register(
            _query(), EngineConfig(scheduler="all", evaluator="independent")
        )
        node.step(0)
        assert len(node.result(qid)) == 1


class TestSampleSharing:
    def test_shared_cache_reduces_fresh_samples(self):
        """Two identical queries co-scheduled: sharing halves the draws."""
        totals = {}
        for share in (True, False):
            graph, database = _world(seed=2)
            node = DigestNode(
                graph,
                database,
                0,
                np.random.default_rng(3),
                share_samples=share,
            )
            for _ in range(3):
                node.register(
                    _query(duration=5),
                    EngineConfig(scheduler="all", evaluator="independent"),
                )
            for t in range(5):
                node.step(t)
            totals[share] = node.ledger.walk_steps
        assert totals[True] < 0.6 * totals[False]

    def test_cache_counts_reuse(self):
        graph, database = _world(seed=2)
        node = DigestNode(graph, database, 0, np.random.default_rng(3))
        for _ in range(2):
            node.register(
                _query(duration=2),
                EngineConfig(scheduler="all", evaluator="independent"),
            )
        node.step(0)
        assert node.samples_saved_by_sharing() > 0

    def test_estimates_remain_accurate_with_sharing(self):
        graph, database = _world(seed=5)
        node = DigestNode(graph, database, 0, np.random.default_rng(6))
        qids = [
            node.register(
                _query(duration=6, epsilon=1.5),
                EngineConfig(scheduler="all", evaluator="independent"),
            )
            for _ in range(3)
        ]
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(6):
            executed = node.step(t)
            for estimate in executed.values():
                assert abs(estimate.aggregate - truth) < 4.0


class TestSimulationAttachment:
    def test_attach(self):
        graph, database = _world()
        node = DigestNode(graph, database, 0, np.random.default_rng(1))
        qid = node.register(
            _query(duration=5),
            EngineConfig(scheduler="all", evaluator="independent"),
        )
        simulation = SimulationEngine()
        node.attach(simulation, until=10)
        simulation.run_until(10)
        assert node.engine(qid).metrics.snapshot_queries == 5

    def test_mixed_schedulers(self):
        """PRED and ALL queries coexist; each keeps its own cadence."""
        graph, database = _world()
        node = DigestNode(graph, database, 0, np.random.default_rng(1))
        qid_all = node.register(
            _query(duration=20),
            EngineConfig(scheduler="all", evaluator="independent"),
        )
        qid_pred = node.register(
            _query(duration=20, delta=8.0),
            EngineConfig(scheduler="pred", evaluator="independent"),
        )
        for t in range(20):
            node.step(t)
        assert node.engine(qid_all).metrics.snapshot_queries == 20
        assert node.engine(qid_pred).metrics.snapshot_queries < 20
