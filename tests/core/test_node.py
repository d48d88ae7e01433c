"""Tests for one peer's Digest instance: several queries on one session.

Section III gives every node one Digest instance answering "the continuous
queries received from the local user"; :class:`DigestSession` is that
instance. These tests drive it the way a node does — register, step,
share samples, attach to a simulation — alongside ``test_session.py``.
"""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig
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


_ALL_INDEP = EngineConfig(scheduler="all", evaluator="independent")


def _session(seed_world=0, seed_rng=1):
    graph, database = _world(seed_world)
    session = DigestSession(graph, database, 0, np.random.default_rng(seed_rng))
    return session, database


class TestRegistration:
    def test_register_and_step(self):
        session, database = _session()
        qid_avg = session.add_query(_query(), _ALL_INDEP)
        qid_sum = session.add_query(
            _query("SELECT SUM(mem) FROM R", epsilon=400.0), _ALL_INDEP
        )
        assert session.query_ids() == [qid_avg, qid_sum]
        executed = session.step(0)
        assert set(executed) == {qid_avg, qid_sum}
        truth = float(database.exact_values(Expression("mem")).mean())
        assert abs(executed[qid_avg].aggregate - truth) < 5.0
        assert abs(executed[qid_sum].aggregate - truth * database.n_tuples) < 2000

    def test_unknown_origin_rejected(self):
        graph, database = _world()
        with pytest.raises(QueryError):
            DigestSession(graph, database, 10**6, np.random.default_rng(0))

    def test_results_accessible(self):
        session, _ = _session()
        qid = session.add_query(_query(), _ALL_INDEP)
        session.step(0)
        assert len(session.runtime(qid).result) == 1


class TestSampleSharing:
    def test_shared_cache_reduces_fresh_samples(self):
        """Three identical co-scheduled queries: sharing cuts the walks."""
        session, _ = _session(seed_world=2, seed_rng=3)
        for _ in range(3):
            session.add_query(_query(duration=5), _ALL_INDEP)
        for t in range(5):
            session.step(t)

        solo_walk_steps = 0
        for i in range(3):
            solo, _ = _session(seed_world=2, seed_rng=3 + i)
            solo.add_query(_query(duration=5), _ALL_INDEP)
            for t in range(5):
                solo.step(t)
            solo_walk_steps += solo.ledger.walk_steps
        assert session.ledger.walk_steps < 0.6 * solo_walk_steps

    def test_cache_counts_reuse(self):
        session, _ = _session(seed_world=2, seed_rng=3)
        for _ in range(2):
            session.add_query(_query(duration=2), _ALL_INDEP)
        session.step(0)
        assert session.pool.pool_hits > 0

    def test_estimates_remain_accurate_with_sharing(self):
        session, database = _session(seed_world=5, seed_rng=6)
        for _ in range(3):
            session.add_query(_query(duration=6, epsilon=1.5), _ALL_INDEP)
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(6):
            executed = session.step(t)
            for estimate in executed.values():
                assert abs(estimate.aggregate - truth) < 4.0


class TestSimulationAttachment:
    def test_attach(self):
        session, _ = _session()
        qid = session.add_query(_query(duration=5), _ALL_INDEP)
        simulation = SimulationEngine()
        session.attach(simulation)
        simulation.run_until(10)
        assert session.runtime(qid).metrics.snapshot_queries == 5

    def test_mixed_schedulers(self):
        """PRED and ALL queries coexist; each keeps its own cadence."""
        session, _ = _session()
        qid_all = session.add_query(_query(duration=20), _ALL_INDEP)
        qid_pred = session.add_query(
            _query(duration=20, delta=8.0),
            EngineConfig(scheduler="pred", evaluator="independent"),
        )
        for t in range(20):
            session.step(t)
        assert session.runtime(qid_all).metrics.snapshot_queries == 20
        assert session.runtime(qid_pred).metrics.snapshot_queries < 20
