"""Failure-injection tests: the system must fail loudly, never silently.

A sampling system that degrades quietly produces *biased answers*; every
scenario here checks that a broken precondition surfaces as a typed
error with an actionable message instead.
"""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig
from repro.db.relation import P2PDatabase, Schema
from repro.errors import (
    QueryError,
    SamplingError,
    TopologyError,
)
from repro.network.graph import OverlayGraph
from repro.network.topology import line_topology, mesh_topology
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.weights import uniform_weights


def _world(n=16, per_node=3, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(per_node):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


class TestSamplerFailures:
    def test_disconnected_overlay_detected(self):
        """Isolated nodes would silently bias the sample — must raise."""
        graph = OverlayGraph([(0, 1)], n_nodes=3)  # node 2 isolated
        operator = SamplingOperator(graph, np.random.default_rng(0))
        with pytest.raises(TopologyError, match="isolated"):
            operator.sample_nodes(uniform_weights(), 1, origin=0)

    def test_origin_departed_mid_query(self):
        """The querying node leaving is unrecoverable for its own query."""
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_tuples(database, 5, origin=0)
        graph.leave(0)
        database.remove_node(0)
        with pytest.raises(SamplingError, match="origin"):
            operator.sample_tuples(database, 5, origin=0)

    def test_relation_emptied_mid_query(self):
        graph, database = _world()
        operator = SamplingOperator(graph, np.random.default_rng(0))
        operator.sample_tuples(database, 5, origin=0)
        for tuple_id, _, _ in list(database.iter_tuples()):
            database.delete(tuple_id)
        with pytest.raises(SamplingError, match="empty relation"):
            operator.sample_tuples(database, 5, origin=0)

    def test_walk_length_budget_exceeded(self):
        """A near-disconnected overlay needing absurd walks must refuse."""
        graph = OverlayGraph(line_topology(200), n_nodes=200)
        operator = SamplingOperator(
            graph,
            np.random.default_rng(0),
            config=SamplerConfig(
                gamma=0.001, max_walk_length=50, length_policy="theorem3"
            ),
        )
        with pytest.raises(SamplingError, match="exceeds"):
            operator.sample_nodes(uniform_weights(), 1, origin=0)


class TestEngineFailures:
    def test_infeasible_precision_surfaces(self):
        """Absurd precision demands raise rather than loop forever."""
        graph, database = _world()
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(v) FROM R"),
            Precision(delta=1.0, epsilon=1e-9, confidence=0.999),
            duration=1,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(0))
        session.add_query(
            continuous,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        with pytest.raises(QueryError, match="infeasible|exceeds"):
            session.step(0)

    def test_engine_with_departed_origin_raises_on_step(self):
        graph, database = _world()
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(v) FROM R"),
            Precision(delta=1.0, epsilon=1.0, confidence=0.9),
            duration=10,
        )
        session = DigestSession(graph, database, 5, np.random.default_rng(0))
        session.add_query(
            continuous,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        session.step(0)
        graph.leave(5)
        database.remove_node(5)
        with pytest.raises(SamplingError):
            session.step(1)

    def test_avg_over_emptied_relation(self):
        from repro.baselines.push_all import PushAllBaseline

        graph, database = _world()
        baseline = PushAllBaseline(
            graph, database, parse_query("SELECT AVG(v) FROM R"), origin=0
        )
        baseline.step(0)
        for tuple_id, _, _ in list(database.iter_tuples()):
            database.delete(tuple_id)
        with pytest.raises(QueryError, match="empty"):
            baseline.step(1)


class TestNumericalEdgeCases:
    def test_constant_population_zero_variance(self):
        """sigma = 0: the pilot suffices and the estimate is exact."""
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        for node in graph.nodes():
            database.insert(node, {"v": 7.0})
        from repro.core.independent import PILOT_SIZE, IndependentEvaluator

        evaluator = IndependentEvaluator(
            database,
            SamplingOperator(graph, np.random.default_rng(0)),
            0,
            parse_query("SELECT AVG(v) FROM R"),
        )
        estimate = evaluator.evaluate(0, epsilon=0.1, confidence=0.99)
        assert estimate.mean == pytest.approx(7.0)
        assert estimate.n_total == PILOT_SIZE

    def test_single_tuple_relation(self):
        graph = OverlayGraph(mesh_topology(4), n_nodes=4)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        database.insert(0, {"v": 3.0})
        operator = SamplingOperator(graph, np.random.default_rng(0))
        samples = operator.sample_tuples(database, 10, origin=0)
        assert database.gather(["v"], samples)["v"].tolist() == [3.0] * 10

    def test_repeated_evaluator_survives_total_turnover(self):
        """Every retained tuple deleted between occasions: full refresh."""
        from repro.core.repeated import RepeatedEvaluator

        graph, database = _world(per_node=4)
        evaluator = RepeatedEvaluator(
            database,
            SamplingOperator(graph, np.random.default_rng(1)),
            0,
            parse_query("SELECT AVG(v) FROM R"),
            np.random.default_rng(2),
        )
        evaluator.evaluate(0, epsilon=0.5, confidence=0.9)
        rng = np.random.default_rng(3)
        for tuple_id, node, _ in list(database.iter_tuples()):
            database.delete(tuple_id)
            database.insert(node, {"v": float(rng.normal(0, 1))})
        estimate = evaluator.evaluate(1, epsilon=0.5, confidence=0.9)
        assert estimate.n_retained == 0
        assert estimate.n_fresh == estimate.n_total
