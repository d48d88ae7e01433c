"""Tests for independent sampling evaluation (Section IV-B1)."""

import numpy as np
import pytest

from repro.core.independent import PILOT_SIZE, IndependentEvaluator
from repro.core.query import Query, parse_query
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.sampling.operator import SamplerConfig, SamplingOperator


def _world(mean=50.0, sigma=10.0, per_node=5, n_nodes=36, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(per_node):
            database.insert(node, {"v": float(rng.normal(mean, sigma))})
    return graph, database


def _evaluator(graph, database, query=None, seed=1):
    if query is None:
        query = Query(AggregateOp.AVG, Expression("v"))
    operator = SamplingOperator(
        graph, np.random.default_rng(seed), config=SamplerConfig()
    )
    return IndependentEvaluator(database, operator, 0, query)


class TestAvg:
    def test_estimate_close_to_truth(self):
        graph, database = _world()
        evaluator = _evaluator(graph, database)
        estimate = evaluator.evaluate(0, epsilon=1.0, confidence=0.95)
        truth = float(database.exact_values(Expression("v")).mean())
        assert abs(estimate.mean - truth) < 2.5  # ~2x epsilon slack, single run
        assert estimate.aggregate == estimate.mean  # AVG has scale 1
        assert estimate.n_fresh == estimate.n_total
        assert estimate.n_retained == 0

    def test_sample_size_grows_with_precision(self):
        graph, database = _world()
        loose = _evaluator(graph, database, seed=1).evaluate(
            0, epsilon=4.0, confidence=0.95
        )
        tight = _evaluator(graph, database, seed=1).evaluate(
            0, epsilon=1.0, confidence=0.95
        )
        assert tight.n_total > loose.n_total

    def test_sequential_topup_reaches_requirement(self):
        """The final n must cover the CLT size at the final sigma estimate."""
        from repro.core.estimators import required_sample_size

        graph, database = _world(sigma=20.0)
        evaluator = _evaluator(graph, database)
        estimate = evaluator.evaluate(0, epsilon=2.0, confidence=0.95)
        sigma_hat = float(np.sqrt(estimate.variance * estimate.n_total))
        needed = required_sample_size(sigma_hat, 2.0, 0.95, minimum=PILOT_SIZE)
        assert estimate.n_total >= 0.8 * needed  # one round of slack

    def test_coverage_probability(self):
        """|estimate - truth| <= epsilon holds at ~confidence over trials."""
        graph, database = _world(sigma=8.0)
        truth = float(database.exact_values(Expression("v")).mean())
        hits = 0
        trials = 60
        for trial in range(trials):
            evaluator = _evaluator(graph, database, seed=100 + trial)
            estimate = evaluator.evaluate(0, epsilon=1.5, confidence=0.9)
            hits += abs(estimate.mean - truth) <= 1.5
        assert hits / trials >= 0.75  # 0.9 target with sampling slack


class TestSumCount:
    def test_sum_scales_by_population(self):
        graph, database = _world(mean=10.0, sigma=1.0)
        query = parse_query("SELECT SUM(v) FROM R")
        evaluator = _evaluator(graph, database, query=query)
        estimate = evaluator.evaluate(0, epsilon=200.0, confidence=0.95)
        truth = float(database.exact_values(Expression("v")).sum())
        assert estimate.population_size == database.n_tuples
        assert abs(estimate.aggregate - truth) < 500.0

    def test_count_predicate(self):
        graph, database = _world(mean=0.0, sigma=10.0)
        # count tuples with v > 0 via the indicator trick is not expressible
        # directly; COUNT(v) counts non-zero values (all of them here)
        query = parse_query("SELECT COUNT(v) FROM R")
        evaluator = _evaluator(graph, database, query=query)
        estimate = evaluator.evaluate(0, epsilon=10.0, confidence=0.95)
        assert estimate.aggregate == pytest.approx(database.n_tuples, rel=0.1)

    def test_custom_population_provider(self):
        graph, database = _world()
        query = parse_query("SELECT SUM(v) FROM R")
        operator = SamplingOperator(graph, np.random.default_rng(1))
        evaluator = IndependentEvaluator(
            database, operator, 0, query, population_size_provider=lambda: 1000
        )
        estimate = evaluator.evaluate(0, epsilon=1000.0, confidence=0.95)
        assert estimate.population_size == 1000
