"""Graceful degradation of the evaluators under the failure model.

When the sampling operator loses walks, the evaluators must not raise:
they return the estimate computed from whatever came back, flagged
``degraded=True`` with the honest ``(epsilon, p)`` restatement (Eq. 5
re-solved for the achieved sample size).
"""

import numpy as np
import pytest

from repro.core.estimators import achieved_confidence, achieved_epsilon
from repro.core.independent import IndependentEvaluator
from repro.core.query import Query, parse_query
from repro.core.repeated import RepeatedEvaluator
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.schema import SPAN_SAMPLE_ACQUISITION
from repro.obs.tracer import SinkTracer
from repro.sampling.operator import SamplerConfig, SamplingOperator


def _world(n_nodes=36, per_node=5, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(per_node):
            database.insert(node, {"v": float(rng.normal(50.0, 10.0))})
    return graph, database


def _lossy_operator(graph, loss=0.05, seed=1, tracer=None):
    # losses act at walk granularity through the plan's survival draw
    plan = FaultPlan(FaultConfig(message_loss=loss), rng=seed + 50)
    operator = SamplingOperator(
        graph,
        np.random.default_rng(seed),
        config=SamplerConfig(walk_length=20),
        faults=plan,
        tracer=tracer,
    )
    return operator, plan


class TestEstimatorHelpers:
    def test_achieved_confidence_inverts_eq5(self):
        # at the exact variance target the achieved confidence is the promise
        from repro.core.estimators import variance_target

        target = variance_target(0.5, 0.95)
        assert achieved_confidence(0.5, target) == pytest.approx(0.95)
        # less variance -> more confidence; more variance -> less
        assert achieved_confidence(0.5, target / 4) > 0.95
        assert achieved_confidence(0.5, target * 4) < 0.95
        assert achieved_confidence(0.5, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_achieved_confidence_validation(self):
        with pytest.raises(QueryError):
            achieved_confidence(0.0, 1.0)
        with pytest.raises(QueryError):
            achieved_confidence(0.5, -1.0)

    def test_achieved_epsilon_matches_half_width(self):
        assert achieved_epsilon(0.04, 0.95) == pytest.approx(1.96 * 0.2, abs=1e-3)


class TestOperatorPartialMode:
    def test_lossy_operator_returns_partial_sample(self):
        # at this loss some agents still lose every message they may send
        graph, database = _world()
        tracer = SinkTracer(record=True)
        operator, plan = _lossy_operator(graph, loss=0.3, tracer=tracer)
        samples = operator.sample_tuples(database, 60, 0, allow_partial=True)
        assert 0 < len(samples) < 60
        (span,) = tracer.trace().spans_named(SPAN_SAMPLE_ACQUISITION)
        assert span.attrs["n_lost"] > 0
        assert plan.log.count("sample_shortfall") == 1

    def test_default_mode_still_raises(self):
        from repro.errors import SamplingError

        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.3)
        with pytest.raises(SamplingError, match="failed to draw"):
            operator.sample_tuples(database, 60, 0)

    def test_pool_nodes_property_is_a_copy(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.0)
        operator.sample_tuples(database, 10, 0)
        pool = operator.pool_nodes
        assert pool == operator.pool_nodes
        pool.clear()
        assert operator.pool_nodes  # internal state untouched

    def test_pool_keeps_positions_of_lost_returns(self):
        """A lost return message does not kill the agent: continued walks
        resume from all final positions, delivered or not. Lost returns are
        resent, so only a heavy loss leaves samples undelivered."""
        graph, _ = _world()
        operator, _ = _lossy_operator(graph, loss=0.3)
        from repro.sampling.weights import uniform_weights

        delivered = operator.sample_nodes(uniform_weights(), 40, 0)
        assert len(operator.pool_nodes) == 40
        assert len(delivered) < 40


class TestIndependentDegradation:
    def test_degrades_instead_of_raising(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.10)
        evaluator = IndependentEvaluator(
            database,
            operator,
            0,
            Query(AggregateOp.AVG, Expression("v")),
        )
        estimate = evaluator.evaluate(0, epsilon=0.8, confidence=0.95)
        truth = float(database.exact_values(Expression("v")).mean())
        assert abs(estimate.mean - truth) < 10.0  # still a sane estimate
        if estimate.degraded:
            assert estimate.achieved_epsilon is not None
            assert estimate.achieved_confidence is not None
            assert 0.0 < estimate.achieved_confidence < 0.95
        else:
            assert estimate.achieved_epsilon is None
            assert estimate.achieved_confidence is None

    def test_fault_free_estimates_are_not_degraded(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.0)
        evaluator = IndependentEvaluator(
            database,
            operator,
            0,
            Query(AggregateOp.AVG, Expression("v")),
        )
        estimate = evaluator.evaluate(0, epsilon=1.0, confidence=0.95)
        assert not estimate.degraded
        assert estimate.achieved_epsilon is None
        assert estimate.achieved_confidence is None

    def test_sum_query_degrades_with_scaled_epsilon(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.12, seed=3)
        evaluator = IndependentEvaluator(
            database,
            operator,
            0,
            Query(AggregateOp.SUM, Expression("v")),
        )
        # tight epsilon so the shortfall actually bites
        estimate = evaluator.evaluate(
            0, epsilon=0.3 * database.n_tuples, confidence=0.95
        )
        if estimate.degraded:
            # achieved epsilon is reported in aggregate units
            assert estimate.achieved_epsilon > 0.3 * database.n_tuples


class TestEvaluatorsAgreeOnFirstOccasion:
    """A fresh repeated evaluator bootstraps with the independent one's
    Eq. 6 loop, so on the same seeds the two first answers are identical,
    degraded re-statement included."""

    @pytest.mark.parametrize(
        "text,epsilon_per_tuple",
        [
            ("SELECT SUM(v) FROM R", 1.0),
            ("SELECT COUNT(v) FROM R WHERE v > 50", 0.05),
        ],
    )
    @pytest.mark.parametrize("loss", [0.0, 0.3, 0.5])
    def test_same_estimate(self, text, epsilon_per_tuple, loss):
        graph, database = _world()
        query = parse_query(text)
        estimates = []
        for make in (
            lambda op: IndependentEvaluator(database, op, 0, query),
            lambda op: RepeatedEvaluator(
                database, op, 0, query, np.random.default_rng(9)
            ),
        ):
            operator, _ = _lossy_operator(graph, loss=loss)
            estimates.append(
                make(operator).evaluate(
                    0, epsilon=epsilon_per_tuple * database.n_tuples, confidence=0.95
                )
            )
        independent, repeated = estimates
        if not loss:
            assert not independent.degraded
        if loss > 0.4:
            # resent returns deliver the COUNT query's whole sample at 0.3;
            # at 0.5 both answers degrade, so the restatements are compared
            assert independent.degraded
        for field in (
            "aggregate",
            "n_total",
            "n_fresh",
            "n_retained",
            "degraded",
            "achieved_epsilon",
            "achieved_confidence",
        ):
            assert getattr(repeated, field) == getattr(independent, field), field


class TestRepeatedDegradation:
    def _evaluator(self, graph, database, operator, seed=2):
        return RepeatedEvaluator(
            database,
            operator,
            0,
            Query(AggregateOp.AVG, Expression("v")),
            np.random.default_rng(seed),
        )

    def test_bootstrap_degrades_instead_of_raising(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.10)
        evaluator = self._evaluator(graph, database, operator)
        estimate = evaluator.evaluate(0, epsilon=0.8, confidence=0.95)
        assert np.isfinite(estimate.mean)
        if estimate.degraded:
            assert estimate.achieved_confidence is not None

    def test_later_occasions_degrade_instead_of_raising(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.08)
        evaluator = self._evaluator(graph, database, operator)
        estimates = [
            evaluator.evaluate(t, epsilon=0.8, confidence=0.95)
            for t in range(4)
        ]
        assert all(np.isfinite(e.mean) for e in estimates)
        for e in estimates:
            if e.degraded:
                assert e.achieved_epsilon is not None
                assert e.achieved_epsilon > 0.0

    def test_fault_free_repeated_not_degraded(self):
        graph, database = _world()
        operator, _ = _lossy_operator(graph, loss=0.0)
        evaluator = self._evaluator(graph, database, operator)
        for t in range(3):
            estimate = evaluator.evaluate(t, epsilon=1.5, confidence=0.95)
            assert not estimate.degraded
