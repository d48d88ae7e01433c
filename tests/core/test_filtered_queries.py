"""Tests for WHERE-clause (filtered) aggregate queries end to end."""

import numpy as np
import pytest

from repro.core.estimators import ratio_estimate
from repro.core.independent import IndependentEvaluator
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.repeated import RepeatedEvaluator
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import AggregateOp, exact_aggregate, tuple_values
from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.sampling.operator import SamplingOperator


@pytest.fixture
def world():
    rng = np.random.default_rng(0)
    graph = OverlayGraph(mesh_topology(36), n_nodes=36)
    database = P2PDatabase(Schema(("mem", "cpu")), graph.nodes())
    for node in graph.nodes():
        for _ in range(6):
            database.insert(
                node,
                {
                    "mem": float(rng.uniform(0, 10)),
                    "cpu": float(rng.uniform(0, 4)),
                },
            )
    return graph, database


class TestQueryParsing:
    def test_where_clause_parsed(self):
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 2")
        assert query.predicate is not None
        assert query.predicate.text == "cpu > 2"

    def test_no_where_is_none(self):
        assert parse_query("SELECT AVG(mem) FROM R").predicate is None

    def test_str_roundtrip_with_where(self):
        text = "SELECT SUM(mem) FROM R WHERE cpu > 2 AND mem < 8"
        assert str(parse_query(text)) == text

    def test_malformed_where_rejected(self):
        with pytest.raises(Exception):
            parse_query("SELECT AVG(mem) FROM R WHERE cpu +")


def _contribution(op, expression, predicate, row):
    """``tuple_values`` over a one-row relation, as a ``(y, indicator)`` pair."""
    columns = {name: np.array([value]) for name, value in row.items()}
    y, indicator = tuple_values(op, expression, predicate, columns, 1)
    return float(y[0]), float(indicator[0])


class TestSampleContribution:
    def test_avg_masking(self):
        expression = Expression("mem")
        predicate = Predicate("cpu > 2")
        y, i = _contribution(
            AggregateOp.AVG, expression, predicate, {"mem": 5.0, "cpu": 3.0}
        )
        assert (y, i) == (5.0, 1.0)
        y, i = _contribution(
            AggregateOp.AVG, expression, predicate, {"mem": 5.0, "cpu": 1.0}
        )
        assert (y, i) == (0.0, 0.0)

    def test_count_requires_nonzero_and_predicate(self):
        expression = Expression("mem")
        predicate = Predicate("cpu > 2")
        y, _ = _contribution(
            AggregateOp.COUNT, expression, predicate, {"mem": 0.0, "cpu": 3.0}
        )
        assert y == 0.0
        y, _ = _contribution(
            AggregateOp.COUNT, expression, predicate, {"mem": 2.0, "cpu": 3.0}
        )
        assert y == pytest.approx(1.0, rel=1e-12)

    def test_no_predicate_indicator_one(self):
        y, i = _contribution(AggregateOp.SUM, Expression("mem"), None, {"mem": 4.0})
        assert (y, i) == (4.0, 1.0)

    @pytest.mark.parametrize("op", list(AggregateOp))
    @pytest.mark.parametrize("where", [None, "cpu > 2 AND mem < 8"])
    def test_every_tuple_matches_oracle_and_rows(self, world, op, where):
        """Over the whole relation: the oracle's numbers, row by row."""
        _, database = world
        expression = Expression("mem * 2 - cpu")
        predicate = Predicate(where) if where is not None else None
        triples = list(database.iter_tuples())
        ids = [tuple_id for tuple_id, _, _ in triples]
        y, indicator = tuple_values(
            op,
            expression,
            predicate,
            database.gather(["cpu", "mem"], ids),
            len(ids),
        )
        # the reference: the scalar interpreters, one row at a time
        for k, (_, _, row) in enumerate(triples):
            satisfied = 1.0 if predicate is None or predicate.evaluate(row) else 0.0
            value = expression.evaluate(row)
            if op is AggregateOp.COUNT:
                value = 1.0 if value != 0.0 else 0.0
            assert (y[k], indicator[k]) == (value * satisfied, satisfied)
        truth = exact_aggregate(database, op, expression, predicate)
        if op is AggregateOp.AVG:
            assert truth == y[indicator.astype(bool)].mean()
        else:
            assert truth == y.mean() * len(ids)


class TestRatioEstimator:
    def test_reduces_to_mean_without_filtering(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        indicators = np.ones(4)
        estimate, variance = ratio_estimate(values, indicators)
        assert estimate == pytest.approx(2.5)
        assert variance == pytest.approx(np.mean((values - 2.5) ** 2) / 4)

    def test_subpopulation_mean(self):
        values = np.array([2.0, 0.0, 4.0, 0.0])
        indicators = np.array([1.0, 0.0, 1.0, 0.0])
        estimate, _ = ratio_estimate(values, indicators)
        assert estimate == pytest.approx(3.0)

    def test_no_qualifying_rejected(self):
        with pytest.raises(QueryError, match="predicate"):
            ratio_estimate(np.zeros(5), np.zeros(5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QueryError):
            ratio_estimate(np.zeros(3), np.zeros(4))

    def test_delta_method_variance_calibrated(self):
        """Empirical variance of the ratio matches the formula."""
        rng = np.random.default_rng(0)
        population = rng.uniform(0, 10, 50_000)
        qualifies = population > 4.0
        truth = population[qualifies].mean()
        n = 400
        estimates, variances = [], []
        for _ in range(500):
            index = rng.integers(0, population.size, n)
            indicator = qualifies[index].astype(float)
            values = population[index] * indicator
            estimate, variance = ratio_estimate(values, indicator)
            estimates.append(estimate)
            variances.append(variance)
        empirical = np.var(np.array(estimates) - truth)
        assert empirical == pytest.approx(np.mean(variances), rel=0.3)


class TestExactAggregateFiltered:
    def test_avg_where(self, world):
        _, database = world
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        columns = database.exact_columns(["mem", "cpu"])
        expected = columns["mem"][columns["cpu"] > 2].mean()
        assert truth == pytest.approx(expected)

    def test_sum_where(self, world):
        _, database = world
        query = parse_query("SELECT SUM(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        columns = database.exact_columns(["mem", "cpu"])
        assert truth == pytest.approx(columns["mem"][columns["cpu"] > 2].sum())

    def test_count_where(self, world):
        _, database = world
        query = parse_query("SELECT COUNT(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        columns = database.exact_columns(["mem", "cpu"])
        assert truth == pytest.approx((columns["cpu"] > 2).sum())

    def test_avg_empty_selection_rejected(self, world):
        _, database = world
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 100")
        with pytest.raises(QueryError):
            exact_aggregate(database, query.op, query.expression, query.predicate)

    def test_sum_empty_selection_zero(self, world):
        _, database = world
        query = parse_query("SELECT SUM(mem) FROM R WHERE cpu > 100")
        assert (
            exact_aggregate(database, query.op, query.expression, query.predicate)
            == 0.0
        )


class TestFilteredEvaluation:
    def test_independent_avg_where(self, world):
        graph, database = world
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        evaluator = IndependentEvaluator(
            database, SamplingOperator(graph, np.random.default_rng(1)), 0, query
        )
        estimate = evaluator.evaluate(0, epsilon=0.4, confidence=0.95)
        assert abs(estimate.mean - truth) < 1.0

    def test_independent_count_where(self, world):
        graph, database = world
        query = parse_query("SELECT COUNT(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        evaluator = IndependentEvaluator(
            database, SamplingOperator(graph, np.random.default_rng(2)), 0, query
        )
        estimate = evaluator.evaluate(0, epsilon=20.0, confidence=0.95)
        assert abs(estimate.aggregate - truth) < 45.0

    def test_repeated_sum_where(self, world):
        graph, database = world
        query = parse_query("SELECT SUM(mem) FROM R WHERE cpu > 2")
        truth = exact_aggregate(database, query.op, query.expression, query.predicate)
        evaluator = RepeatedEvaluator(
            database,
            SamplingOperator(graph, np.random.default_rng(3)),
            0,
            query,
            np.random.default_rng(4),
        )
        for time in range(3):
            estimate = evaluator.evaluate(time, epsilon=120.0, confidence=0.95)
        assert abs(estimate.aggregate - truth) < 300.0
        assert estimate.n_retained > 0

    def test_repeated_avg_where_rejected(self, world):
        graph, database = world
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 2")
        with pytest.raises(QueryError, match="ratio"):
            RepeatedEvaluator(
                database,
                SamplingOperator(graph, np.random.default_rng(0)),
                0,
                query,
                np.random.default_rng(0),
            )

    def test_low_selectivity_raises_clearly(self, world):
        graph, database = world
        query = parse_query("SELECT AVG(mem) FROM R WHERE cpu > 1000")
        evaluator = IndependentEvaluator(
            database, SamplingOperator(graph, np.random.default_rng(5)), 0, query
        )
        with pytest.raises(QueryError, match="selectivity|predicate"):
            evaluator.evaluate(0, epsilon=1.0, confidence=0.95)

    def test_engine_validates_predicate_schema(self, world):
        graph, database = world
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(mem) FROM R WHERE bogus > 1"),
            Precision(1.0, 1.0),
        )
        with pytest.raises(Exception, match="bogus|unknown"):
            DigestSession(
                graph, database, 0, np.random.default_rng(0)
            ).add_query(continuous)

    def test_engine_runs_filtered_continuous_query(self, world):
        graph, database = world
        continuous = ContinuousQuery(
            parse_query("SELECT COUNT(mem) FROM R WHERE cpu > 2"),
            Precision(delta=20.0, epsilon=25.0, confidence=0.95),
            duration=5,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(6))
        query_id = session.add_query(
            continuous,
            config=EngineConfig(scheduler="all", evaluator="repeated"),
        )
        for t in range(5):
            session.step(t)
        truth = exact_aggregate(
            database,
            continuous.query.op,
            continuous.query.expression,
            continuous.query.predicate,
        )
        result = session.runtime(query_id).result
        assert abs(result.last().estimate - truth) < 60.0
