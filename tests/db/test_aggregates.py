"""Tests for aggregate semantics and scaling."""

import numpy as np
import pytest

from repro.db.aggregates import (
    AggregateOp,
    estimate_from_mean,
    exact_aggregate,
    mean_error_budget,
    scale_factor,
    tuple_values,
)
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError


class TestOpParsing:
    @pytest.mark.parametrize("text,op", [("avg", AggregateOp.AVG), ("SUM", AggregateOp.SUM), (" count ", AggregateOp.COUNT)])
    def test_parse(self, text, op):
        assert AggregateOp.parse(text) is op

    def test_parse_unknown(self):
        with pytest.raises(QueryError):
            AggregateOp.parse("median")


class TestTransforms:
    def test_avg_sum_pass_through(self):
        values = np.array([1.0, 2.0, 0.0])
        for op in (AggregateOp.AVG, AggregateOp.SUM):
            y, indicator = tuple_values(op, Expression("v"), None, {"v": values}, 3)
            np.testing.assert_allclose(y, values)
            np.testing.assert_allclose(indicator, 1.0)

    def test_count_indicator(self):
        values = np.array([1.0, 0.0, -2.0, 0.0])
        y, _ = tuple_values(AggregateOp.COUNT, Expression("v"), None, {"v": values}, 4)
        np.testing.assert_allclose(y, [1.0, 0.0, 1.0, 0.0])

    def test_scale_factors(self):
        assert scale_factor(AggregateOp.AVG, 100) == 1.0
        assert scale_factor(AggregateOp.SUM, 100) == 100.0
        assert scale_factor(AggregateOp.COUNT, 100) == 100.0

    def test_scale_factor_negative_population(self):
        with pytest.raises(QueryError):
            scale_factor(AggregateOp.SUM, -1)

    def test_estimate_from_mean(self):
        assert estimate_from_mean(AggregateOp.SUM, 2.5, 10) == 25.0
        assert estimate_from_mean(AggregateOp.AVG, 2.5, 10) == 2.5

    def test_mean_error_budget(self):
        assert mean_error_budget(AggregateOp.AVG, 2.0, 1000) == 2.0
        assert mean_error_budget(AggregateOp.SUM, 100.0, 50) == 2.0
        assert mean_error_budget(AggregateOp.SUM, 1.0, 0) == float("inf")
        with pytest.raises(QueryError):
            mean_error_budget(AggregateOp.AVG, -1.0, 10)


class TestExactAggregate:
    @pytest.fixture
    def db(self):
        database = P2PDatabase(Schema(("v",)), nodes=[0, 1])
        for value in (2.0, 4.0, 0.0, 6.0):
            database.insert(0, {"v": value})
        return database

    def test_avg(self, db):
        assert exact_aggregate(db, AggregateOp.AVG, Expression("v")) == 3.0

    def test_sum(self, db):
        assert exact_aggregate(db, AggregateOp.SUM, Expression("v")) == 12.0

    def test_count(self, db):
        # counts tuples with non-zero expression value
        assert exact_aggregate(db, AggregateOp.COUNT, Expression("v")) == 3.0

    def test_count_all(self, db):
        assert exact_aggregate(db, AggregateOp.COUNT, Expression("1")) == 4.0

    def test_avg_empty_rejected(self):
        empty = P2PDatabase(Schema(("v",)), nodes=[0])
        with pytest.raises(QueryError):
            exact_aggregate(empty, AggregateOp.AVG, Expression("v"))

    def test_sum_empty_is_zero(self):
        empty = P2PDatabase(Schema(("v",)), nodes=[0])
        assert exact_aggregate(empty, AggregateOp.SUM, Expression("v")) == 0.0
