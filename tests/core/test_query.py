"""Tests for the query model and precision semantics."""

import pytest

from repro.core.query import ContinuousQuery, Precision, Query, parse_query
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.errors import QueryError


class TestParseQuery:
    def test_basic(self):
        query = parse_query("SELECT AVG(temperature) FROM R")
        assert query.op is AggregateOp.AVG
        assert query.expression.text == "temperature"
        assert query.relation == "R"

    def test_case_insensitive(self):
        query = parse_query("select sum(a + b) from sensors")
        assert query.op is AggregateOp.SUM
        assert query.relation == "sensors"

    def test_complex_expression(self):
        query = parse_query("SELECT SUM(memory + storage) FROM R")
        assert query.expression.attributes == {"memory", "storage"}

    def test_nested_parentheses(self):
        query = parse_query("SELECT AVG((a + b) * 0.5) FROM R;")
        value = query.expression.evaluate({"a": 2, "b": 4})
        assert value == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * FROM R",
            "SELECT AVG(a)",
            "AVG(a) FROM R",
            "SELECT MEDIAN(a) FROM R",
            "SELECT AVG() FROM R",
            "",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_str_roundtrip(self):
        text = "SELECT AVG(a + b) FROM R"
        assert str(parse_query(text)) == text


class TestPrecision:
    def test_valid(self):
        precision = Precision(delta=1.0, epsilon=0.5, confidence=0.9)
        assert not precision.is_exact

    def test_exact(self):
        assert Precision.exact().is_exact

    def test_rejects_negative_delta(self):
        with pytest.raises(QueryError):
            Precision(delta=-1.0, epsilon=1.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(QueryError):
            Precision(delta=1.0, epsilon=-1.0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(QueryError):
            Precision(delta=1.0, epsilon=1.0, confidence=0.0)
        with pytest.raises(QueryError):
            Precision(delta=1.0, epsilon=1.0, confidence=1.5)

    def test_zero_epsilon_needs_full_confidence(self):
        with pytest.raises(QueryError):
            Precision(delta=0.0, epsilon=0.0, confidence=0.95)
        Precision(delta=0.0, epsilon=0.0, confidence=1.0)  # exact query ok


class TestContinuousQuery:
    def _query(self):
        return Query(AggregateOp.AVG, Expression("v"))

    def test_active_window(self):
        continuous = ContinuousQuery(
            self._query(), Precision(1.0, 1.0), start_time=5, duration=10
        )
        assert continuous.end_time == 14
        assert not continuous.active_at(4)
        assert continuous.active_at(5)
        assert continuous.active_at(14)
        assert not continuous.active_at(15)

    def test_open_ended(self):
        continuous = ContinuousQuery(self._query(), Precision(1.0, 1.0))
        assert continuous.end_time is None
        assert continuous.active_at(10**9)

    def test_rejects_negative_start(self):
        with pytest.raises(QueryError):
            ContinuousQuery(self._query(), Precision(1.0, 1.0), start_time=-1)

    def test_rejects_zero_duration(self):
        with pytest.raises(QueryError):
            ContinuousQuery(self._query(), Precision(1.0, 1.0), duration=0)

    def test_str_mentions_parameters(self):
        text = str(ContinuousQuery(self._query(), Precision(2.0, 1.0, 0.9)))
        assert "delta=2.0" in text and "epsilon=1.0" in text and "p=0.9" in text
