"""Tests for the boolean predicate language (WHERE clauses)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.predicate import Predicate
from repro.errors import ExpressionError


class TestParsing:
    @pytest.mark.parametrize(
        "text,row,expected",
        [
            ("a > 1", {"a": 2}, True),
            ("a > 1", {"a": 1}, False),
            ("a >= 1", {"a": 1}, True),
            ("a < b", {"a": 1, "b": 2}, True),
            ("a <= b", {"a": 2, "b": 2}, True),
            ("a = b", {"a": 3, "b": 3}, True),
            ("a == b", {"a": 3, "b": 4}, False),
            ("a != b", {"a": 3, "b": 4}, True),
            ("a <> b", {"a": 3, "b": 3}, False),
            ("a + b > 4", {"a": 2, "b": 3}, True),
            ("a * 2 < b - 1", {"a": 1, "b": 4}, True),
            ("a > 1 AND b > 1", {"a": 2, "b": 2}, True),
            ("a > 1 AND b > 1", {"a": 2, "b": 0}, False),
            ("a > 1 OR b > 1", {"a": 0, "b": 2}, True),
            ("NOT a > 1", {"a": 0}, True),
            ("NOT NOT a > 1", {"a": 2}, True),
            # precedence: AND binds tighter than OR
            ("a > 1 OR b > 1 AND c > 1", {"a": 2, "b": 0, "c": 0}, True),
            ("(a > 1 OR b > 1) AND c > 1", {"a": 2, "b": 0, "c": 0}, False),
            # parenthesized arithmetic operands
            ("(a + b) * 2 > 8", {"a": 2, "b": 3}, True),
            ("((a)) > 1", {"a": 2}, True),
            # keywords case-insensitive
            ("a > 1 and b > 1", {"a": 2, "b": 2}, True),
            ("not a > 1 or b > 1", {"a": 2, "b": 2}, True),
            ("memory + storage > 4 AND NOT cpu < 0.5", {"memory": 3, "storage": 2, "cpu": 0.9}, True),
        ],
    )
    def test_evaluate(self, text, row, expected):
        assert Predicate(text).evaluate(row) is expected

    def test_attributes(self):
        predicate = Predicate("a + b > 1 AND NOT c < d")
        assert predicate.attributes == {"a", "b", "c", "d"}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "a",  # no comparison
            "a + b",  # arithmetic only
            "a >",
            "> a",
            "a > 1 AND",
            "AND a > 1",
            "a > 1 b > 1",
            "a >> 1",
            "(a > 1",
            "a > 1)",
            "NOT",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            Predicate(bad)

    def test_equality_and_hash(self):
        assert Predicate("a > 1") == Predicate("a > 1")
        assert Predicate("a > 1") != Predicate("a>1")
        assert hash(Predicate("a > 1")) == hash(Predicate("a > 1"))

    def test_repr(self):
        assert "a > 1" in repr(Predicate("a > 1"))

    def test_missing_attribute_at_evaluation(self):
        with pytest.raises(ExpressionError):
            Predicate("a > b").evaluate({"a": 1})


class TestVectorized:
    def test_matches_scalar(self):
        predicate = Predicate("a + b > 4 AND NOT a < 1 OR b = 0")
        columns = {
            "a": np.array([0.5, 2.0, 3.0, 1.0]),
            "b": np.array([0.0, 3.0, 0.5, 1.0]),
        }
        vectorized = predicate.evaluate_columns(columns)
        scalar = [
            predicate.evaluate({"a": a, "b": b})
            for a, b in zip(columns["a"], columns["b"])
        ]
        assert vectorized.tolist() == scalar

    @pytest.mark.parametrize(
        "text",
        ["x > 0 AND 1 / x > 2", "x = 0 OR 1 / x > 2", "NOT (x = 0 OR 1 / x < 2)"],
    )
    def test_right_operand_only_on_undecided_rows(self, text):
        """AND/OR short-circuit per row: no division by zero at x = 0."""
        predicate = Predicate(text)
        x = np.array([0.0, 0.25, 1.0, 0.0])
        scalar = [predicate.evaluate({"x": value}) for value in x.tolist()]
        assert predicate.evaluate_columns({"x": x}).tolist() == scalar

    @pytest.mark.parametrize(
        ("text", "expected"),
        [("1 > 2 AND 1 / 0 > 1", False), ("1 < 2 OR 1 / 0 > 1", True)],
    )
    def test_constant_operands_short_circuit(self, text, expected):
        assert Predicate(text).evaluate_columns({}).tolist() == [expected]
        assert Predicate(text).evaluate({}) is expected

    def test_constant_predicate_broadcasts(self):
        result = Predicate("1 > 0").evaluate_columns({"a": np.zeros(3)})
        assert result.tolist() == [True, True, True]


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    threshold=st.integers(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_property_matches_python_semantics(a, b, threshold):
    text = f"a + b > {threshold} AND a <= b OR NOT b < 0"
    expected = (a + b > threshold and a <= b) or not (b < 0)
    assert Predicate(text).evaluate({"a": a, "b": b}) is expected
