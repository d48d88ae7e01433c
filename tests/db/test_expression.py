"""Tests for the arithmetic expression language."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expression import Expression
from repro.errors import ExpressionError


class TestParsing:
    @pytest.mark.parametrize(
        "text,row,expected",
        [
            ("a", {"a": 3}, 3.0),
            ("a + b", {"a": 1, "b": 2}, 3.0),
            ("a - b - c", {"a": 10, "b": 3, "c": 2}, 5.0),  # left assoc
            ("a * b + c", {"a": 2, "b": 3, "c": 1}, 7.0),  # precedence
            ("a + b * c", {"a": 1, "b": 2, "c": 3}, 7.0),
            ("(a + b) * c", {"a": 1, "b": 2, "c": 3}, 9.0),
            ("a / b", {"a": 7, "b": 2}, 3.5),
            ("-a", {"a": 4}, -4.0),
            ("--a", {"a": 4}, 4.0),
            ("+a", {"a": 4}, 4.0),
            ("a ** 2", {"a": 3}, 9.0),
            ("a ** b ** c", {"a": 2, "b": 1, "c": 2}, 2.0),  # right assoc: 2**(1**2)
            ("-a ** 2", {"a": 3}, -9.0),  # unary binds looser than **
            ("2", {}, 2.0),
            ("2.5 * a", {"a": 2}, 5.0),
            (".5 + a", {"a": 1}, 1.5),
            ("1e2 + a", {"a": 0}, 100.0),
            ("memory + storage", {"memory": 2, "storage": 3}, 5.0),
        ],
    )
    def test_evaluate(self, text, row, expected):
        assert Expression(text).evaluate(row) == pytest.approx(expected)

    def test_attributes(self):
        assert Expression("0.5*(cpu + memory) - cpu").attributes == {
            "cpu",
            "memory",
        }

    def test_literal_only_has_no_attributes(self):
        assert Expression("1 + 2 * 3").attributes == frozenset()

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "a +", "* a", "(a", "a)", "a b", "a & b", "1..2", "a ** ", "()"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            Expression(bad)

    def test_equality_and_hash(self):
        assert Expression("a + b") == Expression("a + b")
        assert Expression("a + b") != Expression("a+b")  # textual identity
        assert hash(Expression("x")) == hash(Expression("x"))

    def test_repr(self):
        assert "a + b" in repr(Expression("a + b"))


class TestEvaluationErrors:
    def test_missing_attribute(self):
        with pytest.raises(ExpressionError, match="no attribute"):
            Expression("a + b").evaluate({"a": 1})

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            Expression("a / b").evaluate({"a": 1, "b": 0})

    def test_complex_power_rejected(self):
        with pytest.raises(ExpressionError):
            Expression("a ** 0.5").evaluate({"a": -4})

    def test_nonfinite_result_rejected(self):
        with pytest.raises(ExpressionError):
            Expression("a ** b").evaluate({"a": 10.0, "b": 400.0})

    def test_vectorized_nonfinite_result_rejected(self):
        """An overflow raises over columns as it does row by row."""
        expression = Expression("a * a")
        with pytest.raises(ExpressionError, match="non-finite"):
            expression.evaluate({"a": 1e200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpressionError, match="non-finite"):
                expression.evaluate_columns({"a": np.array([1.0, 1e200])})


class TestVectorized:
    def test_matches_scalar(self):
        expression = Expression("0.5 * (a + b) - a * 2")
        columns = {
            "a": np.array([1.0, 2.0, 3.0]),
            "b": np.array([4.0, 5.0, 6.0]),
        }
        vectorized = expression.evaluate_columns(columns)
        scalar = [
            expression.evaluate({"a": a, "b": b})
            for a, b in zip(columns["a"], columns["b"])
        ]
        np.testing.assert_allclose(vectorized, scalar)

    def test_missing_column(self):
        with pytest.raises(ExpressionError, match="missing attributes"):
            Expression("a + b").evaluate_columns({"a": np.ones(2)})

    def test_vectorized_division_by_zero(self):
        with pytest.raises(ExpressionError):
            Expression("a / b").evaluate_columns(
                {"a": np.ones(2), "b": np.array([1.0, 0.0])}
            )

    def test_literal_expression_broadcasts(self):
        result = Expression("a * 0 + 7").evaluate_columns({"a": np.zeros(4)})
        np.testing.assert_allclose(result, np.full(4, 7.0))


# ----------------------------------------------------------------------
# property-based: random expression trees evaluate consistently
# ----------------------------------------------------------------------

_IDENTIFIERS = ("x", "y", "zz")


def _expression_text(draw, depth=0):
    kind = draw(
        st.sampled_from(
            ["ident", "number"] if depth > 3 else ["ident", "number", "binary", "unary", "paren"]
        )
    )
    if kind == "ident":
        return draw(st.sampled_from(_IDENTIFIERS))
    if kind == "number":
        value = draw(st.integers(min_value=0, max_value=9))
        return str(value)
    if kind == "unary":
        return "-" + _expression_text(draw, depth + 1)
    if kind == "paren":
        return "(" + _expression_text(draw, depth + 1) + ")"
    op = draw(st.sampled_from([" + ", " - ", " * "]))
    return (
        _expression_text(draw, depth + 1) + op + _expression_text(draw, depth + 1)
    )


@st.composite
def expression_texts(draw):
    return _expression_text(draw)


@given(text=expression_texts(), x=st.integers(-5, 5), y=st.integers(-5, 5), z=st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_property_matches_python_eval(text, x, y, z):
    """Our evaluator agrees with Python's own on +,-,* expressions."""
    row = {"x": float(x), "y": float(y), "zz": float(z)}
    expected = eval(text, {"__builtins__": {}}, {"x": x, "y": y, "zz": z})
    assert Expression(text).evaluate(row) == pytest.approx(float(expected))


@given(text=expression_texts(), x=st.floats(-10, 10), y=st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_property_scalar_vector_agree(text, x, y):
    expression = Expression(text)
    row = {"x": x, "y": y, "zz": 1.5}
    columns = {
        "x": np.array([x]),
        "y": np.array([y]),
        "zz": np.array([1.5]),
    }
    scalar = expression.evaluate(row)
    vector = expression.evaluate_columns(columns)[0]
    assert math.isclose(scalar, vector, rel_tol=1e-12, abs_tol=1e-12)
