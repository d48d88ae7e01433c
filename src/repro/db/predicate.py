"""Boolean selection predicates over relation attributes (WHERE clauses).

The paper's future work calls for "more complex aggregate queries with
multiple relations and arbitrary select-join predicates" (Section VIII);
this module implements the single-relation *selection* half:

    SELECT op(expression) FROM R WHERE predicate

Grammar (precedence: comparisons bind tighter than NOT, then AND, then
OR; keywords are case-insensitive)::

    predicate  := or_term
    or_term    := and_term ("OR" and_term)*
    and_term   := not_term ("AND" not_term)*
    not_term   := "NOT" not_term | comparison
    comparison := expr (("<"|"<="|">"|">="|"="|"=="|"!="|"<>") expr)
                | "(" predicate ")"

Comparison operands are full arithmetic expressions
(:class:`repro.db.expression.Expression`), so ``memory + storage > 4 AND
NOT (cpu < 0.5)`` parses as expected. ``(`` is ambiguous between a
parenthesized predicate and a parenthesized arithmetic operand; the
parser resolves it by attempting the predicate reading first and backing
off to the arithmetic reading (classic backtracking on a single token
class, bounded by the nesting depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.db.expression import Expression, Row, _Parser, _Token, _tokenize
from repro.errors import ExpressionError

_COMPARISONS = {"<", "<=", ">", ">=", "=", "==", "!=", "<>"}
_KEYWORDS = {"AND", "OR", "NOT"}


class _PredicateNode:
    """Base class for boolean AST nodes."""

    def evaluate(self, row: Row) -> bool:
        raise NotImplementedError

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def attributes(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class _Comparison(_PredicateNode):
    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: Row) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if self.op in ("=", "=="):
            return left == right
        if self.op in ("!=", "<>"):
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        if self.op == ">=":
            return left >= right
        raise ExpressionError(f"unknown comparison {self.op!r}")

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        left = self.left.evaluate_columns(columns)
        right = self.right.evaluate_columns(columns)
        if self.op in ("=", "=="):
            return left == right
        if self.op in ("!=", "<>"):
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right

    def attributes(self) -> set[str]:
        return set(self.left.attributes) | set(self.right.attributes)

    def __str__(self) -> str:
        return f"({self.left.text} {self.op} {self.right.text})"


@dataclass(frozen=True)
class _Logical(_PredicateNode):
    op: str  # "AND" | "OR"
    left: _PredicateNode
    right: _PredicateNode

    def evaluate(self, row: Row) -> bool:
        if self.op == "AND":
            return self.left.evaluate(row) and self.right.evaluate(row)
        return self.left.evaluate(row) or self.right.evaluate(row)

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        left = np.asarray(self.left.evaluate_columns(columns))
        # as in evaluate(), the right operand runs only where the left one
        # leaves the answer open, so it may rely on the left holding
        open_rows = left if self.op == "AND" else ~left
        if not columns:
            # constants only: a single row, with no columns to subset
            return self.right.evaluate_columns(columns) if open_rows.all() else left
        result = left.copy()
        result[open_rows] = self.right.evaluate_columns(
            {name: column[open_rows] for name, column in columns.items()}
        )
        return result

    def attributes(self) -> set[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class _Not(_PredicateNode):
    operand: _PredicateNode

    def evaluate(self, row: Row) -> bool:
        return not self.operand.evaluate(row)

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~self.operand.evaluate_columns(columns)

    def attributes(self) -> set[str]:
        return self.operand.attributes()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


class _PredicateParser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    def parse(self) -> _PredicateNode:
        node = self._or_term()
        token = self._peek()
        if token.kind != "end":
            raise ExpressionError(
                f"unexpected token {token.text!r} at position {token.position} "
                f"in predicate {self._text!r}"
            )
        return node

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _is_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "ident" and token.text.upper() == word

    def _or_term(self) -> _PredicateNode:
        node = self._and_term()
        while self._is_keyword("OR"):
            self._index += 1
            node = _Logical("OR", node, self._and_term())
        return node

    def _and_term(self) -> _PredicateNode:
        node = self._not_term()
        while self._is_keyword("AND"):
            self._index += 1
            node = _Logical("AND", node, self._not_term())
        return node

    def _not_term(self) -> _PredicateNode:
        if self._is_keyword("NOT"):
            self._index += 1
            return _Not(self._not_term())
        return self._comparison()

    def _comparison(self) -> _PredicateNode:
        token = self._peek()
        if token.kind == "op" and token.text == "(":
            # ambiguous: parenthesized predicate or arithmetic operand.
            # Try the predicate reading first; back off on failure.
            saved = self._index
            self._index += 1
            try:
                node = self._or_term()
                closing = self._peek()
                if closing.kind == "op" and closing.text == ")":
                    self._index += 1
                    return node
            except ExpressionError:
                pass
            self._index = saved  # arithmetic reading
        left = self._arithmetic()
        operator = self._peek()
        if operator.kind != "op" or operator.text not in _COMPARISONS:
            raise ExpressionError(
                f"expected a comparison operator at position "
                f"{operator.position} in predicate {self._text!r}, got "
                f"{operator.text!r}"
            )
        self._index += 1
        right = self._arithmetic()
        return _Comparison(operator.text, left, right)

    def _arithmetic(self) -> Expression:
        parser = _Parser(self._text, self._tokens)
        parser._index = self._index
        node = parser.parse_expression()
        start = self._tokens[self._index].position
        end = self._tokens[parser.index].position
        self._index = parser.index
        return Expression._from_node(node, self._text[start:end].strip())


class Predicate:
    """A parsed boolean predicate over relation attributes.

    >>> p = Predicate("memory + storage > 4 AND NOT cpu < 0.5")
    >>> p.evaluate({"memory": 3, "storage": 2, "cpu": 0.9})
    True
    >>> sorted(p.attributes)
    ['cpu', 'memory', 'storage']
    """

    def __init__(self, text: str) -> None:
        if not text or not text.strip():
            raise ExpressionError("empty predicate")
        self._text = text
        self._root = _PredicateParser(text).parse()
        self._attributes = frozenset(self._root.attributes())

    @property
    def text(self) -> str:
        return self._text

    @property
    def attributes(self) -> frozenset[str]:
        return self._attributes

    def evaluate(self, row: Row) -> bool:
        """Truth value of the predicate for one row."""
        return bool(self._root.evaluate(row))

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation: a boolean array over the rows."""
        result = np.asarray(self._root.evaluate_columns(columns))
        if result.ndim == 0:
            length = len(next(iter(columns.values()))) if columns else 1
            result = np.full(length, bool(result))
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __repr__(self) -> str:
        return f"Predicate({self._text!r})"
