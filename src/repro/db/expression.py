"""Arithmetic expressions over relation attributes.

Queries have the shape ``SELECT op(expression) FROM R`` where ``expression``
is an arithmetic expression involving the attributes of ``R`` (Section II),
e.g. ``SUM(memory + storage)``. This module implements that expression
language: a tokenizer, a recursive-descent parser producing a small AST,
and evaluation against a single row (mapping of attribute name to value) or
vectorized against columns of numpy arrays.

Grammar (standard precedence, ``**`` binds tightest and right-associative)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := ("+" | "-") unary | power
    power  := atom ("**" unary)?
    atom   := NUMBER | IDENT | "(" expr ")"

The parser is intentionally small and explicit — no ``eval``, no operator
tables hidden behind metaprogramming — per the project style guide.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from repro.errors import ExpressionError

Number = Union[int, float]
Row = Mapping[str, Number]

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|<=|>=|==|!=|<>|[-+*/()<>=]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            remainder = text[position:].lstrip()
            if not remainder:
                break
            raise ExpressionError(
                f"unexpected character {remainder[0]!r} at position {position} "
                f"in expression {text!r}"
            )
        if match.lastgroup == "number" or (
            match.group("number") is not None
        ):
            # the exponent suffix is part of the overall match, not the group
            tokens.append(_Token("number", match.group(0).strip(), match.start()))
        elif match.group("ident") is not None:
            tokens.append(_Token("ident", match.group("ident"), match.start()))
        else:
            tokens.append(_Token("op", match.group("op"), match.start()))
        position = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ----------------------------------------------------------------------
# AST nodes
# ----------------------------------------------------------------------


class _Node:
    """Base AST node; subclasses implement ``evaluate`` and ``attributes``."""

    def evaluate(self, row: Row) -> float:
        raise NotImplementedError

    def attributes(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class _Literal(_Node):
    value: float

    def evaluate(self, row: Row) -> float:
        return self.value

    def attributes(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class _Attribute(_Node):
    name: str

    def evaluate(self, row: Row) -> float:
        try:
            return float(row[self.name])
        except KeyError:
            raise ExpressionError(
                f"row has no attribute {self.name!r}; available: {sorted(row)}"
            ) from None

    def attributes(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class _Unary(_Node):
    op: str
    operand: _Node

    def evaluate(self, row: Row) -> float:
        value = self.operand.evaluate(row)
        return -value if self.op == "-" else value

    def attributes(self) -> set[str]:
        return self.operand.attributes()

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class _Binary(_Node):
    op: str
    left: _Node
    right: _Node

    def evaluate(self, row: Row) -> float:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        if self.op == "/":
            if right == 0:
                raise ExpressionError(f"division by zero in {self}")
            return left / right
        if self.op == "**":
            try:
                result = left**right
            except (OverflowError, ValueError) as exc:
                raise ExpressionError(f"invalid power in {self}: {exc}") from exc
            if isinstance(result, complex):
                raise ExpressionError(f"complex result in {self}")
            return result
        raise ExpressionError(f"unknown operator {self.op!r}")

    def attributes(self) -> set[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class _Parser:
    """Recursive-descent arithmetic parser over a token stream.

    The predicate parser (:mod:`repro.db.predicate`) reuses this class for
    comparison operands by constructing it with pre-built tokens and
    calling :meth:`parse_expression`, which stops (without consuming) at
    the first token the arithmetic grammar cannot use.
    """

    def __init__(self, text: str, tokens: list[_Token] | None = None) -> None:
        self._text = text
        self._tokens = tokens if tokens is not None else _tokenize(text)
        self._index = 0

    @property
    def index(self) -> int:
        return self._index

    def parse(self) -> _Node:
        node = self._expr()
        token = self._peek()
        if token.kind != "end":
            raise ExpressionError(
                f"unexpected token {token.text!r} at position {token.position} "
                f"in expression {self._text!r}"
            )
        return node

    def parse_expression(self) -> _Node:
        """Parse one arithmetic expression, leaving trailing tokens."""
        return self._expr()

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect_op(self, text: str) -> None:
        token = self._advance()
        if token.kind != "op" or token.text != text:
            raise ExpressionError(
                f"expected {text!r} at position {token.position} "
                f"in expression {self._text!r}, got {token.text!r}"
            )

    def _expr(self) -> _Node:
        node = self._term()
        while self._peek().kind == "op" and self._peek().text in ("+", "-"):
            op = self._advance().text
            node = _Binary(op, node, self._term())
        return node

    def _term(self) -> _Node:
        node = self._unary()
        while self._peek().kind == "op" and self._peek().text in ("*", "/"):
            op = self._advance().text
            node = _Binary(op, node, self._unary())
        return node

    def _unary(self) -> _Node:
        token = self._peek()
        if token.kind == "op" and token.text in ("+", "-"):
            self._advance()
            return _Unary(token.text, self._unary())
        return self._power()

    def _power(self) -> _Node:
        base = self._atom()
        token = self._peek()
        if token.kind == "op" and token.text == "**":
            self._advance()
            return _Binary("**", base, self._unary())
        return base

    def _atom(self) -> _Node:
        token = self._advance()
        if token.kind == "number":
            return _Literal(float(token.text))
        if token.kind == "ident":
            return _Attribute(token.text)
        if token.kind == "op" and token.text == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        raise ExpressionError(
            f"unexpected token {token.text!r} at position {token.position} "
            f"in expression {self._text!r}"
        )


class Expression:
    """A parsed arithmetic expression over relation attributes.

    Instances are immutable and hashable on their source text. Use
    :meth:`evaluate` for one row or :meth:`evaluate_columns` for vectorized
    evaluation over numpy column arrays.

    Examples
    --------
    >>> expr = Expression("memory + storage")
    >>> expr.evaluate({"memory": 2.0, "storage": 3.0})
    5.0
    >>> sorted(expr.attributes)
    ['memory', 'storage']
    """

    def __init__(self, text: str) -> None:
        if not text or not text.strip():
            raise ExpressionError("empty expression")
        self._text = text
        self._root = _Parser(text).parse()
        self._attributes = frozenset(self._root.attributes())

    @classmethod
    def _from_node(cls, node: _Node, text: str) -> "Expression":
        """Wrap an already-parsed AST (used by the predicate parser)."""
        expression = cls.__new__(cls)
        expression._text = text
        expression._root = node
        expression._attributes = frozenset(node.attributes())
        return expression

    @property
    def text(self) -> str:
        """The original expression source."""
        return self._text

    @property
    def attributes(self) -> frozenset[str]:
        """Attribute names referenced by the expression."""
        return self._attributes

    def evaluate(self, row: Row) -> float:
        """Evaluate against one row (attribute name -> value)."""
        value = self._root.evaluate(row)
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            raise ExpressionError(
                f"expression {self._text!r} produced non-finite value {value}"
            )
        return float(value)

    def evaluate_columns(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation over equal-length column arrays."""
        missing = self._attributes - set(columns)
        if missing:
            raise ExpressionError(
                f"columns missing attributes {sorted(missing)} for {self._text!r}"
            )
        # an overflow or inf - inf surfaces as a non-finite value and is
        # rejected below, as evaluate() rejects it row by row
        with np.errstate(over="ignore", invalid="ignore"):
            result = np.asarray(
                self._evaluate_node_vectorized(self._root, columns), dtype=float
            )
        if not np.isfinite(result).all():
            raise ExpressionError(
                f"expression {self._text!r} produced non-finite values"
            )
        if result.ndim == 0:
            # constant expression: broadcast to the column length
            length = len(next(iter(columns.values()))) if columns else 1
            result = np.full(length, float(result))
        return result

    def _evaluate_node_vectorized(
        self, node: _Node, columns: Mapping[str, np.ndarray]
    ) -> np.ndarray | float:
        if isinstance(node, _Literal):
            return node.value
        if isinstance(node, _Attribute):
            return np.asarray(columns[node.name], dtype=float)
        if isinstance(node, _Unary):
            operand = self._evaluate_node_vectorized(node.operand, columns)
            return -operand if node.op == "-" else operand
        if isinstance(node, _Binary):
            left = self._evaluate_node_vectorized(node.left, columns)
            right = self._evaluate_node_vectorized(node.right, columns)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                with np.errstate(divide="raise", invalid="raise"):
                    try:
                        return left / right
                    except FloatingPointError:
                        raise ExpressionError(
                            f"division by zero in {self._text!r}"
                        ) from None
            if node.op == "**":
                with np.errstate(invalid="raise", over="raise"):
                    try:
                        return left**right
                    except FloatingPointError:
                        raise ExpressionError(
                            f"invalid power in {self._text!r}"
                        ) from None
        raise ExpressionError(f"unknown node type {type(node).__name__}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __repr__(self) -> str:
        return f"Expression({self._text!r})"
