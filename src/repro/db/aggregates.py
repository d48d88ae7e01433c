"""Aggregate operations and their sample-based estimators.

The query model covers ``op in {AVG, COUNT, SUM}`` applied to an arithmetic
expression (Section II). All three reduce to estimating a population mean
``Y-bar`` of per-tuple values ``y_i = expression(u_i)``:

* ``AVG``   -> ``Y-bar`` directly;
* ``SUM``   -> ``N * Y-bar`` where ``N = |R|``;
* ``COUNT`` -> ``N * P`` where ``P`` is the fraction of tuples whose
  expression value is non-zero (the indicator mean). With the constant
  expression ``1`` this is exactly the relation size ``N``.

``N`` is a property of the database; in a live deployment it is itself
estimated (see :mod:`repro.sampling.size_estimation`), while experiments
may use the oracle value. The scaling also maps the user's absolute error
``epsilon`` on the aggregate down to the error the mean estimator must
achieve (``epsilon / N`` for SUM/COUNT).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.relation import P2PDatabase
from repro.errors import QueryError


class AggregateOp(enum.Enum):
    """Aggregate operations supported by the query model."""

    AVG = "AVG"
    SUM = "SUM"
    COUNT = "COUNT"

    @classmethod
    def parse(cls, text: str) -> "AggregateOp":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(op.value for op in cls)
            raise QueryError(f"unknown aggregate {text!r}; expected one of {valid}")


def scale_factor(op: AggregateOp, population_size: int) -> float:
    """Multiplier from the mean of ``y_i`` to the aggregate value."""
    if op is AggregateOp.AVG:
        return 1.0
    if population_size < 0:
        raise QueryError(f"population size must be >= 0, got {population_size}")
    return float(population_size)


def estimate_from_mean(
    op: AggregateOp, mean_estimate: float, population_size: int
) -> float:
    """Aggregate estimate from a mean estimate (see module docstring)."""
    return mean_estimate * scale_factor(op, population_size)


def mean_error_budget(op: AggregateOp, epsilon: float, population_size: int) -> float:
    """Absolute error the *mean* estimator must meet for aggregate error ``epsilon``."""
    if epsilon < 0:
        raise QueryError(f"epsilon must be >= 0, got {epsilon}")
    scale = scale_factor(op, population_size)
    if scale == 0.0:
        # empty relation: any estimate of the (zero) aggregate is exact
        return float("inf")
    return epsilon / scale


def query_attributes(
    expression: Expression, predicate: Predicate | None
) -> list[str]:
    """The attributes ``op(expression) WHERE predicate`` reads, sorted."""
    names = set(expression.attributes)
    if predicate is not None:
        names |= predicate.attributes
    return sorted(names)


def tuple_values(
    op: AggregateOp,
    expression: Expression,
    predicate: Predicate | None,
    columns: Mapping[str, np.ndarray],
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tuple ``(y, indicator)`` arrays over ``size`` rows of ``columns``.

    ``columns`` holds at least :func:`query_attributes`; a constant
    expression needs none, so ``size`` fixes the row count.
    ``indicator`` is 1.0 where the tuple qualifies under ``predicate``
    (always 1.0 without one). ``y`` is the masked contribution:

    * AVG — ``expr * indicator``; the subpopulation mean is the *ratio*
      ``E[y] / E[indicator]`` (see :func:`ratio_estimate` in
      :mod:`repro.core.estimators`), reducing to the plain mean when no
      predicate is present;
    * SUM — ``expr * indicator`` (``SUM = N * E[y]``);
    * COUNT — ``indicator * (expr != 0)`` (``COUNT = N * E[y]``).
    """
    expressed = np.broadcast_to(expression.evaluate_columns(columns), size)
    if predicate is None:
        indicators = np.ones(size)
    else:
        indicators = np.broadcast_to(
            predicate.evaluate_columns(columns), size
        ).astype(float)
    if op is AggregateOp.COUNT:
        expressed = (expressed != 0.0).astype(float)
    return expressed * indicators, indicators


@dataclass(frozen=True)
class ValueSpec:
    """What a query reads of each sampled tuple: ``op(expression) WHERE predicate``.

    Equal specs read equal ``(y, indicator)`` values from the same tuples,
    so queries that differ only in precision share them (the sample pool
    keys its gathered columns on the spec).
    """

    op: AggregateOp
    expression: Expression
    predicate: Predicate | None = None

    @cached_property
    def attributes(self) -> list[str]:
        """The attributes the spec reads (:func:`query_attributes`)."""
        return query_attributes(self.expression, self.predicate)

    def values(
        self, database: P2PDatabase, tuple_ids: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`tuple_values` of live ``tuple_ids``, read with one gather."""
        columns = database.gather(self.attributes, tuple_ids)
        return tuple_values(
            self.op, self.expression, self.predicate, columns, len(tuple_ids)
        )


def exact_aggregate(
    database: P2PDatabase,
    op: AggregateOp,
    expression: Expression,
    predicate: Predicate | None = None,
) -> float:
    """Oracle aggregate over the full relation (used for error measurement)."""
    size = database.n_tuples
    values, indicators = tuple_values(
        op,
        expression,
        predicate,
        database.exact_columns(query_attributes(expression, predicate)),
        size,
    )
    if op is AggregateOp.AVG:
        qualifying = indicators != 0.0
        if not qualifying.any():
            raise QueryError(
                "AVG is undefined: no tuple satisfies the predicate"
                if predicate is not None
                else "AVG over an empty relation is undefined"
            )
        return float(values[qualifying].mean())
    if size == 0:
        return 0.0
    return estimate_from_mean(op, float(values.mean()), size)
