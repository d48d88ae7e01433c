"""The one sequential stopping rule, :func:`sequential_sample`.

Driven by a fake ``draw`` (which records what it was asked for) and a fake
``fit``, so each test pins one clause of the rule: the top-up size, the
two ways to stop degraded, the doubling while no estimate exists, and the
size guard. The last test runs the same draws through both evaluator fits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.independent import (
    MAX_ROUNDS,
    MAX_SAMPLE_SIZE,
    IndependentEvaluator,
    sequential_sample,
)
from repro.core.query import Query
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError


class _Draws:
    """A fake ``draw``: delivers ``k`` entries (or nothing) and records ``k``."""

    def __init__(self, deliver: bool = True) -> None:
        self.asked: list[int] = []
        self._deliver = deliver

    def __call__(self, k: int) -> tuple[np.ndarray, ...]:
        self.asked.append(k)
        return (np.zeros(k if self._deliver else 0),)


def _constant_rate(rate: float):
    """A fake mean fit: each entry carries variance ``rate``."""

    def fit(sample):
        return 0.0, rate / sample[0].size, rate

    return fit


def _pilot(n: int = 30) -> tuple[np.ndarray, ...]:
    return (np.zeros(n),)


def test_one_round_tops_up_to_the_eq6_size():
    rate, target = 47.0, 1.01  # ceil(rate / target) = 47
    draws = _Draws()
    sample, (_, variance, _), degraded = sequential_sample(
        _pilot(30), draws, _constant_rate(rate), target
    )
    assert draws.asked == [math.ceil(rate / target) - 30] == [17]
    assert sample[0].size == 47
    assert variance <= target
    assert not degraded


def test_met_target_draws_nothing():
    draws = _Draws()
    _, _, degraded = sequential_sample(
        _pilot(30), draws, _constant_rate(3.0), target=1.0
    )
    assert draws.asked == []
    assert not degraded


def test_a_draw_that_delivers_nothing_degrades():
    draws = _Draws(deliver=False)
    sample, (_, variance, _), degraded = sequential_sample(
        _pilot(30), draws, _constant_rate(60.0), target=1.0
    )
    assert draws.asked == [30]
    assert sample[0].size == 30
    assert variance > 1.0
    assert degraded


def test_exhausted_rounds_above_target_degrade():
    """A fit whose variance never falls stops after MAX_ROUNDS draws."""
    draws = _Draws()

    def stubborn(sample):
        return 0.0, 2.0, 2.0 * sample[0].size

    sample, _, degraded = sequential_sample(_pilot(30), draws, stubborn, 1.0)
    assert len(draws.asked) == MAX_ROUNDS
    assert sample[0].size == 30 + sum(draws.asked)
    assert degraded


def test_no_estimate_doubles_the_sample_then_raises():
    draws = _Draws()
    with pytest.raises(QueryError, match="satisfies the predicate"):
        sequential_sample(_pilot(30), draws, lambda sample: None, 1.0)
    assert draws.asked == [30, 60, 120, 240]


def test_no_estimate_doubles_until_one_exists():
    draws = _Draws()

    def late(sample):
        return None if sample[0].size < 60 else (0.0, 0.5, 0.5 * sample[0].size)

    sample, _, degraded = sequential_sample(_pilot(30), draws, late, 1.0)
    assert draws.asked == [30]
    assert sample[0].size == 60
    assert not degraded


def test_a_top_up_beyond_the_maximum_raises():
    draws = _Draws()
    with pytest.raises(QueryError, match="exceeds"):
        sequential_sample(
            _pilot(30), draws, _constant_rate(2.0 * MAX_SAMPLE_SIZE), 1.0
        )
    assert draws.asked == []


class _Scripted:
    """A sample source handing out a fixed tuple-id sequence in order."""

    def __init__(self, tuple_ids: np.ndarray) -> None:
        self._ids = tuple_ids
        self._cursor = 0

    def sample_values(self, database, spec, n, origin, allow_partial=False):
        drawn = self._ids[self._cursor : self._cursor + n]
        self._cursor += n
        return (drawn, *spec.values(database, drawn))

    def sample_nodes(self, weight, n, origin):
        raise AssertionError("the evaluators draw tuples only")


def test_mean_and_ratio_fits_agree_on_degraded():
    """Same draws, same variance target: SUM and AVG flag the same answer.

    The values spread further with every draw, so the variance still
    misses the target after the last top-up (30+6+5+5+5 draws). A rule
    that judged SUM against the size it computed before that last top-up
    called its answer undegraded while the AVG answer was degraded.
    """
    database = P2PDatabase(Schema(("v",)), [0])
    tuple_ids = np.array(
        [database.insert(0, {"v": (-1.0) ** i * (1 + i / 30)}) for i in range(100)],
        dtype=np.int64,
    )
    results = {}
    for op in (AggregateOp.AVG, AggregateOp.SUM):
        evaluator = IndependentEvaluator(
            database,
            _Scripted(tuple_ids),
            0,
            Query(op, Expression("v")),
            # N = 1, so SUM's mean-level budget equals AVG's
            population_size_provider=lambda: 1,
        )
        results[op] = evaluator.evaluate(0, epsilon=0.5, confidence=0.95)
    avg, total = results[AggregateOp.AVG], results[AggregateOp.SUM]
    assert avg.n_total == total.n_total == 51
    assert avg.degraded and total.degraded
