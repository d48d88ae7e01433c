"""Seed-for-seed backward compatibility of the single-query engine.

A one-query :class:`~repro.core.session.DigestSession` is how a single
continuous query runs, and it must reproduce the *exact* estimate
sequence the pre-session single-query implementation produced for the
same seeds. The AVG sequences below were first captured from the
pre-session implementation and last regenerated when the walk kernel
began drawing each agent's lazy steps as one binomial step budget (and
continued and fresh agents began sharing one kernel call); that change
was the only difference. The canonical query is an AVG, so those two
pin the ratio estimator and repeated sampling; the SUM sequence pins the
sample-mean path of independent sampling, captured from that same kernel
before the three Eq. 6 top-up loops became one stopping rule. They pin
every RNG-visible quantity: estimate values to full float precision,
sample counts, the retained/fresh split, and the total message cost.

If an intentional change to the sampling path ever invalidates these
numbers, regenerate them from a tree where the change is the *only*
difference — never adjust them to make a refactor pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import AggregateOp
from repro.experiments.harness import build_instance, canonical_query, pick_origin

# (time, aggregate, n_total, n_fresh, n_retained) per executed snapshot,
# then the exact end-of-run ledger total.
PINNED: dict[tuple[str, str], tuple[list[tuple[int, float, int, int, int]], int]] = {
    ("all", "independent"): (
        [
            (0, 57.702053921366755, 53, 53, 0),
            (1, 57.38525561960171, 56, 56, 0),
            (2, 57.38527510013433, 81, 81, 0),
            (3, 58.93825803022051, 38, 38, 0),
            (4, 61.80716341432101, 65, 65, 0),
            (5, 59.70412724661295, 52, 52, 0),
            (6, 60.23563941246465, 42, 42, 0),
            (7, 59.18111093876467, 54, 54, 0),
            (8, 60.266126930381766, 35, 35, 0),
            (9, 58.876760496966405, 30, 30, 0),
        ],
        8468,
    ),
    ("pred", "repeated"): (
        [
            (0, 57.702053921366755, 53, 53, 0),
            (1, 56.74859709220525, 52, 26, 26),
            (2, 58.228811978164856, 50, 24, 26),
            (3, 60.36785229749366, 69, 62, 7),
            (4, 60.57560249254096, 69, 41, 28),
            (5, 59.595294935078485, 64, 28, 36),
            (9, 59.76123392405091, 62, 41, 21),
        ],
        4972,
    ),
}

# SELECT SUM(...) under ALL/INDEP: the sample mean scaled by N = 400
PINNED_SUM: tuple[list[tuple[int, float, int, int, int]], int] = (
    [
        (0, 23080.8215685467, 53, 53, 0),
        (1, 22954.10224784068, 56, 56, 0),
        (2, 22954.110040053733, 81, 81, 0),
        (3, 23575.303212088205, 38, 38, 0),
        (4, 24722.865365728405, 65, 65, 0),
        (5, 23881.65089864518, 52, 52, 0),
        (6, 24094.25576498586, 42, 42, 0),
        (7, 23672.444375505867, 54, 54, 0),
        (8, 24106.450772152708, 35, 35, 0),
        (9, 23550.704198786563, 30, 30, 0),
    ],
    8468,
)


def _run(scheduler: str, evaluator: str, op: AggregateOp = AggregateOp.AVG):
    instance = build_instance("temperature", 0.05, seed=7)
    sigma = instance.config.expected_sigma
    # SUM's precision is in aggregate units: N times the AVG budget
    scale = instance.database.n_tuples if op is AggregateOp.SUM else 1
    precision = Precision(
        delta=sigma * scale, epsilon=0.25 * sigma * scale, confidence=0.95
    )
    session = DigestSession(
        instance.graph,
        instance.database,
        pick_origin(instance, 7),
        np.random.default_rng(11),
    )
    query = canonical_query(instance, precision, duration=10)
    if op is not AggregateOp.AVG:
        query = ContinuousQuery(
            query=Query(op=op, expression=instance.expression),
            precision=precision,
            start_time=0,
            duration=10,
        )
    session.add_query(
        query, config=EngineConfig(scheduler=scheduler, evaluator=evaluator)
    )
    rows = []
    for t in range(10):
        instance.step(t)
        for estimate in session.step(t).values():
            rows.append(
                (
                    t,
                    estimate.aggregate,
                    estimate.n_total,
                    estimate.n_fresh,
                    estimate.n_retained,
                )
            )
    return rows, session


@pytest.mark.parametrize("scheduler,evaluator", sorted(PINNED))
def test_single_query_engine_is_seed_identical(scheduler, evaluator):
    expected_rows, expected_messages = PINNED[(scheduler, evaluator)]
    rows, session = _run(scheduler, evaluator)
    assert [r[0] for r in rows] == [r[0] for r in expected_rows]
    for got, want in zip(rows, expected_rows):
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=0, abs=0), (
            f"t={got[0]}: estimate {got[1]!r} != pinned {want[1]!r}"
        )
        assert got[2:] == want[2:]
    assert session.ledger.total == expected_messages



def test_sum_query_engine_is_seed_identical():
    expected_rows, expected_messages = PINNED_SUM
    rows, session = _run("all", "independent", AggregateOp.SUM)
    assert rows == expected_rows
    assert session.ledger.total == expected_messages
