"""Seed-for-seed backward compatibility of the single-query engine.

A one-query :class:`~repro.core.session.DigestSession` is how a single
continuous query runs, and it must reproduce the *exact* estimate
sequence the pre-session single-query implementation produced for the
same seeds. The sequences below were captured from the pre-session
implementation (PR 3 tree) and pin every RNG-visible quantity: estimate
values to full float precision, sample counts, the retained/fresh split,
and the total message cost.

If an intentional change to the sampling path ever invalidates these
numbers, regenerate them from a tree where the change is the *only*
difference — never adjust them to make a refactor pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import Precision
from repro.core.session import DigestSession, EngineConfig
from repro.experiments.harness import build_instance, canonical_query, pick_origin

# (time, aggregate, n_total, n_fresh, n_retained) per executed snapshot,
# then the exact end-of-run ledger total.
PINNED: dict[tuple[str, str], tuple[list[tuple[int, float, int, int, int]], int]] = {
    ("all", "independent"): (
        [
            (0, 59.85762873152588, 66, 66, 0),
            (1, 57.079478529458385, 44, 44, 0),
            (2, 59.09101203991841, 38, 38, 0),
            (3, 61.2770508972398, 39, 39, 0),
            (4, 60.978443892112246, 82, 82, 0),
            (5, 59.71299828802033, 54, 54, 0),
            (6, 58.70292489523112, 47, 47, 0),
            (7, 59.73017005842847, 30, 30, 0),
            (8, 61.34978784843177, 80, 80, 0),
            (9, 60.22612212918386, 51, 51, 0),
        ],
        9066,
    ),
    ("pred", "repeated"): (
        [
            (0, 59.85762873152588, 66, 66, 0),
            (1, 57.76111063073685, 57, 29, 28),
            (2, 60.44417649098282, 42, 15, 27),
            (3, 61.015387485691384, 45, 20, 25),
            (4, 60.11768251463264, 31, 10, 21),
            (5, 58.6073248518972, 35, 17, 18),
            (8, 61.159213081111815, 30, 15, 15),
        ],
        2722,
    ),
}


def _run(scheduler: str, evaluator: str):
    instance = build_instance("temperature", 0.05, seed=7)
    sigma = instance.config.expected_sigma
    precision = Precision(delta=sigma, epsilon=0.25 * sigma, confidence=0.95)
    session = DigestSession(
        instance.graph,
        instance.database,
        pick_origin(instance, 7),
        np.random.default_rng(11),
    )
    session.add_query(
        canonical_query(instance, precision, duration=10),
        config=EngineConfig(scheduler=scheduler, evaluator=evaluator),
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
