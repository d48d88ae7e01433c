"""The multi-query smoke's coverage gate (``multi_query.main``)."""

import pytest

from repro.experiments import multi_query
from repro.obs.audit import Coverage


def _result(within):
    return multi_query.MultiQueryResult(
        dataset="temperature",
        n_queries=1,
        steps=15,
        confidence=0.95,
        shared_messages=10,
        solo_messages=20,
        pool_hits=0,
        pool_misses=0,
        batches_coalesced=0,
        outcomes=[
            multi_query.QueryOutcome(
                query_id="q0",
                epsilon=1.0,
                audit=Coverage(answers=15, within=within, trials=15),
                samples=0,
                pool_hits=0,
            )
        ],
    )


@pytest.mark.parametrize("within", [11, 15])
def test_main_passes_while_the_upper_bound_reaches_p(monkeypatch, within):
    monkeypatch.setattr(multi_query, "run", lambda **_: _result(within))
    assert multi_query.main([]) == 0


def test_main_exits_nonzero_when_a_query_undercovers(monkeypatch, capsys):
    # 10 of 15 within: the Clopper-Pearson upper bound is 0.944 < 0.95
    monkeypatch.setattr(multi_query, "run", lambda **_: _result(10))
    assert multi_query.main([]) == 1
    assert "coverage upper bound below p: q0" in capsys.readouterr().out
