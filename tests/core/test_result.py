"""Tests for the running result with hold semantics."""

import numpy as np
import pytest

from repro.core.result import RunningResult, UpdateRecord
from repro.errors import QueryError


@pytest.fixture
def result():
    r = RunningResult()
    r.update(UpdateRecord(time=2, estimate=10.0, n_samples=30))
    r.update(UpdateRecord(time=5, estimate=20.0, n_samples=40))
    return r


def test_hold_semantics(result):
    assert result.value_at(2) == pytest.approx(10.0, rel=1e-12)
    assert result.value_at(3) == pytest.approx(10.0, rel=1e-12)
    assert result.value_at(4) == pytest.approx(10.0, rel=1e-12)
    assert result.value_at(5) == pytest.approx(20.0, rel=1e-12)
    assert result.value_at(100) == pytest.approx(20.0, rel=1e-12)


def test_before_first_update_rejected(result):
    with pytest.raises(QueryError):
        result.value_at(1)


def test_times_must_increase(result):
    with pytest.raises(QueryError):
        result.update(UpdateRecord(time=5, estimate=1.0))
    with pytest.raises(QueryError):
        result.update(UpdateRecord(time=4, estimate=1.0))


def test_trajectory(result):
    np.testing.assert_allclose(
        result.trajectory([2, 3, 5, 6]), [10.0, 10.0, 20.0, 20.0]
    )


def test_accessors(result):
    assert len(result) == 2
    assert result.update_times == [2, 5]
    assert result.last().estimate == pytest.approx(20.0, rel=1e-12)
    assert result.updates[0].n_samples == 30


def test_empty_last_rejected():
    with pytest.raises(QueryError):
        RunningResult().last()
