"""Tests for metric collection."""

import pytest

from repro.sim.metrics import MetricSeries, RunMetrics


class TestMetricSeries:
    def test_record_and_read(self):
        series = MetricSeries("x")
        series.record(0, 1.0)
        series.record(2, 3.0)
        assert len(series) == 2
        assert series.times.tolist() == [0, 2]
        assert series.values.tolist() == [1.0, 3.0]
        assert series.last() == 3.0
        assert series.mean() == 2.0
        assert series.total() == 4.0

    def test_rejects_decreasing_times(self):
        series = MetricSeries("x")
        series.record(5, 1.0)
        with pytest.raises(ValueError):
            series.record(4, 1.0)

    def test_same_time_allowed(self):
        series = MetricSeries("x")
        series.record(5, 1.0)
        series.record(5, 2.0)
        assert len(series) == 2

    def test_empty_reads_rejected(self):
        # all three accessors agree: reading an empty series is an error
        series = MetricSeries("x")
        with pytest.raises(ValueError):
            series.last()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.total()


class TestRunMetrics:
    def test_lazy_series_creation(self):
        metrics = RunMetrics()
        assert not metrics.has_series("estimate")
        metrics.series("estimate").record(0, 1.0)
        assert metrics.has_series("estimate")
        assert metrics.series_names() == ["estimate"]
