"""Tests for origin-side link health (repro.network.health)."""

from __future__ import annotations

import pytest

from repro.network.faults import FaultLog
from repro.network.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
)
from repro.obs.schema import EVENT_BREAKER_PROBE, EVENT_BREAKER_TRIP
from repro.obs.tracer import SinkTracer


class TestHealthConfigValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            HealthConfig(failure_threshold=0)

    def test_rejects_bad_cooldown(self):
        with pytest.raises(ValueError, match="cooldown"):
            HealthConfig(cooldown=0)

    def test_rejects_bad_detect_fraction(self):
        with pytest.raises(ValueError, match="detect_fraction"):
            HealthConfig(detect_fraction=0.0)

    def test_rejects_bad_score_decay(self):
        with pytest.raises(ValueError, match="score_decay"):
            HealthConfig(score_decay=1.0)


class TestCircuitBreaker:
    def _breaker(self, threshold: int = 3, cooldown: int = 10) -> CircuitBreaker:
        return CircuitBreaker(
            HealthConfig(failure_threshold=threshold, cooldown=cooldown)
        )

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = self._breaker(threshold=3)
        assert breaker.record_failure(0) is False
        assert breaker.record_failure(1) is False
        assert breaker.record_failure(2) is True
        assert breaker.state == OPEN
        assert breaker.admits(3) is None

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker(threshold=3)
        breaker.record_failure(0)
        breaker.record_failure(1)
        breaker.record_success(2)
        assert breaker.record_failure(3) is False
        assert breaker.state == CLOSED

    def test_cooldown_gates_the_probe(self):
        breaker = self._breaker(threshold=1, cooldown=10)
        breaker.record_failure(5)
        assert breaker.admits(6) is None
        assert breaker.admits(14) is None
        assert breaker.admits(15) == "probe"

    def test_successful_probe_closes(self):
        breaker = self._breaker(threshold=1, cooldown=5)
        breaker.record_failure(0)
        assert breaker.admits(5) == "probe"
        breaker.start_probe(5)
        assert breaker.state == HALF_OPEN
        # only one probe in flight at a time
        assert breaker.admits(5) is None
        breaker.record_success(7)
        assert breaker.state == CLOSED
        assert breaker.admits(8) == CLOSED

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = self._breaker(threshold=1, cooldown=5)
        breaker.record_failure(0)
        breaker.start_probe(5)
        assert breaker.record_failure(6) is False  # not a fresh trip
        assert breaker.state == OPEN
        assert breaker.admits(10) is None  # cooldown restarted at t=6
        assert breaker.admits(11) == "probe"


class TestHealthMonitor:
    def _monitor(self, **kwargs: object) -> HealthMonitor:
        config = HealthConfig(
            failure_threshold=2, cooldown=5, detect_fraction=0.5
        )
        return HealthMonitor(config=config, **kwargs)  # type: ignore[arg-type]

    def test_admitted_preserves_neighbor_order(self):
        monitor = self._monitor()
        admitted, probes = monitor.admitted(0, [3, 1, 2], time=0)
        assert admitted == [3, 1, 2]
        assert probes == set()

    def test_tripped_neighbor_is_suppressed(self):
        monitor = self._monitor()
        for time in range(2):
            monitor.record_outcome(0, 1, ok=False, time=time, n_neighbors=3)
        admitted, _ = monitor.admitted(0, [1, 2, 3], time=2)
        assert admitted == [2, 3]
        assert monitor.trips == 1

    def test_cooled_breaker_reappears_as_probe(self):
        monitor = self._monitor()
        for time in range(2):
            monitor.record_outcome(0, 1, ok=False, time=time, n_neighbors=3)
        admitted, probes = monitor.admitted(0, [1, 2], time=1 + 5)
        assert admitted == [1, 2]
        assert probes == {1}

    def test_score_is_ewma_of_outcomes(self):
        monitor = self._monitor()
        assert monitor.score(0, 1) == 1.0
        monitor.record_outcome(0, 1, ok=False, time=0)
        first = monitor.score(0, 1)
        assert first == pytest.approx(0.8)
        monitor.record_outcome(0, 1, ok=True, time=1)
        assert monitor.score(0, 1) == pytest.approx(0.8 * first + 0.2)

    def test_health_is_per_origin(self):
        monitor = self._monitor()
        for time in range(2):
            monitor.record_outcome(0, 1, ok=False, time=time)
        # origin 5's view of neighbor 1 is untouched
        admitted, _ = monitor.admitted(5, [1], time=2)
        assert admitted == [1]

    def test_partition_suspected_and_cleared(self):
        log = FaultLog()
        monitor = self._monitor(fault_log=log)
        # two of three first-hop links die -> fraction 2/3 >= 0.5
        for neighbor in (1, 2):
            for time in range(2):
                monitor.record_outcome(
                    0, neighbor, ok=False, time=time, n_neighbors=3
                )
        assert monitor.partition_suspected(0)
        assert log.counts()["partition_suspected"] == 1
        # recoveries close the breakers and clear the suspicion
        monitor.record_outcome(0, 1, ok=True, time=10, n_neighbors=3)
        monitor.record_outcome(0, 2, ok=True, time=10, n_neighbors=3)
        assert not monitor.partition_suspected(0)
        assert log.counts()["partition_cleared"] == 1

    def test_open_fraction_uses_neighbor_count_when_given(self):
        monitor = self._monitor()
        for time in range(2):
            monitor.record_outcome(0, 1, ok=False, time=time, n_neighbors=8)
        assert monitor.open_fraction(0, 8) == pytest.approx(1 / 8)
        # without a count it falls back to tracked links only
        assert monitor.open_fraction(0) == pytest.approx(1.0)

    def test_trip_and_probe_emit_trace_events(self):
        tracer = SinkTracer(record=True)
        monitor = self._monitor(tracer=tracer)
        for time in range(2):
            monitor.record_outcome(0, 1, ok=False, time=time, n_neighbors=3)
        monitor.start_probe(0, 1, time=7)
        names = [event.name for event in tracer.trace().events]
        assert names.count(EVENT_BREAKER_TRIP) == 1
        assert names.count(EVENT_BREAKER_PROBE) == 1
        assert monitor.probes == 1
