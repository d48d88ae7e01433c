"""Tests for the live streaming pipeline (repro.obs.live)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.obs.analysis import counter_dict, verify_trace_consistency
from repro.obs.live import (
    META_FINISHED_AT,
    LivePipeline,
    WindowConfig,
    WindowStats,
    feed_trace,
)
from repro.obs.schema import (
    EVENT_ALERT_FIRING,
    EVENT_BREAKER_CLOSE,
    EVENT_BREAKER_TRIP,
    EVENT_FAULT,
    EVENT_MESSAGE,
    EVENT_PROBE,
    SPAN_SNAPSHOT_QUERY,
    SPAN_WALK,
)
from repro.obs.tracer import RunMetricsSink, SinkTracer
from repro.sim.metrics import RunMetrics


def _walk_span(tracer, start, end, outcome="ok", attempts=1, events=()):
    span = tracer.span(
        SPAN_WALK,
        time=start,
        walker_id=1,
        origin=0,
        walk_length=end - start,
    )
    for time, name, attrs in events:
        span.add_event(time, name, **attrs)
    tracer.end(span, time=end, outcome=outcome, attempts=attempts)
    return span


class TestWindowConfig:
    def test_rejects_bad_width(self):
        with pytest.raises(QueryError):
            WindowConfig(width=0)

    def test_rejects_bad_slide(self):
        with pytest.raises(QueryError):
            WindowConfig(slide=0)

    def test_rejects_history_below_slide(self):
        with pytest.raises(QueryError):
            WindowConfig(slide=8, history=4)


class TestWindowing:
    def test_tumbling_window_closes_on_boundary(self):
        pipeline = LivePipeline(WindowConfig(width=10, slide=2))
        tracer = SinkTracer(sinks=[pipeline])
        _walk_span(tracer, 0, 3)
        _walk_span(tracer, 4, 8)
        assert len(pipeline.windows) == 0  # first window still open
        _walk_span(tracer, 10, 12)  # crosses the boundary
        assert len(pipeline.windows) == 1
        window = pipeline.windows[0]
        assert (window.start, window.end) == (0, 10)
        assert window.walks == 2
        assert window.walk_latency_sum == 3 + 4
        assert window.walk_latency_max == 4

    def test_gap_emits_empty_windows(self):
        pipeline = LivePipeline(WindowConfig(width=10, slide=2))
        tracer = SinkTracer(sinks=[pipeline])
        _walk_span(tracer, 0, 1)
        _walk_span(tracer, 35, 36)  # three window boundaries later
        assert [w.walks for w in pipeline.windows] == [1, 0, 0]

    def test_untimed_records_dropped(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])  # no clock: records get -1
        span = tracer.span(SPAN_WALK, walker_id=1, origin=0, walk_length=5)
        tracer.end(span, outcome="ok", attempts=1)
        tracer.event(EVENT_FAULT, kind="x", walker_id=0, node=0, detail="")
        assert pipeline.records_dropped == 2
        assert pipeline.records_seen == 0

    def test_finish_closes_partial_window(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])
        _walk_span(tracer, 0, 4)
        pipeline.finish(7)
        assert len(pipeline.windows) == 1
        window = pipeline.windows[0]
        assert window.partial
        assert (window.start, window.end) == (0, 7)
        # idempotent: a second finish must not close anything else
        pipeline.finish(9)
        assert len(pipeline.windows) == 1

    def test_history_is_bounded(self):
        pipeline = LivePipeline(WindowConfig(width=1, slide=1, history=4))
        tracer = SinkTracer(sinks=[pipeline])
        for tick in range(20):
            _walk_span(tracer, tick, tick)
        assert len(pipeline.windows) == 4


class TestAccumulation:
    def test_walk_failures_and_message_categories(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])
        _walk_span(
            tracer,
            0,
            5,
            outcome="failed",
            events=[
                (1, EVENT_MESSAGE, {"category": "walk", "to_node": 2}),
                (2, EVENT_MESSAGE, {"category": "retry", "to_node": 3}),
                (3, EVENT_PROBE, {"node": 4, "probes": 1, "messages": 2}),
            ],
        )
        pipeline.finish(5)
        window = pipeline.windows[0]
        assert window.walks_failed == 1
        assert window.messages == {"walk_steps": 1, "retries": 1, "control": 2}
        assert window.signals()["walk_failure_fraction"] == 1.0

    def test_pool_and_snapshot_accumulation(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])
        span = tracer.span(SPAN_SNAPSHOT_QUERY, time=2, query="q0")
        tracer.end(span, time=2, degraded=True, n_hit=3, n_miss=1)
        span = tracer.span(SPAN_SNAPSHOT_QUERY, time=3, query="q1")
        tracer.end(span, time=3, degraded=False)
        pipeline.finish(4)
        signals = pipeline.windows[0].signals()
        assert signals["pool_hit_ratio"] == 0.75
        assert signals["snapshot_count"] == 2.0
        assert signals["degraded_fraction"] == 0.5

    def test_fault_and_breaker_events(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])
        tracer.event(
            EVENT_FAULT, time=1, kind="message_loss", walker_id=1, node=2, detail=""
        )
        tracer.event(EVENT_BREAKER_TRIP, time=2, origin=0, neighbor=1, failures=3)
        tracer.event(EVENT_BREAKER_TRIP, time=2, origin=0, neighbor=2, failures=3)
        tracer.event(EVENT_BREAKER_CLOSE, time=3, origin=0, neighbor=1)
        pipeline.finish(4)
        window = pipeline.windows[0]
        assert window.faults == 1
        assert window.breaker_trips == 2
        assert window.breaker_closes == 1
        assert window.breaker_open_fraction == 0.5
        assert window.breaker_open_by_origin == {0: 0.5}

    def test_alert_events_are_not_input(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(sinks=[pipeline])
        tracer.event(
            EVENT_ALERT_FIRING,
            time=1,
            rule="r",
            kind="threshold",
            signal="s",
            value=1.0,
            threshold=0.0,
        )
        assert pipeline.records_seen == 0
        assert pipeline.records_dropped == 0


class TestSliding:
    def test_sliding_merges_recent_windows(self):
        pipeline = LivePipeline(WindowConfig(width=10, slide=2))
        tracer = SinkTracer(sinks=[pipeline])
        _walk_span(tracer, 0, 5, outcome="failed")
        _walk_span(tracer, 11, 13)
        _walk_span(tracer, 14, 16)
        pipeline.finish(20)
        merged = pipeline.sliding()
        assert merged is not None
        assert merged.walks == 3
        assert merged.walks_failed == 1
        assert merged.signals()["walk_failure_fraction"] == pytest.approx(1 / 3)

    def test_sliding_none_without_windows(self):
        assert LivePipeline(WindowConfig(width=10)).sliding() is None

    def test_merge_keeps_latest_state_snapshots(self):
        early = WindowStats(start=0, end=10, breaker_open_fraction=0.8)
        late = WindowStats(start=10, end=20, breaker_open_fraction=0.2)
        late.extra["audit_burn_rate"] = 3.0
        early.merge(late)
        assert early.breaker_open_fraction == 0.2
        assert early.extra == {"audit_burn_rate": 3.0}


class TestReplay:
    def test_feed_trace_reproduces_live_windows(self):
        config = WindowConfig(width=10, slide=2)
        live = LivePipeline(config)
        tracer = SinkTracer(record=True, sinks=[live])
        _walk_span(
            tracer,
            0,
            5,
            outcome="failed",
            events=[(1, EVENT_MESSAGE, {"category": "walk", "to_node": 2})],
        )
        tracer.event(
            EVENT_FAULT, time=7, kind="message_loss", walker_id=1, node=2, detail=""
        )
        _walk_span(tracer, 12, 15)
        tracer.meta[META_FINISHED_AT] = 15
        live.finish(15)

        replayed = feed_trace(LivePipeline(config), tracer.trace())
        assert len(replayed.windows) == len(live.windows)
        for live_window, replay_window in zip(live.windows, replayed.windows):
            assert live_window.signals() == replay_window.signals()
            assert live_window.partial == replay_window.partial


# -- satellite: sink fan-out must be order-insensitive -----------------

_OUTCOMES = st.sampled_from(["ok", "failed", "lost"])

_WALKS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 10), _OUTCOMES, st.integers(1, 3)),
    max_size=12,
)

_FAULT_TIMES = st.lists(st.integers(0, 50), max_size=8)


def _emit_stream(tracer, walks, fault_times):
    """One deterministic record stream (same inputs → same records)."""
    for start, duration, outcome, attempts in walks:
        _walk_span(tracer, start, start + duration, outcome, attempts)
    for time in fault_times:
        tracer.event(
            EVENT_FAULT, time=time, kind="message_loss", walker_id=0, node=1, detail=""
        )


@settings(max_examples=40, deadline=None)
@given(walks=_WALKS, fault_times=_FAULT_TIMES)
def test_sink_order_does_not_affect_counters_or_windows(walks, fault_times):
    """RunMetricsSink and LivePipeline must commute inside the fan-out.

    The same stream through ``[counters, pipeline]`` and ``[pipeline,
    counters]`` must produce identical counters and identical windows,
    and the replayed-counter consistency check must hold for both
    recorded traces.
    """
    config = WindowConfig(width=10, slide=2)
    results = []
    for reverse in (False, True):
        metrics = RunMetrics()
        pipeline = LivePipeline(config)
        sinks = [RunMetricsSink(metrics), pipeline]
        if reverse:
            sinks.reverse()
        tracer = SinkTracer(record=True, sinks=sinks)
        _emit_stream(tracer, walks, fault_times)
        pipeline.finish(60)
        tracer.meta[META_FINISHED_AT] = 60
        assert verify_trace_consistency(tracer.trace(), metrics) == []
        results.append(
            (counter_dict(metrics), [w.signals() for w in pipeline.windows])
        )
    assert results[0] == results[1]
