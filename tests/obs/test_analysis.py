"""Tests for post-hoc trace analysis (repro.obs.analysis)."""

import pytest

from repro.obs.analysis import (
    COUNTER_FIELDS,
    alert_timeline,
    counter_dict,
    degraded_timeline,
    fault_timeline,
    folded_stacks,
    message_attribution,
    run_metrics_from_trace,
    shared_walk_attribution,
    trigger_breakdown,
    verify_trace_consistency,
    walk_latency_histogram,
    walk_outcomes,
)
from repro.obs.tracer import (
    RunMetricsSink,
    SinkTracer,
    Span,
    Trace,
    TraceEvent,
)
from repro.sim.metrics import RunMetrics


def _traced_run() -> tuple[SinkTracer, RunMetrics]:
    """A hand-built trace exercising every counter, with a live sink."""
    metrics = RunMetrics()
    tracer = SinkTracer(record=True, sinks=[RunMetricsSink(metrics)])

    completed = tracer.span("walk", time=0, walker_id=0)
    tracer.event("message", time=0, span=completed, category="walk")
    tracer.event("hop", time=1, span=completed, node=2)
    tracer.event("message", time=1, span=completed, category="return")
    tracer.event("probe", time=1, span=completed, node=2, messages=2)
    tracer.end(completed, time=6, outcome="completed", attempts=2)

    failed = tracer.span("walk", time=2, walker_id=1)
    tracer.event("message", time=2, span=failed, category="retry")
    tracer.end(failed, time=40, outcome="failed", attempts=3)

    query = tracer.span("snapshot_query", time=50, trigger="periodic")
    tracer.end(
        query,
        time=50,
        n_total=8,
        n_fresh=5,
        n_retained=3,
        degraded=True,
    )

    tracer.event("fault", time=3, kind="message_loss")
    tracer.event("fault", time=1, kind="node_crash")
    tracer.event("advertisement", time=0, to_node=1, source=0)
    return tracer, metrics


class TestCounterReplay:
    def test_replay_equals_live_sink(self):
        tracer, live = _traced_run()
        replayed = run_metrics_from_trace(tracer.trace())
        assert counter_dict(replayed) == counter_dict(live)
        assert verify_trace_consistency(tracer.trace(), live) == []

    def test_replayed_counters_have_expected_values(self):
        tracer, _ = _traced_run()
        counters = counter_dict(run_metrics_from_trace(tracer.trace()))
        assert counters == {
            "snapshot_queries": 1,
            "samples_total": 8,
            "samples_fresh": 5,
            "samples_retained": 3,
            "walks_retried": 3,  # (2-1) + (3-1)
            "walks_failed": 1,
            "faults_injected": 2,
            "degraded_estimates": 1,
            "pool_hits": 0,
            "pool_misses": 0,
            "alerts_fired": 0,
            "alerts_resolved": 0,
        }

    def test_mismatch_is_reported_per_counter(self):
        tracer, live = _traced_run()
        live.walks_failed += 1
        live.faults_injected += 2
        mismatches = verify_trace_consistency(tracer.trace(), live)
        assert mismatches == [
            "walks_failed: trace=1 live=2",
            "faults_injected: trace=2 live=4",
        ]

    def test_counter_dict_has_fixed_field_order(self):
        assert tuple(counter_dict(RunMetrics())) == COUNTER_FIELDS


class TestAttribution:
    def test_message_attribution_buckets_by_category(self):
        tracer, _ = _traced_run()
        attribution = message_attribution(tracer.trace())
        assert attribution == {
            "walk_steps": 1,
            "sample_returns": 1,
            "retries": 1,
            "probes": 2,
            "advertisements": 1,
            "control": 3,
            "total": 6,
        }

    def test_walk_outcomes(self):
        tracer, _ = _traced_run()
        assert walk_outcomes(tracer.trace()) == {"completed": 1, "failed": 1}

    def test_walk_latency_histogram_observes_finished_walks(self):
        tracer, _ = _traced_run()
        histogram = walk_latency_histogram(tracer.trace())
        assert histogram.count == 2
        assert histogram.total == 6 + 38
        assert histogram.mean() == 22.0


class TestTimelines:
    def test_fault_timeline_is_time_ordered(self):
        tracer, _ = _traced_run()
        timeline = fault_timeline(tracer.trace())
        assert [event.attrs["kind"] for event in timeline] == [
            "node_crash",
            "message_loss",
        ]

    def test_degraded_timeline_selects_degraded_queries(self):
        tracer, _ = _traced_run()
        degraded = degraded_timeline(tracer.trace())
        assert [span.name for span in degraded] == ["snapshot_query"]

    def test_trigger_breakdown(self):
        tracer, _ = _traced_run()
        assert trigger_breakdown(tracer.trace()) == {"periodic": 1}


class TestFoldedStacks:
    def _nested_trace(self):
        tracer = SinkTracer(record=True)
        cell = tracer.span("fault_cell", time=0)
        walk = tracer.span("walk", time=0, parent=cell)
        tracer.end(walk, time=30)
        tracer.end(cell, time=100)
        lone = tracer.span("walk", time=0)
        tracer.end(lone, time=10)
        return tracer.trace()

    def test_time_weight_books_self_time(self):
        stacks = folded_stacks(self._nested_trace(), weight="time")
        # the cell's 100 ticks minus the 30 spent in its child walk
        assert stacks == {
            "fault_cell": 70,
            "fault_cell;walk": 30,
            "walk": 10,
        }

    def test_count_weight_counts_spans(self):
        stacks = folded_stacks(self._nested_trace(), weight="count")
        assert stacks == {
            "fault_cell": 1,
            "fault_cell;walk": 1,
            "walk": 1,
        }

    def test_self_time_is_clamped_at_zero(self):
        tracer = SinkTracer(record=True)
        parent = tracer.span("outer", time=0)
        child = tracer.span("inner", time=0, parent=parent)
        tracer.end(child, time=50)
        tracer.end(parent, time=10)  # children outlast the parent interval
        stacks = folded_stacks(tracer.trace(), weight="time")
        assert stacks["outer"] == 0

    def test_unknown_weight_raises(self):
        with pytest.raises(ValueError):
            folded_stacks(SinkTracer(record=True).trace(), weight="bytes")


class TestDegenerateTraces:
    """Truncated and empty traces must analyze cleanly, never crash."""

    def test_empty_trace_replays_to_zero_counters(self):
        replayed = run_metrics_from_trace(Trace())
        assert all(v == 0 for v in counter_dict(replayed).values())
        assert verify_trace_consistency(Trace(), RunMetrics()) == []

    def test_empty_trace_analyses_are_empty(self):
        trace = Trace()
        assert all(v == 0 for v in message_attribution(trace).values())
        assert shared_walk_attribution(trace) == {}
        assert walk_outcomes(trace) == {}
        assert fault_timeline(trace) == []
        assert alert_timeline(trace) == []
        assert degraded_timeline(trace) == []
        assert trigger_breakdown(trace) == {}
        assert folded_stacks(trace) == {}
        assert walk_latency_histogram(trace).count == 0

    def test_truncated_open_walk_span(self):
        # a run cut off mid-walk leaves an open span with no outcome
        trace = Trace(spans=[Span(span_id=1, name="walk", start=3)])
        replayed = run_metrics_from_trace(trace)
        assert replayed.walks_failed == 0
        assert replayed.walks_retried == 0
        assert walk_outcomes(trace) == {"open": 1}
        assert walk_latency_histogram(trace).count == 0
        assert folded_stacks(trace) == {}  # open spans have no duration

    def test_spans_and_events_missing_attrs(self):
        trace = Trace(
            spans=[Span(span_id=1, name="snapshot_query", start=2, end=2)],
            events=[TraceEvent(5, "fault")],
        )
        replayed = run_metrics_from_trace(trace)
        assert replayed.snapshot_queries == 1
        assert replayed.samples_total == 0
        assert replayed.degraded_estimates == 0
        assert replayed.faults_injected == 1
        assert degraded_timeline(trace) == []
        assert trigger_breakdown(trace) == {"unknown": 1}
        assert [e.time for e in fault_timeline(trace)] == [5]

    def test_folded_stacks_survive_a_dangling_parent(self):
        # the parent span was cut off (never retained); the child's
        # stack stops at the deepest span still present
        trace = Trace(
            spans=[
                Span(span_id=9, name="walk", start=0, parent_id=4, end=6)
            ]
        )
        assert folded_stacks(trace) == {"walk": 6}
        assert folded_stacks(trace, weight="count") == {"walk": 1}
