"""Tests for the span/event tracer core (repro.obs.tracer)."""

import pytest

from repro.network.faults import FaultLog
from repro.obs.tracer import (
    NO_TIME,
    NULL_SPAN,
    NULL_TRACER,
    RunMetricsSink,
    SinkTracer,
    Span,
    TraceEvent,
    Tracer,
)
from repro.sim.clock import SimulationClock
from repro.sim.metrics import RunMetrics


class TestNullTracer:
    """The base :class:`Tracer` is the no-op tracer (``NULL_TRACER``)."""

    def test_disabled_and_identity_span(self):
        assert type(NULL_TRACER) is Tracer
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("walk", time=3, walker_id=7)
        assert span is NULL_SPAN

    def test_null_span_swallows_mutation(self):
        NULL_SPAN.set(aggregate=1.0)
        NULL_SPAN.add_event(5, "hop", node=2)
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []
        assert NULL_SPAN.duration == 0

    def test_end_and_event_are_noops(self):
        tracer = Tracer()
        tracer.end(NULL_SPAN, time=9, outcome="completed")
        tracer.event("fault", time=2, kind="message_loss")
        assert NULL_SPAN.end is None

    def test_profile_is_a_null_context(self):
        with NULL_TRACER.profile("section"):
            pass

    def test_session_protocol_is_all_noops(self):
        # a no-op Tracer must be a drop-in for a session's tracer: sinks
        # and clocks are dropped, and meta writes land in a throwaway
        tracer = Tracer()
        tracer.add_sink(object())
        assert tracer.has_clock is True  # nothing to stamp, vacuously
        tracer.set_clock(lambda: 5)
        assert tracer.span("walk").start == NO_TIME
        tracer.meta["promises"] = {"q0": {}}
        assert tracer.meta == {}


class TestSinkTracer:
    def test_span_lifecycle_and_sequential_ids(self):
        tracer = SinkTracer()
        a = tracer.span("walk", time=0, walker_id=0)
        b = tracer.span("walk", time=1, walker_id=1)
        assert (a.span_id, b.span_id) == (1, 2)
        tracer.end(a, time=5, outcome="completed")
        assert a.end == 5 and a.duration == 5
        assert a.attrs == {"walker_id": 0, "outcome": "completed"}
        assert tracer.spans_started == 2 and tracer.spans_ended == 1

    def test_end_is_idempotent(self):
        captured = []

        class Sink:
            def on_span_end(self, span):
                captured.append(span)

            def on_event(self, event):
                raise AssertionError("no loose events here")

        tracer = SinkTracer(sinks=[Sink()])
        span = tracer.span("walk", time=0)
        tracer.end(span, time=4)
        tracer.end(span, time=9, outcome="late")
        assert span.end == 4
        assert "outcome" not in span.attrs
        assert captured == [span]

    def test_end_never_precedes_start(self):
        tracer = SinkTracer()
        span = tracer.span("walk", time=10)
        tracer.end(span, time=3)
        assert span.end == 10 and span.duration == 0

    def test_untimed_records_use_the_sentinel(self):
        tracer = SinkTracer()
        span = tracer.span("walk")
        assert span.start == NO_TIME

    def test_clock_callable_supplies_time(self):
        now = {"t": 7}
        tracer = SinkTracer(clock=lambda: now["t"])
        span = tracer.span("walk")
        now["t"] = 12
        tracer.end(span)
        assert (span.start, span.end) == (7, 12)

    def test_simulation_clock_supplies_time(self):
        clock = SimulationClock(start=2)
        tracer = SinkTracer(clock=clock)
        span = tracer.span("walk")
        clock.tick(3)
        tracer.end(span)
        assert (span.start, span.end) == (2, 5)

    def test_explicit_time_beats_the_clock(self):
        tracer = SinkTracer(clock=lambda: 99)
        span = tracer.span("walk", time=1)
        assert span.start == 1

    def test_set_clock_wires_a_late_time_source(self):
        tracer = SinkTracer()
        assert tracer.has_clock is False
        assert tracer.span("walk").start == NO_TIME
        tracer.set_clock(lambda: 4)
        assert tracer.has_clock is True
        assert tracer.span("walk").start == 4

    def test_set_clock_accepts_a_simulation_clock(self):
        clock = SimulationClock(start=3)
        tracer = SinkTracer()
        tracer.set_clock(clock)
        clock.tick(2)
        assert tracer.span("walk").start == 5

    def test_set_clock_refuses_to_replace_an_existing_clock(self):
        tracer = SinkTracer(clock=lambda: 1)
        with pytest.raises(ValueError, match="already has a clock"):
            tracer.set_clock(lambda: 2)

    def test_span_attached_event_stays_off_the_sinks(self):
        loose = []

        class Sink:
            def on_span_end(self, span):
                pass

            def on_event(self, event):
                loose.append(event.name)

        tracer = SinkTracer(sinks=[Sink()])
        span = tracer.span("walk", time=0)
        tracer.event("hop", time=1, span=span, node=3)
        tracer.event("fault", time=2, kind="message_loss")
        assert [event.name for event in span.events] == ["hop"]
        assert loose == ["fault"]

    def test_parenting_skips_the_null_span(self):
        tracer = SinkTracer()
        root = tracer.span("cell", time=0)
        child = tracer.span("walk", time=0, parent=root)
        orphan = tracer.span("walk", time=0, parent=NULL_SPAN)
        assert child.parent_id == root.span_id
        assert orphan.parent_id is None

    def test_ending_the_null_span_is_ignored(self):
        tracer = SinkTracer()
        tracer.end(NULL_SPAN, time=8)
        assert NULL_SPAN.end is None
        assert tracer.spans_ended == 0


class TestSinkTracerRecording:
    def test_without_record_nothing_is_retained(self):
        tracer = SinkTracer()
        assert tracer.is_recording is False
        tracer.end(tracer.span("walk", time=0), time=1)
        with pytest.raises(ValueError, match="record=True"):
            tracer.trace()

    def test_record_sets_is_recording(self):
        assert SinkTracer(record=True).is_recording is True

    def test_event_a_sink_emits_in_response_is_recorded_after_its_cause(self):
        tracer = SinkTracer(record=True)

        class Responder:
            def on_span_end(self, span):
                pass

            def on_event(self, event):
                if event.name == "fault":
                    tracer.event("alert_firing", time=event.time)

        tracer.add_sink(Responder())
        tracer.event("fault", time=3)
        assert [e.name for e in tracer.trace().events] == [
            "fault",
            "alert_firing",
        ]

    def test_trace_retains_finished_spans_in_id_order(self):
        tracer = SinkTracer(record=True, meta={"experiment": "unit"})
        first = tracer.span("walk", time=0)
        second = tracer.span("walk", time=1)
        open_span = tracer.span("walk", time=2)
        tracer.end(second, time=3)
        tracer.end(first, time=4)
        tracer.event("fault", time=5, kind="message_loss")
        trace = tracer.trace()
        assert [span.span_id for span in trace.spans] == [1, 2]
        assert open_span.span_id not in {s.span_id for s in trace.spans}
        assert [event.name for event in trace.events] == ["fault"]
        assert trace.meta == {"experiment": "unit"}

    def test_summary_digest_distinguishes_attachment(self):
        tracer = SinkTracer(record=True)
        span = tracer.span("walk", time=0)
        tracer.event("hop", time=1, span=span)
        tracer.end(span, time=2)
        tracer.event("fault", time=3)
        assert tracer.trace().summary() == {
            "event:hop": 1,
            "loose:fault": 1,
            "span:walk": 1,
        }


class TestRunMetricsSink:
    def test_snapshot_query_span_books_sample_counters(self):
        metrics = RunMetrics()
        sink = RunMetricsSink(metrics)
        sink.on_span_end(
            Span(
                span_id=1,
                name="snapshot_query",
                start=0,
                end=0,
                attrs={
                    "n_total": 10,
                    "n_fresh": 6,
                    "n_retained": 4,
                    "degraded": True,
                },
            )
        )
        assert metrics.snapshot_queries == 1
        assert metrics.samples_total == 10
        assert metrics.samples_fresh == 6
        assert metrics.samples_retained == 4
        assert metrics.degraded_estimates == 1

    def test_walk_span_books_retries_and_failures(self):
        metrics = RunMetrics()
        sink = RunMetricsSink(metrics)
        sink.on_span_end(
            Span(
                span_id=1,
                name="walk",
                start=0,
                end=9,
                attrs={"outcome": "completed", "attempts": 3},
            )
        )
        sink.on_span_end(
            Span(
                span_id=2,
                name="walk",
                start=0,
                end=9,
                attrs={"outcome": "failed", "attempts": 1},
            )
        )
        assert metrics.walks_retried == 2
        assert metrics.walks_failed == 1

    def test_fault_event_books_faults_injected(self):
        metrics = RunMetrics()
        sink = RunMetricsSink(metrics)
        sink.on_event(TraceEvent(time=4, name="fault", attrs={}))
        sink.on_event(TraceEvent(time=5, name="advertisement", attrs={}))
        assert metrics.faults_injected == 1

    def test_unrelated_spans_leave_counters_alone(self):
        metrics = RunMetrics()
        RunMetricsSink(metrics).on_span_end(
            Span(span_id=1, name="fault_cell", start=0, end=1)
        )
        assert metrics.snapshot_queries == 0


class TestBridgeFaultLog:
    def test_forwards_faults_as_loose_events(self):
        from repro.obs.tracer import bridge_fault_log

        log = FaultLog()
        tracer = SinkTracer(record=True)
        bridge_fault_log(log, tracer)
        log.record(5, "message_loss", walker_id=3, node=1, detail="hop")
        events = tracer.trace().events
        assert [e.name for e in events] == ["fault"]
        assert events[0].time == 5
        assert events[0].attrs["kind"] == "message_loss"

    def test_clockless_fault_takes_the_tracer_clock(self):
        from repro.obs.tracer import NO_TIME, bridge_fault_log

        log = FaultLog()
        tracer = SinkTracer(record=True, clock=lambda: 7)
        bridge_fault_log(log, tracer)
        log.record(NO_TIME, "sample_shortfall")
        log.record(2, "message_loss")
        assert [e.time for e in tracer.trace().events] == [7, 2]

    def test_double_bridge_records_each_fault_once(self):
        from repro.obs.tracer import bridge_fault_log

        log = FaultLog()
        tracer = SinkTracer(record=True)
        bridge_fault_log(log, tracer)
        bridge_fault_log(log, tracer)
        log.record(1, "node_crash")
        assert len(tracer.trace().events) == 1

    def test_null_tracer_subscribes_nothing(self):
        from repro.obs.tracer import bridge_fault_log

        log = FaultLog()
        bridge_fault_log(log, NULL_TRACER)
        log.record(1, "node_crash")  # must not call into the tracer
