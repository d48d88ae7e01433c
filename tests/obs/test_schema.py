"""Tests for the declared trace schema (repro.obs.schema).

Two contracts are pinned here. First, the constant *values* are trace
format v1: exported JSONL traces on disk use these exact strings, so the
values may never change (adding new names is fine; renaming is not).
Second, migrating producers/consumers from string literals to the
constants must be invisible on disk and in every derived summary — the
replay regression asserts byte-identical round trips.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import schema
from repro.obs.analysis import (
    counter_dict,
    message_attribution,
    run_metrics_from_trace,
    verify_trace_consistency,
    walk_outcomes,
)
from repro.obs.export import export_trace, import_trace
from repro.obs.schema import (
    EVENT_SCHEMAS,
    SPAN_SCHEMAS,
    EventSchema,
    SpanSchema,
    event_names,
    span_names,
    trace_names,
)
from repro.obs.tracer import RunMetricsSink, SinkTracer
from repro.sim.metrics import RunMetrics

#: trace format v1: these exact values appear in traces on disk and in
#: pinned RESULTS.md-producing runs. Never change a value; a name goes
#: only when its producer does.
V1_SPAN_NAMES = {
    "SPAN_WALK": "walk",
    "SPAN_SHARED_WALK_BATCH": "shared_walk_batch",
    "SPAN_SNAPSHOT_QUERY": "snapshot_query",
    "SPAN_FAULT_CELL": "fault_cell",
    "SPAN_PARTITION_CELL": "partition_cell",
    "SPAN_SAMPLE_ACQUISITION": "sample_acquisition",
}

V1_EVENT_NAMES = {
    "EVENT_ADVERTISEMENT": "advertisement",
    "EVENT_FAULT": "fault",
    "EVENT_RETRY": "retry",
    "EVENT_TIMEOUT": "timeout",
    "EVENT_MESSAGE": "message",
    "EVENT_HOP": "hop",
    "EVENT_PROBE": "probe",
    "EVENT_PARTITION_OPEN": "partition_open",
    "EVENT_PARTITION_HEAL": "partition_heal",
    "EVENT_BREAKER_TRIP": "breaker_trip",
    "EVENT_BREAKER_PROBE": "breaker_probe",
    "EVENT_BREAKER_CLOSE": "breaker_close",
    "EVENT_ALERT_FIRING": "alert_firing",
    "EVENT_ALERT_RESOLVED": "alert_resolved",
}

#: trace format v2 additions (causal hop tracing). Same freeze rules.
V2_SPAN_NAMES = {
    "SPAN_HOP_SEGMENT": "hop_segment",
}

V2_EVENT_NAMES = {
    "EVENT_CTX_FORWARD": "ctx_forward",
}

PINNED_SPAN_NAMES = {**V1_SPAN_NAMES, **V2_SPAN_NAMES}
PINNED_EVENT_NAMES = {**V1_EVENT_NAMES, **V2_EVENT_NAMES}


class TestFrozenV1Values:
    def test_span_constants_pin_v1_values(self):
        for constant, value in PINNED_SPAN_NAMES.items():
            assert getattr(schema, constant) == value

    def test_event_constants_pin_v1_values(self):
        for constant, value in PINNED_EVENT_NAMES.items():
            assert getattr(schema, constant) == value

    def test_no_unpinned_name_constants(self):
        """Every SPAN_*/EVENT_* constant is in the pinned tables above --
        adding a name means extending the version table here, deliberately."""
        declared = {
            name
            for name in vars(schema)
            if name.startswith(("SPAN_", "EVENT_"))
            and isinstance(getattr(schema, name), str)
        }
        assert declared == set(PINNED_SPAN_NAMES) | set(PINNED_EVENT_NAMES)


class TestRegistry:
    def test_every_constant_has_a_registry_entry(self):
        assert span_names() == frozenset(PINNED_SPAN_NAMES.values())
        assert event_names() == frozenset(PINNED_EVENT_NAMES.values())
        assert trace_names() == span_names() | event_names()

    def test_registry_keys_match_entry_names(self):
        for name, entry in SPAN_SCHEMAS.items():
            assert entry.name == name
        for name, entry in EVENT_SCHEMAS.items():
            assert entry.name == name

    def test_required_and_optional_do_not_overlap(self):
        for entry in (*SPAN_SCHEMAS.values(), *EVENT_SCHEMAS.values()):
            assert not set(entry.required) & set(entry.optional), entry.name
            assert entry.attrs == entry.required + entry.optional

    def test_event_span_references_are_declared(self):
        for entry in EVENT_SCHEMAS.values():
            if entry.span is not None:
                assert entry.span in SPAN_SCHEMAS

    def test_schemas_are_immutable(self):
        entry = SPAN_SCHEMAS["walk"]
        try:
            entry.name = "renamed"  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover - frozen dataclass must refuse
            raise AssertionError("SpanSchema is not frozen")

    def test_shapes_are_plain_dataclasses(self):
        assert isinstance(SPAN_SCHEMAS["walk"], SpanSchema)
        assert isinstance(EVENT_SCHEMAS["fault"], EventSchema)


class TestLeafModule:
    def test_schema_imports_nothing_from_the_package(self):
        """The analyzer parses this module statically and the tracer
        imports it at interpreter start; it must stay a leaf."""
        source = Path(schema.__file__).read_text(encoding="utf-8")
        for line in source.splitlines():
            stripped = line.strip()
            if stripped.startswith(("import ", "from ")):
                assert stripped == "from __future__ import annotations" or (
                    stripped.startswith("from dataclasses import")
                ), stripped


def _traced_run() -> tuple[SinkTracer, RunMetrics]:
    """A run exercising every counter, written via the schema constants."""
    metrics = RunMetrics()
    tracer = SinkTracer(record=True, sinks=[RunMetricsSink(metrics)])

    walk = tracer.span(schema.SPAN_WALK, time=0, walker_id=0)
    tracer.event(
        schema.EVENT_MESSAGE, time=0, span=walk, category="walk", to_node=2
    )
    tracer.event(schema.EVENT_HOP, time=1, span=walk, node=2)
    tracer.event(
        schema.EVENT_PROBE, time=1, span=walk, node=2, target=3, messages=2
    )
    tracer.end(walk, time=6, outcome="completed", attempts=2)

    query = tracer.span(schema.SPAN_SNAPSHOT_QUERY, time=50, trigger="periodic")
    tracer.end(
        query, time=50, n_total=8, n_fresh=5, n_retained=3, degraded=True
    )

    tracer.event(schema.EVENT_FAULT, time=3, kind="message_loss")
    tracer.event(schema.EVENT_ADVERTISEMENT, time=0, to_node=1, source=0)
    return tracer, metrics


def _summaries(trace) -> str:
    """Every trace-derived summary, serialized deterministically."""
    return json.dumps(
        {
            "counters": counter_dict(run_metrics_from_trace(trace)),
            "messages": message_attribution(trace),
            "outcomes": walk_outcomes(trace),
            "summary": trace.summary(),
        },
        sort_keys=True,
    )


class TestReplayRegression:
    def test_constants_produce_v1_names_on_disk(self, tmp_path):
        tracer, _ = _traced_run()
        path = export_trace(tracer.trace(), tmp_path / "run.jsonl")
        text = path.read_text(encoding="utf-8")
        assert '"name": "walk"' in text
        assert '"name": "snapshot_query"' in text
        assert '"name": "fault"' in text

    def test_replayed_summaries_are_byte_identical(self, tmp_path):
        """Export -> import -> summarize must reproduce the in-memory
        summaries byte for byte, and a second export round trip must
        reproduce the file byte for byte."""
        tracer, live = _traced_run()
        trace = tracer.trace()
        first = tmp_path / "run.jsonl"
        export_trace(trace, first)
        replayed = import_trace(first)
        assert _summaries(replayed) == _summaries(trace)
        assert verify_trace_consistency(replayed, live) == []
        second = tmp_path / "replayed.jsonl"
        export_trace(replayed, second)
        assert second.read_bytes() == first.read_bytes()
