"""JSONL trace export/import round-trip tests (repro.obs.export)."""

import json

import numpy as np
import pytest

from repro.obs.export import FORMAT_VERSION, export_trace, import_trace
from repro.obs.tracer import SinkTracer


def _sample_tracer() -> SinkTracer:
    tracer = SinkTracer(record=True, meta={"experiment": "unit", "seed": 7})
    cell = tracer.span("fault_cell", time=0, message_loss=0.1)
    walk = tracer.span("walk", time=0, parent=cell, walker_id=0)
    tracer.event("hop", time=1, span=walk, node=3)
    tracer.event("message", time=1, span=walk, category="walk", to_node=3)
    tracer.end(walk, time=4, outcome="completed", attempts=1)
    tracer.end(cell, time=9, n_required=5, n_achieved=5)
    tracer.event("fault", time=2, kind="message_loss", walker_id=0)
    return tracer


class TestRoundTrip:
    def test_summary_is_identical_after_round_trip(self, tmp_path):
        trace = _sample_tracer().trace()
        path = export_trace(trace, tmp_path / "trace.jsonl")
        restored = import_trace(path)
        assert restored.summary() == trace.summary()
        assert restored.meta == trace.meta

    def test_span_structure_survives(self, tmp_path):
        trace = _sample_tracer().trace()
        restored = import_trace(export_trace(trace, tmp_path / "t.jsonl"))
        walk = restored.spans_named("walk")[0]
        cell = restored.spans_named("fault_cell")[0]
        assert walk.parent_id == cell.span_id
        assert walk.attrs["outcome"] == "completed"
        assert [e.name for e in walk.events] == ["hop", "message"]
        assert walk.duration == 4

    def test_identical_runs_export_byte_identical_files(self, tmp_path):
        a = export_trace(_sample_tracer().trace(), tmp_path / "a.jsonl")
        b = export_trace(_sample_tracer().trace(), tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_scalar_attrs_export_as_plain_json(self, tmp_path):
        tracer = SinkTracer(record=True)
        span = tracer.span("walk", time=0, weight=np.float64(0.25))
        tracer.end(span, time=np.int64(3), sampled_node=np.int64(4))
        path = export_trace(tracer.trace(), tmp_path / "np.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        span_record = next(r for r in lines if r["kind"] == "span")
        assert span_record["attrs"] == {"weight": 0.25, "sampled_node": 4}
        restored = import_trace(path)
        assert restored.spans[0].attrs["sampled_node"] == 4

    def test_unportable_attr_raises_at_export(self, tmp_path):
        tracer = SinkTracer(record=True)
        span = tracer.span("walk", time=0, payload=object())
        tracer.end(span, time=1)
        with pytest.raises(TypeError):
            export_trace(tracer.trace(), tmp_path / "bad.jsonl")


class TestFormatGuards:
    def test_header_records_version_and_counts(self, tmp_path):
        trace = _sample_tracer().trace()
        path = export_trace(trace, tmp_path / "t.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["format_version"] == FORMAT_VERSION
        assert header["n_spans"] == len(trace.spans)
        assert header["n_events"] == len(trace.events)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "format_version": 999}) + "\n"
        )
        with pytest.raises(ValueError, match="format version"):
            import_trace(path)

    def test_unknown_record_kind_raises_with_line_number(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "format_version": FORMAT_VERSION})
            + "\n"
            + json.dumps({"kind": "mystery"})
            + "\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            import_trace(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        trace = _sample_tracer().trace()
        path = export_trace(trace, tmp_path / "t.jsonl")
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert import_trace(path).summary() == trace.summary()
