"""Tests for the benchmark-results aggregator."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC_PATH = Path(__file__).parent.parent / "benchmarks" / "collect_results.py"


@pytest.fixture
def collector(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("collect_results", _SPEC_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    results = tmp_path / "results"
    results.mkdir()
    monkeypatch.setattr(module, "RESULTS_DIR", results)
    monkeypatch.setattr(module, "OUTPUT", tmp_path / "RESULTS.md")
    monkeypatch.setattr(
        module, "MULTI_QUERY_JSON", tmp_path / "BENCH_multi_query.json"
    )
    monkeypatch.setattr(module, "FAULTS_JSON", tmp_path / "BENCH_faults.json")
    return module, results


def test_collects_known_and_extra_tables(collector):
    module, results = collector
    (results / "fig4a.txt").write_text("FIG4A TABLE\n")
    (results / "mystery_extra.txt").write_text("EXTRA TABLE\n")
    module.main()
    output = (module.OUTPUT).read_text()
    assert "## Paper artifacts" in output
    assert "FIG4A TABLE" in output
    assert "## Other" in output
    assert "EXTRA TABLE" in output


def test_empty_sections_omitted(collector):
    module, results = collector
    (results / "coverage_repeated.txt").write_text("COVERAGE\n")
    module.main()
    output = module.OUTPUT.read_text()
    assert "## Guarantee validation" in output
    assert "## Paper artifacts" not in output  # nothing saved for it


def test_missing_results_dir_errors(collector, tmp_path, monkeypatch):
    module, _ = collector
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "nope")
    assert module.main() == 1


def test_folds_trace_attribution_into_results(collector):
    from repro.obs.export import export_trace
    from repro.obs.tracer import SinkTracer

    module, results = collector
    (results / "fig4a.txt").write_text("FIG4A TABLE\n")
    tracer = SinkTracer(record=True, meta={"experiment": "unit"})
    walk = tracer.span("walk", time=0)
    tracer.event("message", time=0, span=walk, category="walk")
    tracer.end(walk, time=3, outcome="completed", attempts=1)
    export_trace(tracer.trace(), results / "fault_smoke.jsonl")
    module.main()
    output = module.OUTPUT.read_text()
    assert "## Trace cost attribution" in output
    assert "fault_smoke" in output
    import json

    folded = json.loads((results / "trace_attribution.json").read_text())
    assert folded["fault_smoke"]["message_attribution"]["walk_steps"] == 1
    assert folded["fault_smoke"]["walk_outcomes"] == {"completed": 1}


def test_promotes_multi_query_payload(collector):
    import json

    module, results = collector
    payload = {"message_savings": 0.5, "pool_hit_rate": 0.9}
    (results / "multi_query.json").write_text(json.dumps(payload))
    module.main()
    assert module.MULTI_QUERY_JSON.exists()
    assert json.loads(module.MULTI_QUERY_JSON.read_text()) == payload


def test_promotes_fault_overhead_payload(collector):
    import json

    module, results = collector
    payload = {"overhead": 0.04, "samples_identical": True}
    (results / "fault_overhead.json").write_text(json.dumps(payload))
    module.main()
    assert module.FAULTS_JSON.exists()
    assert json.loads(module.FAULTS_JSON.read_text()) == payload


def test_no_fault_overhead_payload_is_fine(collector):
    module, results = collector
    (results / "fig4a.txt").write_text("FIG4A TABLE\n")
    module.main()
    assert not module.FAULTS_JSON.exists()


def test_no_multi_query_payload_is_fine(collector):
    module, results = collector
    (results / "fig4a.txt").write_text("FIG4A TABLE\n")
    module.main()
    assert not module.MULTI_QUERY_JSON.exists()


def test_no_traces_writes_no_attribution(collector):
    module, results = collector
    (results / "fig4a.txt").write_text("FIG4A TABLE\n")
    module.main()
    assert "Trace cost attribution" not in module.OUTPUT.read_text()
    assert not (results / "trace_attribution.json").exists()


def test_stale_bench_payload_warns(collector, tmp_path):
    import os

    module, _ = collector
    payload = tmp_path / "BENCH_fake.json"
    producer = tmp_path / "bench_fake.py"
    payload.write_text("{}")
    producer.write_text("# bench\n")
    os.utime(payload, (1_000_000, 1_000_000))
    os.utime(producer, (2_000_000, 2_000_000))
    warnings = module.stale_bench_payloads(((payload, producer),))
    assert len(warnings) == 1
    assert "BENCH_fake.json" in warnings[0]
    assert "bench_fake.py" in warnings[0]


def test_fresh_bench_payload_is_silent(collector, tmp_path):
    import os

    module, _ = collector
    payload = tmp_path / "BENCH_fake.json"
    producer = tmp_path / "bench_fake.py"
    producer.write_text("# bench\n")
    payload.write_text("{}")
    os.utime(producer, (1_000_000, 1_000_000))
    os.utime(payload, (2_000_000, 2_000_000))
    assert module.stale_bench_payloads(((payload, producer),)) == []


def test_missing_bench_payload_is_not_stale(collector, tmp_path):
    module, _ = collector
    producer = tmp_path / "bench_fake.py"
    producer.write_text("# bench\n")
    missing = tmp_path / "BENCH_fake.json"
    assert module.stale_bench_payloads(((missing, producer),)) == []


def test_every_declared_producer_script_exists(collector):
    module, _ = collector
    for _payload, producer in module.BENCH_PRODUCERS:
        assert producer.exists(), producer
