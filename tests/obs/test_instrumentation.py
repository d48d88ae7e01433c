"""End-to-end telemetry tests: instrumented protocol, engine and sweep.

The tracer must be a pure observer (identical simulation results with and
without it), the trace must account for the ledger's message costs
category by category, and replaying an exported trace must reproduce the
live RunMetrics counters exactly — the CI consistency gate.
"""

import time as wallclock

import numpy as np

from repro.core.query import Precision
from repro.experiments import fault_tolerance
from repro.experiments.harness import (
    build_instance,
    make_engine,
    run_continuous_query,
)
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.analysis import (
    message_attribution,
    run_metrics_from_trace,
    trigger_breakdown,
    verify_trace_consistency,
    walk_latency_histogram,
    walk_outcomes,
)
from repro.obs.export import export_trace, import_trace
from repro.obs.tracer import NULL_TRACER, SinkTracer
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler
from repro.sampling.weights import uniform_weights
from repro.sim.engine import SimulationEngine


def _run_sampler(tracer=None, ledger=None, variant="bounce", seed=0):
    graph = OverlayGraph(mesh_topology(16), n_nodes=16)
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        SimulationEngine(),
        np.random.default_rng(seed),
        ledger,
        ProtocolConfig(variant=variant),
        tracer=tracer,
    )
    sampled = sampler.run_walks(origin=0, n=12, walk_length=15)
    return sampler, sampled


class TestTracerIsAPureObserver:
    def test_tracing_does_not_perturb_the_simulation(self):
        bare_ledger = MessageLedger()
        _, bare = _run_sampler(tracer=None, ledger=bare_ledger)
        traced_ledger = MessageLedger()
        _, traced = _run_sampler(
            tracer=SinkTracer(record=True), ledger=traced_ledger
        )
        assert bare == traced
        assert bare_ledger.breakdown() == traced_ledger.breakdown()

    def test_null_tracer_overhead_smoke(self):
        # the disabled path is one dynamic dispatch; a generous wall-clock
        # bound catches accidental allocation or sink work creeping in
        started = wallclock.perf_counter()
        span = NULL_TRACER.span("walk", time=0)
        for i in range(200_000):
            NULL_TRACER.event("hop", time=i, span=span, node=i)
        NULL_TRACER.end(span, time=1)
        assert wallclock.perf_counter() - started < 2.0


class TestWalkSpans:
    def test_walk_spans_match_ledger_attribution(self):
        ledger = MessageLedger()
        tracer = SinkTracer(record=True)
        sampler, sampled = _run_sampler(tracer=tracer, ledger=ledger)
        trace = tracer.trace()
        attribution = message_attribution(trace)
        assert attribution["walk_steps"] == ledger.walk_steps
        assert attribution["sample_returns"] == ledger.sample_returns
        assert attribution["retries"] == ledger.retries == 0
        assert attribution["total"] == ledger.total
        outcomes = walk_outcomes(trace)
        assert outcomes == {"completed": 12}
        assert walk_latency_histogram(trace).count == 12
        completed = [
            span.attrs["sampled_node"] for span in trace.spans_named("walk")
        ]
        assert sorted(completed) == sorted(sampled)

    def test_cached_variant_traces_advertisements(self):
        ledger = MessageLedger()
        tracer = SinkTracer(record=True)
        sampler, _ = _run_sampler(
            tracer=tracer, ledger=ledger, variant="cached"
        )
        attribution = message_attribution(tracer.trace())
        assert attribution["advertisements"] == sampler.advertisements_sent
        assert attribution["advertisements"] > 0
        assert (
            attribution["control"] + ledger.pushes
            == ledger.control + ledger.pushes
        )


class TestEngineTrace:
    def _traced_run(self, scheduler="all", n_steps=8):
        instance = build_instance("temperature", scale=0.05, seed=0)
        tracer = SinkTracer(record=True, meta={"experiment": "unit"})
        session = make_engine(
            instance,
            Precision(4.0, 2.0),
            scheduler,
            "independent",
            origin=0,
            seed=0,
            tracer=tracer,
        )
        run = run_continuous_query(instance, session, n_steps=n_steps)
        return session, run

    def test_run_captures_trace_and_counters_are_derived(self):
        session, run = self._traced_run()
        assert run.trace is not None
        queries = run.trace.spans_named("snapshot_query")
        assert len(queries) == session.metrics.snapshot_queries == 8
        assert verify_trace_consistency(run.trace, session.metrics) == []

    def test_trigger_reasons_start_with_bootstrap(self):
        _, run = self._traced_run()
        breakdown = trigger_breakdown(run.trace)
        assert breakdown == {"bootstrap": 1, "periodic": 7}

    def test_pred_scheduler_reports_prediction_triggers(self):
        _, run = self._traced_run(scheduler="pred", n_steps=15)
        breakdown = trigger_breakdown(run.trace)
        # PRED-k keeps answering "bootstrap" until it has k points to fit
        assert breakdown.pop("bootstrap") >= 1
        assert breakdown  # it must eventually extrapolate
        assert set(breakdown) <= {"predicted_drift", "horizon_capped"}
        assert sum(breakdown.values()) + 1 <= len(
            run.trace.spans_named("snapshot_query")
        )


class TestFaultSweepTrace:
    def test_replayed_trace_matches_live_metrics_exactly(self, tmp_path):
        result = fault_tolerance.run(fault_tolerance.smoke_config(), seed=1)
        assert result.trace is not None
        assert verify_trace_consistency(result.trace, result.metrics) == []
        # the gate must survive the export → import round trip: CI verifies
        # the JSONL artifact, not the in-memory trace
        restored = import_trace(
            export_trace(result.trace, tmp_path / "sweep.jsonl")
        )
        assert restored.summary() == result.trace.summary()
        assert verify_trace_consistency(restored, result.metrics) == []

    def test_attribution_equals_summed_cell_ledgers(self):
        result = fault_tolerance.run(fault_tolerance.smoke_config(), seed=1)
        attribution = message_attribution(result.trace)
        summed: dict[str, int] = {}
        for row in result.rows:
            for category, count in row.ledger_breakdown.items():
                summed[category] = summed.get(category, 0) + count
        assert attribution["walk_steps"] == summed["walk_steps"]
        assert attribution["sample_returns"] == summed["sample_returns"]
        assert attribution["retries"] == summed["retries"]
        assert attribution["control"] == summed["control"]

    def test_degraded_cells_appear_in_the_trace(self):
        result = fault_tolerance.run(fault_tolerance.smoke_config(), seed=1)
        degraded_rows = sum(1 for row in result.rows if row.degraded)
        replayed = run_metrics_from_trace(result.trace)
        assert replayed.degraded_estimates == degraded_rows
        assert replayed.faults_injected == sum(
            sum(row.faults.values()) for row in result.rows
        )
