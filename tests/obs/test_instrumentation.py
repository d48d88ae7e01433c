"""End-to-end telemetry tests: instrumented protocol, engine and sweep.

The tracer must be a pure observer (identical simulation results with and
without it), the trace must account for the ledger's message costs
category by category, and replaying an exported trace must reproduce the
live RunMetrics counters exactly — the CI consistency gate.
"""

import time as wallclock

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.experiments import fault_tolerance
from repro.experiments.harness import (
    build_instance,
    make_engine,
    run_continuous_query,
)
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.alerts import AlertReplay
from repro.obs.analysis import (
    message_attribution,
    run_metrics_from_trace,
    trigger_breakdown,
    verify_trace_consistency,
    walk_latency_histogram,
    walk_outcomes,
)
from repro.obs.export import export_trace, import_trace
from repro.obs.live import LivePipeline, WindowConfig
from repro.obs.schema import EVENT_FAULT, SPAN_SAMPLE_ACQUISITION
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

    @pytest.mark.parametrize("record", [False, True])
    def test_live_windows_count_in_ledger_categories(self, record):
        """Both protocol trace paths feed the windows the ledger's names.

        A recording tracer buckets each walk span's message and probe
        events; a non-recording one reads the counts the lifecycle
        attached. Advertisements are loose ``control`` messages.
        """
        ledger = MessageLedger()
        pipeline = LivePipeline(WindowConfig(width=1_000_000))
        tracer = SinkTracer(sinks=[pipeline], record=record)
        _run_sampler(tracer=tracer, ledger=ledger, variant="cached")
        pipeline.finish(1_000_000)
        counted: dict[str, int] = {}
        for window in pipeline.windows:
            for category, count in window.messages.items():
                counted[category] = counted.get(category, 0) + count
        booked = {
            category: count
            for category, count in ledger.breakdown().items()
            if count and ":" not in category
        }
        assert booked["control"] > 0
        assert counted == booked


def _recorded_session(loss, steps=20):
    """A one-query session on a recording tracer with a live pipeline."""
    rng = np.random.default_rng(3)
    graph = OverlayGraph(mesh_topology(24), n_nodes=24)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(4):
            database.insert(node, {"v": float(rng.normal(50.0, 10.0))})
    faults = FaultPlan(FaultConfig(message_loss=loss), rng=7) if loss else None
    tracer = SinkTracer(record=True)
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(4),
        faults=faults,
        tracer=tracer,
    )
    pipeline, _ = session.attach_live((), WindowConfig(width=5))
    session.add_query(
        ContinuousQuery(
            Query(AggregateOp.AVG, Expression("v")),
            Precision(delta=0.8, epsilon=0.8, confidence=0.85),
            duration=steps,
        ),
        config=EngineConfig(scheduler="all", evaluator="independent"),
    )
    for time in range(steps):
        session.step(time)
    session.finish_live(steps)
    return session, pipeline, tracer.trace()


class TestSessionSpans:
    """A session's trace counts the messages and losses its ledger booked.

    The batch sampler records no per-message events: each
    ``sample_acquisition`` span carries its call's ledger delta and its
    lost messages, and every trace reader counts from those.
    """

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_session_spans_match_the_ledger(self, loss):
        session, pipeline, trace = _recorded_session(loss)
        ledger = session.ledger
        attribution = message_attribution(trace)
        assert ledger.total > 0
        for category in ("walk_steps", "sample_returns", "retries", "control"):
            assert attribution[category] == ledger.breakdown()[category]
        assert attribution["total"] == ledger.total
        # the live windows count the same messages, and a replay of the
        # recorded trace rebuilds the same windows
        live = list(pipeline.windows)
        assert sum(window.message_total for window in live) == ledger.total
        replay = AlertReplay(trace, [], pipeline.config)
        replay.run()
        assert list(replay.pipeline.windows) == live

    def test_losses_are_span_counts_not_events(self):
        session, pipeline, trace = _recorded_session(0.2)
        faults = [event for event in trace.events if event.name == EVENT_FAULT]
        assert {event.attrs["kind"] for event in faults} == {"sample_shortfall"}
        lost = sum(
            span.attrs["n_lost"]
            for span in trace.spans_named(SPAN_SAMPLE_ACQUISITION)
        )
        assert lost > len(faults) > 0
        assert session.metrics.faults_injected == lost + len(faults)
        assert run_metrics_from_trace(trace).faults_injected == lost + len(faults)
        assert sum(window.faults for window in pipeline.windows) == lost + len(faults)


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
