"""End-to-end tests for the live-audited session (pipeline + alerts + audit)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import exact_aggregate
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.alerts import FIRING, AlertReplay, AlertRule, verify_alert_replay
from repro.obs.analysis import verify_trace_consistency
from repro.obs.audit import META_PROMISES
from repro.obs.export import export_trace, import_trace
from repro.obs.live import META_FINISHED_AT, WindowConfig
from repro.obs.schema import SPAN_SNAPSHOT_QUERY
from repro.obs.tracer import SinkTracer

_STEPS = 40
_WINDOWS = WindowConfig(width=10, slide=3)

_RULES = [
    AlertRule(
        name="degraded-snapshots",
        signal="degraded_fraction",
        threshold=0.5,
        comparison=">",
        for_windows=2,
    ),
    AlertRule(
        name="guarantee-burn",
        signal="audit_burn_rate",
        kind="burn_rate",
        threshold=2.0,
        comparison=">",
        for_windows=2,
    ),
]


# seeds match the slo_audit smoke sweep's cells (clean, lossy), whose
# fired-rule expectations the experiment gate already pins down
_CLEAN_SEED = 0
_FAULTED_SEED = 1000


_QUERY = "SELECT AVG(v) FROM R"


def _true_average(database):
    query = parse_query(_QUERY)
    return exact_aggregate(database, query.op, query.expression)


def _run_session(message_loss=0.0, truth=None):
    """Two co-due AVG queries over ``_STEPS`` ticks; ``truth``, when
    given, maps the database to the queries' true aggregate."""
    seed = _FAULTED_SEED if message_loss > 0.0 else _CLEAN_SEED
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(24), n_nodes=24)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(4):
            database.insert(node, {"v": float(rng.normal(50, 10))})
    plan = (
        FaultPlan(FaultConfig(message_loss=message_loss), rng=seed + 50)
        if message_loss > 0.0
        else None
    )
    tracer = SinkTracer(record=True)
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(seed + 1),
        faults=plan,
        tracer=tracer,
    )
    pipeline, engine = session.attach_live(_RULES, _WINDOWS)
    for _ in range(2):
        session.add_query(
            ContinuousQuery(
                parse_query(_QUERY),
                Precision(delta=0.8, epsilon=0.8, confidence=0.85),
                duration=_STEPS,
            ),
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
    oracle = None if truth is None else (lambda _query_id: truth(database))
    for tick in range(_STEPS):
        session.step(tick, truth=oracle)
    session.finish_live(_STEPS)
    return session, pipeline, engine, tracer.trace()


class TestLiveSession:
    def test_clean_run_fires_no_alerts(self):
        session, pipeline, engine, _trace = _run_session()
        assert engine.transitions == []
        assert session.metrics.alerts_fired == 0
        assert pipeline.windows  # the pipeline did stream windows

    def test_faulted_run_pages_both_gated_rules(self):
        session, _pipeline, engine, _trace = _run_session(message_loss=0.20)
        fired = {t.rule for t in engine.transitions if t.state == FIRING}
        assert fired == {"degraded-snapshots", "guarantee-burn"}
        assert session.metrics.alerts_fired == len(
            [t for t in engine.transitions if t.state == FIRING]
        )

    def test_trace_replays_counters_and_alerts_exactly(self):
        for loss in (0.0, 0.20):
            session, _pipeline, _engine, trace = _run_session(message_loss=loss)
            assert verify_trace_consistency(trace, session.metrics) == []
            assert verify_alert_replay(trace, _RULES, _WINDOWS) == []

    def test_promises_and_finish_time_recorded_in_meta(self):
        _session, _pipeline, _engine, trace = _run_session()
        assert trace.meta[META_FINISHED_AT] == _STEPS
        promise = {"epsilon": 0.8, "confidence": 0.85}
        assert trace.meta[META_PROMISES] == {"q0": promise, "q1": promise}

    def test_audit_verdicts_cover_every_query(self):
        session, _pipeline, _engine, _trace = _run_session(message_loss=0.20)
        verdicts = session.auditor.verdicts()
        assert set(verdicts) == {"q0", "q1"}
        assert all(v.snapshots > 0 for v in verdicts.values())
        assert sum(v.violations for v in verdicts.values()) > 0
        assert max(v.burn_rate for v in verdicts.values()) > 2.0
        assert not all(v.ok for v in verdicts.values())

    def test_live_audits_equal_replayed_audits(self, tmp_path):
        # the live auditor and the one a replay rebuilds from the exported
        # trace judge the same snapshot_query spans, so they agree exactly
        session, _pipeline, _engine, trace = _run_session(message_loss=0.20)
        exported = import_trace(export_trace(trace, tmp_path / "run.jsonl"))
        replay = AlertReplay(exported, _RULES, _WINDOWS)
        replay.run()
        assert replay.auditor is not None
        live = session.auditor.verdicts()
        assert sum(v.violations for v in live.values()) > 0
        assert replay.auditor.verdicts() == live

    def test_replayed_coverage_equals_live_coverage(self, tmp_path):
        session, _pipeline, _engine, trace = _run_session(truth=_true_average)
        spans = [s for s in trace.spans if s.name == SPAN_SNAPSHOT_QUERY]
        assert spans and all("truth" in s.attrs for s in spans)
        exported = import_trace(export_trace(trace, tmp_path / "run.jsonl"))
        replay = AlertReplay(exported, _RULES, _WINDOWS)
        replay.run()
        assert replay.auditor is not None
        live = session.auditor.verdicts()
        assert all(v.coverage.answers == _STEPS for v in live.values())
        assert sum(v.coverage.within for v in live.values()) > 0
        assert replay.auditor.verdicts() == live
        assert replay.auditor.coverage() == session.auditor.coverage()

    def test_no_truth_key_unless_the_caller_passes_truth(self):
        session, _pipeline, _engine, trace = _run_session()
        assert not any("truth" in s.attrs for s in trace.spans)
        assert session.auditor.coverage().answers == 0

    def test_session_wires_clock_so_deep_records_are_timed(self):
        # every span a session-mode trace records must carry real
        # simulated time — the live pipeline drops untimed records
        _session, pipeline, _engine, trace = _run_session()
        assert all(
            s.start >= 0 and s.end is not None and s.end >= 0
            for s in trace.spans
        )
        assert pipeline.records_dropped == 0

    def test_attach_live_twice_rejected(self):
        graph = OverlayGraph(mesh_topology(9), n_nodes=9)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        session = DigestSession(
            graph, database, origin=0, rng=np.random.default_rng(0)
        )
        session.attach_live()
        with pytest.raises(QueryError):
            session.attach_live()
