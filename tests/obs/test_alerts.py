"""Tests for the declarative alert engine (repro.obs.alerts)."""

from __future__ import annotations

import json

import pytest

from repro.errors import QueryError
from repro.obs.alerts import (
    ABSENCE,
    BURN_RATE,
    FIRING,
    RESOLVED,
    THRESHOLD,
    AlertEngine,
    AlertRule,
    load_rules,
    replay_alerts,
    verify_alert_replay,
)
from repro.obs.analysis import alert_timeline
from repro.obs.live import META_FINISHED_AT, LivePipeline, WindowConfig
from repro.obs.schema import EVENT_ALERT_FIRING, SPAN_WALK
from repro.obs.tracer import SinkTracer


def _fail_walk(tracer, start, end, outcome="failed"):
    span = tracer.span(
        SPAN_WALK, time=start, walker_id=1, origin=0, walk_length=end - start
    )
    tracer.end(span, time=end, outcome=outcome, attempts=1)


FAILURE_RULE = AlertRule(
    name="walk-failures",
    signal="walk_failure_fraction",
    kind=THRESHOLD,
    threshold=0.5,
    comparison=">",
)


class TestAlertRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(QueryError):
            AlertRule(name="r", signal="s", kind="median")

    def test_rejects_unknown_comparison(self):
        with pytest.raises(QueryError):
            AlertRule(name="r", signal="s", comparison="!=")

    def test_rejects_empty_name(self):
        with pytest.raises(QueryError):
            AlertRule(name="", signal="s")

    def test_rejects_nonpositive_for_windows(self):
        with pytest.raises(QueryError):
            AlertRule(name="r", signal="s", for_windows=0)

    def test_absence_breaches_at_or_below_threshold(self):
        rule = AlertRule(name="r", signal="s", kind=ABSENCE)
        assert rule.breaches(0.0)
        assert not rule.breaches(0.5)

    def test_threshold_directions(self):
        below = AlertRule(name="r", signal="s", threshold=2.0, comparison="<")
        assert below.breaches(1.0)
        assert not below.breaches(3.0)


class TestEngineLifecycle:
    def test_rejects_duplicate_rule_names(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        with pytest.raises(QueryError):
            AlertEngine(pipeline, [FAILURE_RULE, FAILURE_RULE])

    def test_fires_and_resolves(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        engine = AlertEngine(pipeline, [FAILURE_RULE])
        tracer = SinkTracer(record=True, sinks=[pipeline])
        _fail_walk(tracer, 0, 5)  # window [0,10): 1/1 failed
        _fail_walk(tracer, 12, 15, outcome="ok")  # [10,20): clean
        _fail_walk(tracer, 22, 25, outcome="ok")  # closes [10,20)
        pipeline.finish(25)
        states = [(t.state, t.time) for t in engine.transitions]
        assert states == [(FIRING, 10), (RESOLVED, 20)]
        assert engine.firing == []

    def test_for_windows_hysteresis(self):
        rule = AlertRule(
            name="sustained",
            signal="walk_failure_fraction",
            threshold=0.5,
            comparison=">",
            for_windows=2,
        )
        pipeline = LivePipeline(WindowConfig(width=10))
        engine = AlertEngine(pipeline, [rule])
        tracer = SinkTracer(record=True, sinks=[pipeline])
        _fail_walk(tracer, 0, 5)  # breach 1
        _fail_walk(tracer, 12, 15)  # breach 2 (closes window 1)
        _fail_walk(tracer, 22, 25)  # closes window 2 -> fires here
        pipeline.finish(30)
        assert [(t.state, t.time) for t in engine.transitions] == [(FIRING, 20)]
        assert engine.firing == ["sustained"]

    def test_burn_rate_rule_uses_sliding_view(self):
        # one failed walk then one clean walk per window: each tumbling
        # window alternates 1.0 / 0.0 but the 2-window sliding view stays
        # at 0.5, so only the burn-rate rule pages
        tumbling = AlertRule(
            name="spike", signal="walk_failure_fraction",
            threshold=0.4, comparison=">", for_windows=2,
        )
        burn = AlertRule(
            name="burn", signal="walk_failure_fraction", kind=BURN_RATE,
            threshold=0.4, comparison=">", for_windows=2,
        )
        pipeline = LivePipeline(WindowConfig(width=10, slide=2))
        engine = AlertEngine(pipeline, [tumbling, burn])
        tracer = SinkTracer(record=True, sinks=[pipeline])
        for index in range(4):
            outcome = "failed" if index % 2 == 0 else "ok"
            start = index * 10
            _fail_walk(tracer, start, start + 5, outcome=outcome)
        pipeline.finish(40)
        fired = {t.rule for t in engine.transitions if t.state == FIRING}
        assert fired == {"burn"}

    def test_transitions_recorded_as_trace_events_and_ops_log(self):
        pipeline = LivePipeline(WindowConfig(width=10))
        tracer = SinkTracer(record=True, sinks=[pipeline])
        engine = AlertEngine(pipeline, [FAILURE_RULE], tracer=tracer)
        _fail_walk(tracer, 0, 5)
        _fail_walk(tracer, 12, 15)
        pipeline.finish(15)
        trace = tracer.trace()
        events = [e for e in trace.events if e.name == EVENT_ALERT_FIRING]
        assert len(events) == 1
        assert events[0].time == 10
        assert events[0].attrs["rule"] == "walk-failures"
        assert events[0].attrs["value"] == 1.0
        assert engine.fault_log.counts() == {FIRING: 1}


class TestRulesFile:
    def test_load_rules_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "r1", "signal": "fault_count", "threshold": 5},
                    {
                        "name": "r2",
                        "signal": "snapshot_count",
                        "kind": "absence",
                        "for_windows": 3,
                    },
                ]
            )
        )
        rules = load_rules(path)
        assert [r.name for r in rules] == ["r1", "r2"]
        assert rules[1].kind == ABSENCE

    def test_load_rules_rejects_non_list(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{}")
        with pytest.raises(QueryError):
            load_rules(path)

    def test_load_rules_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"name": "r", "signal": "s", "sev": 1}]))
        with pytest.raises(QueryError):
            load_rules(path)


class TestReplay:
    def _recorded_run(self):
        config = WindowConfig(width=10, slide=2)
        rules = [FAILURE_RULE]
        pipeline = LivePipeline(config)
        tracer = SinkTracer(record=True, sinks=[pipeline])
        AlertEngine(pipeline, rules, tracer=tracer)
        _fail_walk(tracer, 0, 5)
        _fail_walk(tracer, 12, 15, outcome="ok")
        _fail_walk(tracer, 22, 25, outcome="ok")
        tracer.meta[META_FINISHED_AT] = 25
        pipeline.finish(25)
        return tracer.trace(), rules, config

    def test_replay_matches_recorded_transitions(self):
        trace, rules, config = self._recorded_run()
        assert verify_alert_replay(trace, rules, config) == []
        replayed = replay_alerts(trace, rules, config)
        assert [(t.state, t.time) for t in replayed] == [
            (FIRING, 10),
            (RESOLVED, 20),
        ]
        # the recorded alert events do not feed back into the replay
        assert len(alert_timeline(trace)) == len(replayed)

    def test_replay_detects_tampered_trace(self):
        trace, rules, config = self._recorded_run()
        tampered = [e for e in trace.events if e.name != EVENT_ALERT_FIRING]
        trace.events.clear()
        trace.events.extend(tampered)
        problems = verify_alert_replay(trace, rules, config)
        assert problems and "count" in problems[0]
