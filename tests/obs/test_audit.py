"""Tests for the per-query guarantee auditor (repro.obs.audit)."""

from __future__ import annotations

import pytest
from scipy.stats import beta

from repro.errors import QueryError
from repro.obs.audit import (
    COVERAGE_ALPHA,
    META_PROMISES,
    Coverage,
    GuaranteeAuditor,
    GuaranteePromise,
    auditor_from_trace,
    coverage_upper_bound,
)
from repro.obs.schema import SPAN_SNAPSHOT_QUERY, SPAN_WALK
from repro.obs.tracer import Span, Trace, TraceEvent


def _snapshot(query="q", time=0, degraded=False, **restatements):
    """A finished ``snapshot_query`` span laid out as the session ends it."""
    return Span(
        span_id=time + 1,
        name=SPAN_SNAPSHOT_QUERY,
        start=time,
        end=time,
        attrs={"query": query, "degraded": degraded, **restatements},
    )


class TestPromise:
    def test_rejects_confidence_outside_unit_interval(self):
        for confidence in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(QueryError):
                GuaranteePromise("q", 0.5, confidence)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(QueryError):
            GuaranteePromise("q", 0.0, 0.9)

    def test_error_budget(self):
        assert GuaranteePromise("q", 0.5, 0.9).error_budget == pytest.approx(0.1)


class TestRegistration:
    def test_register_is_idempotent_for_equal_promises(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.register("q", 0.5, 0.9)
        assert auditor.query_ids() == ["q"]

    def test_register_rejects_conflicting_promise(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        with pytest.raises(QueryError):
            auditor.register("q", 0.4, 0.9)

    def test_violates_unregistered_query_raises(self):
        with pytest.raises(QueryError):
            GuaranteeAuditor().violates("ghost", False, None, None)

    def test_rejects_bad_recent_window(self):
        with pytest.raises(QueryError):
            GuaranteeAuditor(recent_window=0)


class TestViolations:
    def test_clean_estimate_is_not_a_violation(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        assert not auditor.violates("q", False, None, None)

    def test_degraded_is_always_a_violation(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        assert auditor.violates("q", True, None, None)

    def test_wide_achieved_epsilon_violates(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        assert auditor.violates("q", False, 0.7, None)
        assert not auditor.violates("q", False, 0.4, None)

    def test_low_achieved_confidence_violates(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        assert auditor.violates("q", False, None, 0.8)
        assert not auditor.violates("q", False, None, 0.95)


class TestBurnRate:
    def test_burn_rate_is_budget_normalized(self):
        auditor = GuaranteeAuditor(recent_window=4)
        auditor.register("q", 0.5, 0.9)  # budget 0.1
        auditor.on_span_end(_snapshot(time=0, degraded=True))
        auditor.on_span_end(_snapshot(time=1))
        # 1 violation / 2 recent = 0.5 fraction over a 0.1 budget
        assert auditor.burn_rate("q") == pytest.approx(5.0)

    def test_bad_snapshots_age_out_of_the_recent_window(self):
        auditor = GuaranteeAuditor(recent_window=2)
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(time=0, degraded=True))
        auditor.on_span_end(_snapshot(time=1))
        auditor.on_span_end(_snapshot(time=2))
        assert auditor.burn_rate("q") == 0.0  # the violation aged out
        verdict = auditor.verdict("q")
        assert verdict.violations == 1  # lifetime count remains
        assert verdict.ok

    def test_verdict_fields(self):
        auditor = GuaranteeAuditor(recent_window=4)
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(degraded=True))
        verdict = auditor.verdict("q")
        assert verdict.query_id == "q"
        assert verdict.snapshots == 1
        assert verdict.violations == 1
        assert verdict.violation_fraction == 1.0
        assert not verdict.ok

    def test_signals_take_worst_burn_across_queries(self):
        auditor = GuaranteeAuditor(recent_window=4)
        auditor.register("good", 0.5, 0.9)
        auditor.register("bad", 0.5, 0.9)
        auditor.on_span_end(_snapshot(query="good"))
        auditor.on_span_end(_snapshot(query="bad", degraded=True))
        signals = auditor.signals()
        assert signals["audit_burn_rate"] == pytest.approx(10.0)
        assert signals["audit_violation_fraction"] == pytest.approx(0.5)

    def test_signals_empty_auditor(self):
        assert GuaranteeAuditor().signals() == {
            "audit_burn_rate": 0.0,
            "audit_violation_fraction": 0.0,
        }


class TestSpanObservation:
    def test_ignores_non_snapshot_spans(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        walk = Span(span_id=1, name=SPAN_WALK, start=4, end=5)
        walk.attrs.update(query="q", degraded=True)
        auditor.on_span_end(walk)
        assert auditor.verdict("q").snapshots == 0

    def test_ignores_unregistered_queries(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(query="other", degraded=True))
        assert auditor.verdict("q").snapshots == 0

    def test_observes_registered_snapshot_span(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(degraded=True))
        verdict = auditor.verdict("q")
        assert (verdict.snapshots, verdict.violations) == (1, 1)

    def test_reads_achieved_restatements_from_attrs(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(time=0, achieved_epsilon=0.9))
        auditor.on_span_end(_snapshot(time=1, achieved_confidence=0.8))
        auditor.on_span_end(_snapshot(time=2, achieved_epsilon=0.4))
        verdict = auditor.verdict("q")
        assert (verdict.snapshots, verdict.violations) == (3, 2)

    def test_loose_events_are_ignored(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_event(TraceEvent(time=0, name="fault"))
        assert auditor.verdict("q").snapshots == 0


class TestCoverage:
    def test_upper_bound_is_the_clopper_pearson_quantile(self):
        for within, answers, trials in ((26, 30, 30), (1200, 1280, 80), (0, 5, 5)):
            hits = round(trials * within / answers)
            expected = beta.ppf(1.0 - COVERAGE_ALPHA / 2, hits + 1, trials - hits)
            assert coverage_upper_bound(within, answers, trials) == pytest.approx(
                expected, rel=1e-12
            )

    def test_upper_bound_edges(self):
        assert coverage_upper_bound(0, 0, 0) == 0.0
        assert coverage_upper_bound(15, 15, 15) == 1.0
        # 16 co-due answers per tick are one trial, not sixteen
        assert coverage_upper_bound(1200, 1280, 80) > 0.95
        assert coverage_upper_bound(120, 150, 150) < 0.95

    def test_hit_rule_widens_to_the_achieved_epsilon(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(time=0, aggregate=10.4, truth=10.0))
        auditor.on_span_end(_snapshot(time=1, aggregate=10.6, truth=10.0))
        auditor.on_span_end(
            _snapshot(
                time=2, degraded=True, aggregate=10.6, truth=10.0,
                achieved_epsilon=0.7,
            )
        )
        assert auditor.verdict("q").coverage == Coverage(3, 2, 3)

    def test_spans_without_truth_are_not_judged(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(aggregate=99.0))
        verdict = auditor.verdict("q")
        assert verdict.snapshots == 1
        assert verdict.coverage == Coverage(0, 0, 0)
        assert verdict.coverage.rate == 0.0

    def test_session_trials_are_distinct_answer_ticks(self):
        auditor = GuaranteeAuditor()
        for query in ("a", "b"):
            auditor.register(query, 0.5, 0.9)
        for time in range(4):
            for query in ("a", "b"):
                auditor.on_span_end(
                    _snapshot(query=query, time=time, aggregate=1.0, truth=1.0)
                )
        assert auditor.coverage() == Coverage(answers=8, within=8, trials=4)
        assert auditor.verdict("a").coverage == Coverage(4, 4, 4)

    def test_coverage_leaves_burn_untouched(self):
        auditor = GuaranteeAuditor()
        auditor.register("q", 0.5, 0.9)
        auditor.on_span_end(_snapshot(aggregate=5.0, truth=0.0))
        verdict = auditor.verdict("q")
        assert (verdict.violations, verdict.burn_rate, verdict.ok) == (0, 0.0, True)
        assert verdict.coverage.rate == 0.0


class TestAuditorFromTrace:
    def test_returns_none_without_promises(self):
        assert auditor_from_trace(Trace()) is None
        assert auditor_from_trace(Trace(meta={META_PROMISES: {}})) is None

    def test_rebuilds_registered_promises(self):
        trace = Trace(
            meta={
                META_PROMISES: {
                    "q1": {"epsilon": 0.5, "confidence": 0.9},
                    "q0": {"epsilon": 0.4, "confidence": 0.8},
                }
            }
        )
        auditor = auditor_from_trace(trace, recent_window=8)
        assert auditor is not None
        assert auditor.query_ids() == ["q0", "q1"]
        assert auditor.recent_window == 8

    def test_rejects_malformed_promise(self):
        trace = Trace(meta={META_PROMISES: {"q": [0.5, 0.9]}})
        with pytest.raises(QueryError):
            auditor_from_trace(trace)
