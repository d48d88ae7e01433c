"""Observability: structured tracing, metrics, profiling and reporting.

The paper's whole evaluation is a cost model — snapshot-query counts,
fresh-vs-retained samples, per-category message traffic — so when a
number looks wrong the reproduction needs a record of *which* walk, hop,
retry or extrapolation decision produced it. This package is that layer:

* :mod:`repro.obs.tracer` — a zero-dependency, simulated-time-aware
  tracer (:class:`Tracer`, :class:`Span`, :class:`TraceEvent`). The
  default, a plain :class:`Tracer`, is a no-op, so instrumentation costs
  nothing when disabled; :class:`SinkTracer` builds real spans and
  dispatches them to sinks (:class:`RunMetricsSink` derives the
  :class:`~repro.sim.metrics.RunMetrics` counters — the single source
  of truth replacing hand-booked counters at call sites).
* :mod:`repro.obs.registry` — fixed-boundary histograms, so results
  stay deterministic across runs.
* :mod:`repro.obs.export` — portable JSONL trace export/import.
* :mod:`repro.obs.profile` — wall-clock section timers keyed to
  sim-time span names (the one sanctioned wall-clock reader; simulation
  code itself stays wall-clock-free per digest-lint DGL012).
* :mod:`repro.obs.analysis` — post-hoc trace analysis: message-cost
  attribution, walk-latency histograms, fault/degradation timelines,
  counter reconstruction and the trace-vs-live consistency check.
* :mod:`repro.obs.console` — the single stdout sink (digest-lint DGL007
  bans bare ``print()`` inside ``src/repro``).
* :mod:`repro.obs.live` — bounded-memory *streaming* analytics: a
  :class:`TraceSink` maintaining tumbling/sliding windows over the span
  stream as the run executes (and :func:`~repro.obs.live.feed_trace`
  to replay a finished trace through the same pipeline).
* :mod:`repro.obs.alerts` — declarative threshold / burn-rate / absence
  alert rules with for-duration hysteresis over the live windows; every
  firing→resolved transition is itself a schema-registered trace event,
  so alerting replays deterministically.
* :mod:`repro.obs.audit` — the per-query guarantee auditor: promised
  vs. achieved ``(epsilon, p)`` and the SLO burn rate.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and worked examples.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    AlertTransition,
    load_rules,
    replay_alerts,
    verify_alert_replay,
)
from repro.obs.audit import AuditVerdict, GuaranteeAuditor, GuaranteePromise
from repro.obs.console import emit
from repro.obs.export import export_trace, import_trace
from repro.obs.live import LivePipeline, WindowConfig, WindowStats, feed_trace
from repro.obs.profile import WallClockProfiler
from repro.obs.registry import Histogram
from repro.obs.tracer import (
    NULL_TRACER,
    RunMetricsSink,
    SinkTracer,
    Span,
    Trace,
    TraceEvent,
    Tracer,
    TraceSink,
    bridge_fault_log,
)

__all__ = [
    "NULL_TRACER",
    "AlertEngine",
    "AlertRule",
    "AlertTransition",
    "AuditVerdict",
    "GuaranteeAuditor",
    "GuaranteePromise",
    "Histogram",
    "LivePipeline",
    "RunMetricsSink",
    "SinkTracer",
    "Span",
    "Trace",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "WallClockProfiler",
    "WindowConfig",
    "WindowStats",
    "bridge_fault_log",
    "emit",
    "export_trace",
    "feed_trace",
    "import_trace",
    "load_rules",
    "replay_alerts",
    "verify_alert_replay",
]
