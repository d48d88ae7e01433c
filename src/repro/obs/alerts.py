"""Declarative alerting over the live pipeline's windowed signals.

An :class:`AlertEngine` subscribes to a
:class:`~repro.obs.live.LivePipeline` and evaluates a fixed list of
:class:`AlertRule` instances at every window close. Three rule kinds:

* ``threshold`` — the window's signal value compared against the
  threshold (``comparison`` picks the direction);
* ``burn_rate`` — the same comparison, but against the *sliding* view
  (the last ``WindowConfig.slide`` windows merged), which is how SLO
  burn is judged: a single noisy window must not page;
* ``absence`` — breaches when the signal is ``<= threshold`` (default
  0.0): the alarm for "the thing stopped happening entirely" that
  threshold rules structurally cannot express over a quiet window.

``for_windows`` adds hysteresis: a rule transitions to *firing* only
after breaching that many consecutive windows, and resolves on the
first clean window (the usual page-late/recover-fast asymmetry).

Every transition is appended to :attr:`AlertEngine.transitions` and
emitted as a schema-registered loose trace event
(:data:`~repro.obs.schema.EVENT_ALERT_FIRING` /
:data:`~repro.obs.schema.EVENT_ALERT_RESOLVED`), stamped at the closing
window's end boundary. Because the pipeline itself ignores alert events
as input, a recorded trace replays to the exact same transitions —
:func:`verify_alert_replay` is the gate that proves it.

Rules files are plain JSON (no new dependencies): a list of objects
whose keys mirror :class:`AlertRule` fields; see
docs/OBSERVABILITY.md §"Live pipeline & alerting".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import QueryError
from repro.obs.analysis import alert_timeline
from repro.obs.audit import auditor_from_trace
from repro.obs.live import LivePipeline, WindowConfig, WindowStats, feed_trace
from repro.obs.schema import EVENT_ALERT_FIRING, EVENT_ALERT_RESOLVED
from repro.obs.tracer import NULL_TRACER, Trace, Tracer

if TYPE_CHECKING:  # pragma: no cover - layering: obs stays network-light
    from repro.network.faults import FaultLog

#: rule kinds
THRESHOLD = "threshold"
BURN_RATE = "burn_rate"
ABSENCE = "absence"

#: firing/resolved states (transition labels and FaultLog kinds)
FIRING = "alerts_fired"
RESOLVED = "alerts_resolved"

_COMPARATORS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule over a named pipeline signal."""

    name: str
    signal: str
    kind: str = THRESHOLD
    threshold: float = 0.0
    comparison: str = ">"
    for_windows: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("alert rule name must be non-empty")
        if self.kind not in (THRESHOLD, BURN_RATE, ABSENCE):
            raise QueryError(
                f"rule {self.name!r}: kind must be one of "
                f"{THRESHOLD!r}/{BURN_RATE!r}/{ABSENCE!r}, got {self.kind!r}"
            )
        if self.comparison not in _COMPARATORS:
            raise QueryError(
                f"rule {self.name!r}: comparison must be one of "
                f"{sorted(_COMPARATORS)}, got {self.comparison!r}"
            )
        if self.for_windows < 1:
            raise QueryError(
                f"rule {self.name!r}: for_windows must be >= 1, "
                f"got {self.for_windows}"
            )

    def breaches(self, value: float) -> bool:
        """Does this signal value breach the rule?"""
        if self.kind == ABSENCE:
            return value <= self.threshold
        return _COMPARATORS[self.comparison](value, self.threshold)


@dataclass(frozen=True)
class AlertTransition:
    """One firing/resolved lifecycle edge of one rule."""

    time: int
    rule: str
    state: str
    signal: str
    kind: str
    value: float
    threshold: float


def load_rules(path: str | Path) -> list[AlertRule]:
    """Parse a JSON rules file into :class:`AlertRule` instances."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise QueryError(f"rules file {path} must hold a JSON list")
    allowed = {f.name for f in fields(AlertRule)}
    rules: list[AlertRule] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise QueryError(f"rules file {path}: entry {index} is not an object")
        unknown = sorted(set(entry) - allowed)
        if unknown:
            raise QueryError(
                f"rules file {path}: entry {index} has unknown keys {unknown}"
            )
        rules.append(AlertRule(**entry))
    return rules


class AlertEngine:
    """Evaluates rules at every window close; owns the alert lifecycle.

    ``tracer`` receives the transition events (attach the run's own
    :class:`~repro.obs.tracer.SinkTracer` so transitions enter the trace
    and the :class:`~repro.obs.tracer.RunMetricsSink` counters);
    ``fault_log`` is an *ops* log recording the same transitions under
    the kinds :data:`FIRING` / :data:`RESOLVED`, so
    ``FaultLog.counts()`` surfaces ``alerts_fired`` / ``alerts_resolved``
    next to the injected-fault kinds. It defaults to a dedicated private
    log: recording into a tracer-bridged fault log would double-count
    every transition as an injected fault.
    """

    def __init__(
        self,
        pipeline: LivePipeline,
        rules: list[AlertRule],
        tracer: Tracer | None = None,
        fault_log: "FaultLog | None" = None,
    ) -> None:
        names = [rule.name for rule in rules]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise QueryError(f"duplicate alert rule names: {duplicates}")
        self.pipeline = pipeline
        self.rules = list(rules)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if fault_log is None:
            # imported lazily to keep repro.obs importable without network
            from repro.network.faults import FaultLog

            fault_log = FaultLog()
        self.fault_log = fault_log
        self._streaks: dict[str, int] = {rule.name: 0 for rule in rules}
        self._firing: set[str] = set()
        self.transitions: list[AlertTransition] = []
        pipeline.add_listener(self.on_window)

    @property
    def firing(self) -> list[str]:
        """Names of the rules currently in the firing state, sorted."""
        return sorted(self._firing)

    def _value(self, rule: AlertRule, window: WindowStats) -> float:
        if rule.kind == BURN_RATE:
            view = self.pipeline.sliding()
            if view is None:  # pragma: no cover - listener implies a window
                view = window
            return float(view.signals().get(rule.signal, 0.0))
        return float(window.signals().get(rule.signal, 0.0))

    def on_window(self, window: WindowStats) -> None:
        """Evaluate every rule against one freshly closed window."""
        for rule in self.rules:
            value = self._value(rule, window)
            if rule.breaches(value):
                self._streaks[rule.name] += 1
                if (
                    rule.name not in self._firing
                    and self._streaks[rule.name] >= rule.for_windows
                ):
                    self._firing.add(rule.name)
                    self._transition(rule, FIRING, value, window.end)
            else:
                self._streaks[rule.name] = 0
                if rule.name in self._firing:
                    self._firing.discard(rule.name)
                    self._transition(rule, RESOLVED, value, window.end)

    def _transition(
        self, rule: AlertRule, state: str, value: float, time: int
    ) -> None:
        self.transitions.append(
            AlertTransition(
                time=time,
                rule=rule.name,
                state=state,
                signal=rule.signal,
                kind=rule.kind,
                value=value,
                threshold=rule.threshold,
            )
        )
        self.fault_log.record(
            time,
            state,
            detail=f"rule {rule.name}: {rule.signal}={value:g}",
        )
        if state == FIRING:
            self._tracer.event(
                EVENT_ALERT_FIRING,
                time=time,
                rule=rule.name,
                kind=rule.kind,
                signal=rule.signal,
                value=value,
                threshold=rule.threshold,
            )
        else:
            self._tracer.event(
                EVENT_ALERT_RESOLVED,
                time=time,
                rule=rule.name,
                kind=rule.kind,
                signal=rule.signal,
                value=value,
                threshold=rule.threshold,
            )


class AlertReplay:
    """One trace's replay wiring: a fresh pipeline and engine (whose null
    tracer emits nothing) plus, when the trace records promises
    (:data:`~repro.obs.audit.META_PROMISES`), the rebuilt auditor. As on
    the live tracer, the auditor sees each span before the pipeline and
    contributes ``audit_*`` signals, so burn-rate rules replay too. Add
    window listeners to :attr:`pipeline` before :meth:`run`.
    """

    def __init__(
        self, trace: Trace, rules: list[AlertRule], config: WindowConfig | None = None
    ) -> None:
        self.trace = trace
        self.pipeline = LivePipeline(config)
        self.engine = AlertEngine(self.pipeline, rules, tracer=NULL_TRACER)
        self.auditor = auditor_from_trace(trace)
        if self.auditor is not None:
            self.pipeline.add_contributor(self.auditor.signals)

    def run(self) -> list[AlertTransition]:
        """Feed the trace in delivery order; the engine's transitions."""
        sinks = [self.auditor] if self.auditor is not None else []
        feed_trace(self.pipeline, self.trace, sinks=sinks)
        return self.engine.transitions


def replay_alerts(
    trace: Trace,
    rules: list[AlertRule],
    config: WindowConfig | None = None,
) -> list[AlertTransition]:
    """Re-derive the alert transitions a trace's run would have fired.

    Recorded alert events are ignored as input by the pipeline, so
    replaying a trace that already contains them is not a feedback loop.
    """
    return AlertReplay(trace, rules, config).run()


def verify_alert_replay(
    trace: Trace,
    rules: list[AlertRule],
    config: WindowConfig | None = None,
) -> list[str]:
    """Mismatches between recorded alert events and a fresh replay.

    Empty means the trace's recorded ``alert_firing``/``alert_resolved``
    events are exactly what the same rules over the same records produce
    — the alerting analogue of
    :func:`repro.obs.analysis.verify_trace_consistency`.
    """
    recorded = alert_timeline(trace)
    replayed = replay_alerts(trace, rules, config)
    problems: list[str] = []
    if len(recorded) != len(replayed):
        problems.append(
            f"transition count: trace={len(recorded)} replay={len(replayed)}"
        )
    for index, (event, transition) in enumerate(zip(recorded, replayed)):
        expected_name = (
            EVENT_ALERT_FIRING if transition.state == FIRING else EVENT_ALERT_RESOLVED
        )
        observed = (
            event.name,
            event.time,
            event.attrs.get("rule"),
            event.attrs.get("kind"),
            event.attrs.get("signal"),
            event.attrs.get("value"),
            event.attrs.get("threshold"),
        )
        expected = (
            expected_name,
            transition.time,
            transition.rule,
            transition.kind,
            transition.signal,
            transition.value,
            transition.threshold,
        )
        if observed != expected:
            problems.append(
                f"transition {index}: trace={observed} replay={expected}"
            )
    return problems
