"""Structured trace spans over simulated time.

A :class:`Span` covers an interval of *simulated* time (a walk, a sample
acquisition, a snapshot query); a :class:`TraceEvent` marks an instant
(a hop, a retry, a fault, one message). Spans nest through ``parent_id``
and carry free-form attributes, so a trace is a forest annotated with
exactly the quantities the paper's cost model is denominated in.

Two tracers share one interface:

* :class:`Tracer` itself, as the shared :data:`NULL_TRACER` — every call
  is a no-op returning a shared immutable span, so instrumented hot paths
  pay one dynamic dispatch and nothing else;
* :class:`SinkTracer` — builds real spans and hands each *finished* span
  (and each span-less event) to its :class:`TraceSink` instances. The
  canonical sink is :class:`RunMetricsSink`, which derives the
  :class:`~repro.sim.metrics.RunMetrics` counters from the span stream —
  call sites no longer book counters by hand, so the live counters and a
  replayed trace cannot drift apart. With ``record=True`` it also retains
  every span and event for export (:meth:`SinkTracer.trace`,
  :func:`repro.obs.export.export_trace`), and producers construct every
  per-hop/per-message span event (:attr:`Tracer.is_recording`).

Simulated time is threaded explicitly (``time=`` arguments) or read from
a clock passed at construction; a span recorded outside the event loop
uses ``-1``, the same sentinel :class:`~repro.network.faults.FaultEvent`
uses. Wall-clock time never enters a span — profiling is a separate,
clearly-labeled concern (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.obs.profile import WallClockProfiler
from repro.obs.schema import (
    EVENT_ALERT_FIRING,
    EVENT_ALERT_RESOLVED,
    EVENT_FAULT,
    EVENT_MESSAGE,
    EVENT_PROBE,
    SPAN_SAMPLE_ACQUISITION,
    SPAN_SNAPSHOT_QUERY,
    SPAN_WALK,
)
from repro.sim.clock import SimulationClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.network.faults import FaultEvent, FaultLog
    from repro.sim.metrics import RunMetrics

#: Simulated-time sentinel for "outside the event loop" (mirrors
#: :class:`repro.network.faults.FaultEvent`).
NO_TIME = -1

ClockSource = Callable[[], int]


@dataclass(slots=True)
class TraceEvent:
    """One instantaneous occurrence, optionally attached to a span."""

    time: int
    name: str
    attrs: dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Span:
    """One interval of simulated time with attributes and child events.

    ``end`` stays ``None`` while the span is open; :meth:`Tracer.end`
    closes it. ``parent_id`` is ``None`` for roots.
    """

    span_id: int
    name: str
    start: int
    parent_id: int | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    end: int | None = None

    def set(self, **attrs: object) -> None:
        """Merge attributes into the span."""
        self.attrs.update(attrs)

    def add_event(self, time: int, name: str, **attrs: object) -> None:
        """Append an instantaneous child event."""
        self.events.append(TraceEvent(time=time, name=name, attrs=attrs))

    @property
    def duration(self) -> int:
        """Simulated-time extent (0 while the span is still open)."""
        return 0 if self.end is None else self.end - self.start


class _NullSpan(Span):
    """The shared do-nothing span handed out by the no-op :class:`Tracer`."""

    def set(self, **attrs: object) -> None:
        return None

    def add_event(self, time: int, name: str, **attrs: object) -> None:
        return None


#: Singleton no-op span; identity-checkable (``span is NULL_SPAN``).
NULL_SPAN = _NullSpan(span_id=-1, name="null", start=NO_TIME)


class TraceSink(Protocol):
    """Receives finished spans and span-less events from a tracer.

    A span's ``events`` list is filled only on a recording tracer
    (:attr:`Tracer.is_recording`); a sink that must work on every tracer
    reads span *attributes*, which producers always set.
    """

    def on_span_end(self, span: Span) -> None:
        """Called exactly once per span, when it is closed."""
        ...

    def on_event(self, event: TraceEvent) -> None:
        """Called for each event recorded outside any span."""
        ...


class Tracer:
    """Tracer interface; the base class itself is the no-op tracer."""

    #: True when the tracer retains every span and event for export, so
    #: producers must construct every span event; False lets per-hop and
    #: per-message hooks surface aggregate span attributes instead. A plain
    #: attribute, not a property — the hooks read it at message rate.
    is_recording: bool = False

    @property
    def enabled(self) -> bool:
        """False when every call is a no-op (hot paths may early-out)."""
        return False

    @property
    def meta(self) -> dict[str, object]:
        """Run metadata; a fresh throwaway dict, so writes are dropped."""
        return {}

    def span(
        self,
        name: str,
        time: int | None = None,
        parent: Span | None = None,
        **attrs: object,
    ) -> Span:
        """Open a span starting now (or at the explicit ``time``)."""
        return NULL_SPAN

    def end(self, span: Span, time: int | None = None, **attrs: object) -> None:
        """Close ``span``, merging final attributes."""
        return None

    def event(
        self,
        name: str,
        time: int | None = None,
        span: Span | None = None,
        **attrs: object,
    ) -> None:
        """Record an instantaneous event, attached to ``span`` when given."""
        return None

    def profile(self, section: str) -> AbstractContextManager[None]:
        """Wall-clock section timer (no-op without a profiler attached)."""
        return nullcontext()

    def add_sink(self, sink: TraceSink) -> None:
        """Attach a sink (dropped — a disabled tracer feeds nothing)."""
        return None

    @property
    def has_clock(self) -> bool:
        """True when untimed records get stamped (vacuously, here)."""
        return True

    def set_clock(self, clock: SimulationClock | ClockSource) -> None:
        """Wire a simulated-time source (dropped — nothing to stamp)."""
        return None


#: Shared default tracer instance; instrumented constructors fall back to
#: it so disabling tracing allocates nothing.
NULL_TRACER = Tracer()


class SinkTracer(Tracer):
    """Builds real spans and dispatches finished ones to sinks.

    ``clock`` supplies simulated time when a call omits ``time=``: either
    a :class:`~repro.sim.clock.SimulationClock` or any ``() -> int``
    callable; without one, untimed records use ``-1`` (outside the event
    loop). ``profiler`` enables :meth:`profile` sections. ``record=True``
    retains every finished span and span-less event for :meth:`trace`.
    Span ids are assigned sequentially, so identical runs produce
    identical traces.
    """

    def __init__(
        self,
        sinks: list[TraceSink] | None = None,
        clock: SimulationClock | ClockSource | None = None,
        profiler: WallClockProfiler | None = None,
        meta: dict[str, object] | None = None,
        record: bool = False,
    ) -> None:
        self._sinks: list[TraceSink] = list(sinks) if sinks else []
        self.is_recording = record
        self._spans: list[Span] = []
        self._events: list[TraceEvent] = []
        self._clock: ClockSource | None = None
        if clock is not None:
            self.set_clock(clock)
        self._profiler = profiler
        self._meta: dict[str, object] = dict(meta) if meta else {}
        self._next_id = 1
        self.spans_started = 0
        self.spans_ended = 0

    @property
    def enabled(self) -> bool:
        return True

    @property
    def meta(self) -> dict[str, object]:
        """Run metadata, exported with the trace."""
        return self._meta

    def add_sink(self, sink: TraceSink) -> None:
        """Attach another sink (receives only spans finished afterwards)."""
        self._sinks.append(sink)

    @property
    def has_clock(self) -> bool:
        """True once a simulated-time source is wired in."""
        return self._clock is not None

    def set_clock(self, clock: SimulationClock | ClockSource) -> None:
        """Wire a simulated-time source after construction.

        The component driving the run (e.g. a session's step loop) wires
        its clock in so records whose call sites omit ``time=`` are
        stamped with the current simulated time instead of ``-1``;
        refuses to replace an existing clock — two drivers stamping one
        tracer would interleave nondeterministically.
        """
        if self._clock is not None:
            raise ValueError("tracer already has a clock")
        if isinstance(clock, SimulationClock):
            self._clock = lambda: clock.now
        else:
            self._clock = clock

    def _now(self, time: int | None) -> int:
        if time is not None:
            return time
        if self._clock is not None:
            return self._clock()
        return NO_TIME

    def span(
        self,
        name: str,
        time: int | None = None,
        parent: Span | None = None,
        **attrs: object,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            name=name,
            start=self._now(time),
            parent_id=(
                parent.span_id
                if parent is not None and parent is not NULL_SPAN
                else None
            ),
            # the ** kwargs dict is freshly built per call — safe to own
            attrs=attrs,
        )
        self._next_id += 1
        self.spans_started += 1
        return span

    def end(self, span: Span, time: int | None = None, **attrs: object) -> None:
        if span is NULL_SPAN or span.end is not None:
            return
        span.attrs.update(attrs)
        span.end = max(self._now(time), span.start)
        self.spans_ended += 1
        if self.is_recording:
            self._spans.append(span)
        for sink in self._sinks:
            sink.on_span_end(span)

    def event(
        self,
        name: str,
        time: int | None = None,
        span: Span | None = None,
        **attrs: object,
    ) -> None:
        event = TraceEvent(time=self._now(time), name=name, attrs=attrs)
        if span is not None and span is not NULL_SPAN:
            span.events.append(event)
            return
        # recorded before the sinks run, so an event a sink emits in
        # response (an alert transition) follows its cause in the trace
        if self.is_recording:
            self._events.append(event)
        for sink in self._sinks:
            sink.on_event(event)

    def profile(self, section: str) -> AbstractContextManager[None]:
        if self._profiler is None:
            return nullcontext()
        return self._profiler.section(section)

    def trace(self) -> Trace:
        """The trace recorded so far (finished spans, in id order)."""
        if not self.is_recording:
            raise ValueError(
                "tracer does not record; build it with record=True"
            )
        return Trace(
            spans=sorted(self._spans, key=lambda s: s.span_id),
            events=list(self._events),
            meta=dict(self.meta),
        )


@dataclass
class Trace:
    """A finished trace: all retained spans, span-less events, metadata."""

    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)

    def spans_named(self, name: str) -> list[Span]:
        """All spans with the given name, in id order."""
        return [span for span in self.spans if span.name == name]

    def summary(self) -> dict[str, int]:
        """Deterministic shape digest: span/event counts by name.

        Span-attached events are prefixed ``event:``, span-less ones
        ``loose:`` — the JSONL round-trip test asserts this digest is
        identical after export → import.
        """
        digest: dict[str, int] = {}
        for span in self.spans:
            key = f"span:{span.name}"
            digest[key] = digest.get(key, 0) + 1
            for event in span.events:
                ekey = f"event:{event.name}"
                digest[ekey] = digest.get(ekey, 0) + 1
        for event in self.events:
            lkey = f"loose:{event.name}"
            digest[lkey] = digest.get(lkey, 0) + 1
        return dict(sorted(digest.items()))


# ----------------------------------------------------------------------
# canonical sinks
# ----------------------------------------------------------------------


def _as_int(value: object, default: int = 0) -> int:
    """Attribute values are typed ``object``; coerce numbers, else default."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    return default


#: the ledger category of each protocol ``message`` event's ``category``
LEDGER_CATEGORY = {"walk": "walk_steps", "return": "sample_returns", "retry": "retries"}


def span_messages(span: Span) -> dict[str, int]:
    """The messages ``span`` accounts for, keyed by ledger category.

    Its ``messages_by_category`` when set (every ``sample_acquisition``
    span; a protocol ``walk`` span on a non-recording tracer), else its
    recorded ``message`` events bucketed through :data:`LEDGER_CATEGORY`
    and its ``probe`` round-trips as ``control`` (recorded protocol traces).
    """
    attached = span.attrs.get("messages_by_category")
    if isinstance(attached, dict):
        return attached
    counts: dict[str, int] = {}
    for event in span.events:
        if event.name == EVENT_MESSAGE:
            key = LEDGER_CATEGORY.get(str(event.attrs.get("category")))
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        elif event.name == EVENT_PROBE:
            probe = _as_int(event.attrs.get("messages"), default=2)
            counts["control"] = counts.get("control", 0) + probe
    return counts


class RunMetricsSink:
    """Derives :class:`~repro.sim.metrics.RunMetrics` counters from spans.

    This is the *single source of truth* for the counter semantics; the
    replay side (:func:`repro.obs.analysis.run_metrics_from_trace`) feeds
    an imported trace through this same class, which is why the
    trace-vs-live consistency check can demand exact equality:

    * ``snapshot_query`` span → ``snapshot_queries`` +1; ``samples_total``
      / ``samples_fresh`` / ``samples_retained`` from the span's
      ``n_total`` / ``n_fresh`` / ``n_retained``; ``degraded_estimates``
      +1 when ``degraded`` is true; ``pool_hits`` / ``pool_misses`` from
      ``n_hit`` / ``n_miss`` (the evaluation's shared-sample-pool reuse,
      absent where no pool served it).
    * ``walk`` span → ``walks_retried`` += ``attempts`` - 1;
      ``walks_failed`` +1 when ``outcome == "failed"``.
    * ``sample_acquisition`` span → ``faults_injected`` += ``n_lost``.
    * span-less ``fault`` event → ``faults_injected`` +1.
    * span-less ``alert_firing`` / ``alert_resolved`` event →
      ``alerts_fired`` / ``alerts_resolved`` +1 (live alert engine
      transitions; see :mod:`repro.obs.alerts`).
    """

    def __init__(self, metrics: "RunMetrics") -> None:
        self.metrics = metrics

    def on_span_end(self, span: Span) -> None:
        metrics = self.metrics
        if span.name == SPAN_SNAPSHOT_QUERY:
            metrics.snapshot_queries += 1
            metrics.samples_total += _as_int(span.attrs.get("n_total"))
            metrics.samples_fresh += _as_int(span.attrs.get("n_fresh"))
            metrics.samples_retained += _as_int(span.attrs.get("n_retained"))
            if bool(span.attrs.get("degraded", False)):
                metrics.degraded_estimates += 1
            metrics.pool_hits += _as_int(span.attrs.get("n_hit"))
            metrics.pool_misses += _as_int(span.attrs.get("n_miss"))
        elif span.name == SPAN_WALK:
            attempts = _as_int(span.attrs.get("attempts"), default=1)
            metrics.walks_retried += max(0, attempts - 1)
            if span.attrs.get("outcome") == "failed":
                metrics.walks_failed += 1
        elif span.name == SPAN_SAMPLE_ACQUISITION:
            metrics.faults_injected += _as_int(span.attrs.get("n_lost"))

    def on_event(self, event: TraceEvent) -> None:
        if event.name == EVENT_FAULT:
            self.metrics.faults_injected += 1
        elif event.name == EVENT_ALERT_FIRING:
            self.metrics.alerts_fired += 1
        elif event.name == EVENT_ALERT_RESOLVED:
            self.metrics.alerts_resolved += 1


def bridge_fault_log(log: "FaultLog", tracer: Tracer) -> None:
    """Mirror every :class:`~repro.network.faults.FaultEvent` as a trace event.

    Subscribes to the log keyed by the tracer's identity, so bridging the
    same log to the same tracer twice (e.g. a fault plan shared between an
    operator and a protocol sampler) records each fault once. A fault
    recorded without a clock (:data:`NO_TIME`) takes the tracer's.
    """
    if not tracer.enabled:
        return

    def forward(event: "FaultEvent") -> None:
        tracer.event(
            EVENT_FAULT,
            time=None if event.time == NO_TIME else event.time,
            kind=event.kind,
            walker_id=event.walker_id,
            node=event.node,
            detail=event.detail,
        )

    log.subscribe(forward, key=f"obs-tracer-{id(tracer)}")
