"""Live trace analytics: bounded-memory windowed aggregates, no replay.

Everything in :mod:`repro.obs.analysis` is post-hoc — it reads a finished
trace, so a run that silently burns its guarantee is only diagnosable
after the fact. :class:`LivePipeline` closes that gap: it is a
:class:`~repro.obs.tracer.TraceSink`, so a :class:`SinkTracer` fans the
span stream into it *as the run executes* (no JSONL round-trip), and it
maintains tumbling windows over simulated time:

* walk latency (count / sum / max) and walk failures;
* per-category message rates (:func:`~repro.obs.tracer.span_messages`)
  and fault counts (``fault`` events, ``sample_acquisition``'s ``n_lost``);
* pool hit ratio, snapshot-query and degraded-estimate counts;
* circuit-breaker churn plus the open-breaker fraction (globally and per
  origin) sampled at each window boundary;
* hop-segment transit latency (p95) and the orphan-span rate — transits
  delivered after their attempt was superseded (trace format v2; these
  signals stay zero unless the tracer records, since the non-recording
  fast path never creates hop segments).

Memory is bounded by construction: one open accumulator plus a
``deque(maxlen=history)`` of closed windows — a week-long run costs the
same memory as a minute-long one.

Determinism and replay
----------------------
The live stream delivers a span when it *ends* and a loose event when it
is emitted, so every delivery carries a non-decreasing timestamp; each
record is assigned to the window containing its delivery time (a span's
attached events are accounted at the span's end — that is when the sink
first sees them). Window accumulators are commutative within a tick, so
feeding the same records in any same-tick order yields identical
windows. :func:`feed_trace` exploits this: replaying an exported trace
through a fresh pipeline reproduces the live windows — and therefore the
exact alert transitions (:mod:`repro.obs.alerts`) — byte for byte. Sinks
that sat before the pipeline on the live tracer (the session's guarantee
auditor) are handed to :func:`feed_trace` and see each record just
before the pipeline does, as they did live.
Alert events are pipeline *output*, never input: they are ignored here
so a replayed trace cannot feed its own alerts back into the analytics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import QueryError
from repro.obs.schema import (
    EVENT_ADVERTISEMENT,
    EVENT_ALERT_FIRING,
    EVENT_ALERT_RESOLVED,
    EVENT_BREAKER_CLOSE,
    EVENT_BREAKER_TRIP,
    EVENT_FAULT,
    SPAN_HOP_SEGMENT,
    SPAN_SAMPLE_ACQUISITION,
    SPAN_SNAPSHOT_QUERY,
    SPAN_WALK,
)
from repro.obs.tracer import Span, Trace, TraceEvent, TraceSink, _as_int, span_messages

#: meta key a run writes so a replay closes its final (partial) window at
#: the same simulated time the live pipeline did
META_FINISHED_AT = "finished_at"


def _percentile(counts: dict[int, int], q: float) -> float:
    """The q-quantile of a value -> count map (0.0 when empty).

    Latencies are small simulated-tick integers, so a count map is both
    exact and bounded — no reservoir needed for a p95 over a window.
    """
    total = sum(counts.values())
    if not total:
        return 0.0
    rank = max(1, int(q * total) + (0 if q * total == int(q * total) else 1))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    return float(max(counts))


@dataclass(frozen=True)
class WindowConfig:
    """Windowing parameters of one pipeline.

    ``width`` is the tumbling-window width in simulated ticks; ``slide``
    is how many of the most recent closed windows the sliding view
    aggregates (burn-rate rules evaluate against it); ``history`` bounds
    how many closed windows are retained.
    """

    width: int = 50
    slide: int = 4
    history: int = 64

    def __post_init__(self) -> None:
        if self.width < 1:
            raise QueryError(f"window width must be >= 1, got {self.width}")
        if self.slide < 1:
            raise QueryError(f"slide must be >= 1, got {self.slide}")
        if self.history < self.slide:
            raise QueryError(
                f"history must be >= slide, got {self.history} < {self.slide}"
            )


@dataclass
class WindowStats:
    """Accumulated counts of one tumbling window (or a merged view).

    All count fields are commutative accumulators; the ``breaker_*``
    fraction fields are *state snapshots* taken at window close (merging
    keeps the most recent window's snapshot). ``extra`` holds contributor
    signals (e.g. the guarantee auditor's burn rate).
    """

    start: int
    end: int
    partial: bool = False
    walks: int = 0
    walks_failed: int = 0
    walk_latency_sum: int = 0
    walk_latency_max: int = 0
    messages: dict[str, int] = field(default_factory=dict)
    pool_hits: int = 0
    pool_misses: int = 0
    snapshots: int = 0
    degraded: int = 0
    faults: int = 0
    hops: int = 0
    hop_orphans: int = 0
    #: transit latency -> count (exact; latencies are small tick values)
    hop_latencies: dict[int, int] = field(default_factory=dict)
    breaker_trips: int = 0
    breaker_closes: int = 0
    breaker_open_fraction: float = 0.0
    breaker_open_by_origin: dict[object, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def width(self) -> int:
        return max(1, self.end - self.start)

    @property
    def message_total(self) -> int:
        return sum(self.messages.values())

    def signals(self) -> dict[str, float]:
        """Named scalar signals alert rules reference.

        Ratios are 0.0 when their denominator is empty — an empty window
        is a quiet one, not a broken one (absence rules exist to alarm
        on quiet).
        """
        values: dict[str, float] = {
            "walk_count": float(self.walks),
            "walk_latency_mean": (
                self.walk_latency_sum / self.walks if self.walks else 0.0
            ),
            "walk_latency_max": float(self.walk_latency_max),
            "walk_failure_fraction": (
                self.walks_failed / self.walks if self.walks else 0.0
            ),
            "message_rate": self.message_total / self.width,
            "pool_hit_ratio": (
                self.pool_hits / (self.pool_hits + self.pool_misses)
                if (self.pool_hits + self.pool_misses)
                else 0.0
            ),
            "snapshot_count": float(self.snapshots),
            "degraded_fraction": (
                self.degraded / self.snapshots if self.snapshots else 0.0
            ),
            "fault_count": float(self.faults),
            "hop_count": float(self.hops),
            "hop_latency_p95": _percentile(self.hop_latencies, 0.95),
            "orphan_span_rate": (
                self.hop_orphans / self.hops if self.hops else 0.0
            ),
            "breaker_trip_count": float(self.breaker_trips),
            "breaker_open_fraction": self.breaker_open_fraction,
        }
        values.update(self.extra)
        return values

    def merge(self, other: "WindowStats") -> None:
        """Fold a *later* window into this one (sliding-view building)."""
        self.end = max(self.end, other.end)
        self.start = min(self.start, other.start)
        self.partial = self.partial or other.partial
        self.walks += other.walks
        self.walks_failed += other.walks_failed
        self.walk_latency_sum += other.walk_latency_sum
        self.walk_latency_max = max(self.walk_latency_max, other.walk_latency_max)
        for category, count in other.messages.items():
            self.messages[category] = self.messages.get(category, 0) + count
        self.pool_hits += other.pool_hits
        self.pool_misses += other.pool_misses
        self.snapshots += other.snapshots
        self.degraded += other.degraded
        self.faults += other.faults
        self.hops += other.hops
        self.hop_orphans += other.hop_orphans
        for latency, count in other.hop_latencies.items():
            self.hop_latencies[latency] = (
                self.hop_latencies.get(latency, 0) + count
            )
        self.breaker_trips += other.breaker_trips
        self.breaker_closes += other.breaker_closes
        # state snapshots: the later window's view wins
        self.breaker_open_fraction = other.breaker_open_fraction
        self.breaker_open_by_origin = dict(other.breaker_open_by_origin)
        self.extra = dict(other.extra)


class LivePipeline:
    """Incremental stream processor over the tracer's span/event stream.

    Attach with ``tracer.add_sink(pipeline)``; windows close as delivery
    times cross tumbling boundaries. ``add_listener`` callbacks observe
    every closed window (the alert engine subscribes this way);
    ``add_contributor`` callables inject extra named signals into each
    window at close time (the guarantee auditor does).
    """

    def __init__(self, config: WindowConfig | None = None) -> None:
        self.config = config if config is not None else WindowConfig()
        self.windows: deque[WindowStats] = deque(maxlen=self.config.history)
        self._current: WindowStats | None = None
        self._listeners: list[Callable[[WindowStats], None]] = []
        self._contributors: list[Callable[[], dict[str, float]]] = []
        #: links with an open breaker right now / ever seen in an event
        self._open_links: set[tuple[object, object]] = set()
        self._known_links: set[tuple[object, object]] = set()
        self.records_seen = 0
        self.records_dropped = 0
        self.finished = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[WindowStats], None]) -> None:
        """Call ``listener(window)`` on every window close, in order."""
        self._listeners.append(listener)

    def add_contributor(
        self, contributor: Callable[[], dict[str, float]]
    ) -> None:
        """Merge ``contributor()`` into each closing window's signals."""
        self._contributors.append(contributor)

    # ------------------------------------------------------------------
    # windowing
    # ------------------------------------------------------------------

    def _window_for(self, time: int) -> WindowStats:
        width = self.config.width
        index = time // width
        start = index * width
        current = self._current
        if current is None:
            current = WindowStats(start=start, end=start + width)
            self._current = current
            return current
        if start > current.start:
            while current.start < start:
                self._close(current)
                current = WindowStats(
                    start=current.start + width, end=current.start + 2 * width
                )
            self._current = current
        return self._current

    def _close(self, window: WindowStats) -> None:
        window.breaker_open_fraction = self._open_fraction()
        window.breaker_open_by_origin = self._open_by_origin()
        for contributor in self._contributors:
            window.extra.update(contributor())
        self.windows.append(window)
        for listener in self._listeners:
            listener(window)

    def _open_fraction(self) -> float:
        if not self._known_links:
            return 0.0
        return len(self._open_links) / len(self._known_links)

    def _open_by_origin(self) -> dict[object, float]:
        known: dict[object, int] = {}
        opened: dict[object, int] = {}
        for origin, _neighbor in self._known_links:
            known[origin] = known.get(origin, 0) + 1
        for origin, _neighbor in self._open_links:
            opened[origin] = opened.get(origin, 0) + 1
        return {
            origin: opened.get(origin, 0) / total
            for origin, total in sorted(known.items(), key=lambda kv: str(kv[0]))
        }

    def finish(self, time: int) -> None:
        """Close the open (possibly partial) window at end of run.

        ``time`` is the run's final simulated tick; a replay must pass
        the same value (see :data:`META_FINISHED_AT`) to reproduce the
        final window — and any transitions it fires — exactly.
        """
        if self.finished:
            return
        self.finished = True
        current = self._current
        self._current = None
        if current is None:
            return
        if time < current.end:
            current.end = max(time, current.start)
            current.partial = True
        self._close(current)

    def sliding(self, windows: int | None = None) -> WindowStats | None:
        """Aggregate of the last ``windows`` closed windows (None = slide)."""
        k = windows if windows is not None else self.config.slide
        recent = list(self.windows)[-k:]
        if not recent:
            return None
        merged = WindowStats(start=recent[0].start, end=recent[0].start)
        for window in recent:
            merged.merge(window)
        return merged

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------

    def on_span_end(self, span: Span) -> None:
        if span.end is None or span.end < 0:
            self.records_dropped += 1
            return
        self.records_seen += 1
        window = self._window_for(span.end)
        messages = window.messages
        for category, count in span_messages(span).items():
            messages[category] = messages.get(category, 0) + count
        if span.name == SPAN_SAMPLE_ACQUISITION:
            window.faults += _as_int(span.attrs.get("n_lost"))
        elif span.name == SPAN_WALK:
            window.walks += 1
            window.walk_latency_sum += span.duration
            window.walk_latency_max = max(window.walk_latency_max, span.duration)
            if span.attrs.get("outcome") == "failed":
                window.walks_failed += 1
        elif span.name == SPAN_HOP_SEGMENT:
            window.hops += 1
            latency = span.duration
            window.hop_latencies[latency] = (
                window.hop_latencies.get(latency, 0) + 1
            )
            if bool(span.attrs.get("orphaned", False)):
                window.hop_orphans += 1
        elif span.name == SPAN_SNAPSHOT_QUERY:
            window.snapshots += 1
            if bool(span.attrs.get("degraded", False)):
                window.degraded += 1
            window.pool_hits += _as_int(span.attrs.get("n_hit"))
            window.pool_misses += _as_int(span.attrs.get("n_miss"))

    def on_event(self, event: TraceEvent) -> None:
        if event.name in (EVENT_ALERT_FIRING, EVENT_ALERT_RESOLVED):
            return  # pipeline output, never input (replay symmetry)
        if event.time < 0:
            self.records_dropped += 1
            return
        self.records_seen += 1
        window = self._window_for(event.time)
        if event.name == EVENT_FAULT:
            window.faults += 1
        elif event.name == EVENT_ADVERTISEMENT:
            window.messages["control"] = window.messages.get("control", 0) + 1
        elif event.name == EVENT_BREAKER_TRIP:
            link = (event.attrs.get("origin"), event.attrs.get("neighbor"))
            self._known_links.add(link)
            self._open_links.add(link)
            window.breaker_trips += 1
        elif event.name == EVENT_BREAKER_CLOSE:
            link = (event.attrs.get("origin"), event.attrs.get("neighbor"))
            self._known_links.add(link)
            self._open_links.discard(link)
            window.breaker_closes += 1


def feed_trace(
    pipeline: LivePipeline,
    trace: Trace,
    finish_time: int | None = None,
    sinks: Sequence[TraceSink] = (),
) -> LivePipeline:
    """Replay a finished trace through a pipeline in delivery order.

    Spans are delivered in (end, span_id) order and loose events in
    (time, emission) order — the same delivery times the live stream
    produced; same-tick interleaving between the two streams is
    unobservable because window accumulators are commutative within a
    tick. ``finish_time`` defaults to the trace's recorded
    :data:`META_FINISHED_AT` (falling back to the latest delivery time),
    so the final partial window closes exactly as it did live.

    Each of ``sinks`` receives every record just before the pipeline
    does, in the order given — the place a session's guarantee auditor
    holds on the live tracer, so its contributed signals see the same
    spans at each window close.
    """
    deliveries: list[tuple[int, int, int, object]] = []
    for span in trace.spans:
        if span.end is not None and span.end >= 0:
            deliveries.append((span.end, 0, span.span_id, span))
    for index, event in enumerate(trace.events):
        if event.time >= 0:
            deliveries.append((event.time, 1, index, event))
    deliveries.sort(key=lambda item: (item[0], item[1], item[2]))
    receivers: list[TraceSink] = [*sinks, pipeline]
    for _time, kind, _seq, record in deliveries:
        for receiver in receivers:
            deliver = receiver.on_span_end if kind == 0 else receiver.on_event
            deliver(record)  # type: ignore[arg-type]
    if finish_time is None:
        recorded = trace.meta.get(META_FINISHED_AT)
        if isinstance(recorded, (int, float)) and not isinstance(recorded, bool):
            finish_time = int(recorded)
        elif deliveries:
            finish_time = deliveries[-1][0]
        else:
            finish_time = 0
    pipeline.finish(finish_time)
    return pipeline
