"""Post-hoc trace analysis: the numbers behind the paper's figures.

Everything here works on an exported/imported :class:`~repro.obs.tracer.Trace`
alone — no simulation re-run. The reconstruction functions mirror the live
bookkeeping exactly:

* :func:`run_metrics_from_trace` feeds the trace through the *same*
  :class:`~repro.obs.tracer.RunMetricsSink` the engine uses live, so
  :func:`verify_trace_consistency` can demand exact counter equality;
* :func:`message_attribution` rebuilds the per-category message cost
  (first-attempt vs. retry vs. probe vs. advertisement) in the
  :class:`~repro.network.messaging.MessageLedger` categories, reading
  each span through :func:`~repro.obs.tracer.span_messages`;
* :func:`walk_latency_histogram`, :func:`fault_timeline`,
  :func:`degraded_timeline` and :func:`trigger_breakdown` reconstruct the
  diagnostic views the ``repro-digest trace summarize`` CLI prints;
* :func:`folded_stacks` emits flamegraph-style folded stacks over
  simulated time;
* the causal layer (:mod:`repro.obs.causal`) is re-exported here:
  :func:`assemble` joins hop segments back into per-walk causal trees,
  :func:`hop_latency_attribution` splits transit latency by category,
  and :func:`critical_paths` names the hop chain that bounded each walk
  batch (``repro-digest trace critpath``).
"""

from __future__ import annotations

from repro.obs.causal import (
    CausalAssembly as CausalAssembly,
    CausalHop as CausalHop,
    CriticalPath as CriticalPath,
    WalkTree as WalkTree,
    assemble as assemble,
    critical_paths as critical_paths,
    hop_latency_attribution as hop_latency_attribution,
)
from repro.obs.registry import DEFAULT_DURATION_BUCKETS, Histogram
from repro.obs.schema import (
    EVENT_ADVERTISEMENT,
    EVENT_ALERT_FIRING,
    EVENT_ALERT_RESOLVED,
    EVENT_FAULT,
    SPAN_SHARED_WALK_BATCH,
    SPAN_SNAPSHOT_QUERY,
    SPAN_WALK,
)
from repro.obs.tracer import (
    RunMetricsSink,
    Span,
    Trace,
    TraceEvent,
    _as_int,
    span_messages,
)
from repro.sim.metrics import RunMetrics

#: The scalar counters RunMetricsSink derives; the consistency check
#: compares exactly these.
COUNTER_FIELDS = (
    "snapshot_queries",
    "samples_total",
    "samples_fresh",
    "samples_retained",
    "walks_retried",
    "walks_failed",
    "faults_injected",
    "degraded_estimates",
    "pool_hits",
    "pool_misses",
    "alerts_fired",
    "alerts_resolved",
)


def run_metrics_from_trace(trace: Trace) -> RunMetrics:
    """Reconstruct the run's counters by replaying the span stream.

    Uses the same :class:`~repro.obs.tracer.RunMetricsSink` the live
    engine attaches, so the counter semantics cannot drift between the
    live path and the replay path.
    """
    metrics = RunMetrics()
    sink = RunMetricsSink(metrics)
    for span in trace.spans:
        sink.on_span_end(span)
    for event in trace.events:
        sink.on_event(event)
    return metrics


def counter_dict(metrics: RunMetrics) -> dict[str, int]:
    """The scalar counters as a plain dict (fixed field order)."""
    return {name: int(getattr(metrics, name)) for name in COUNTER_FIELDS}


def verify_trace_consistency(trace: Trace, live: RunMetrics) -> list[str]:
    """Mismatches between replayed-trace counters and live counters.

    Returns one ``"name: trace=X live=Y"`` line per differing counter —
    empty means the trace fully accounts for the live run (the CI gate).
    """
    replayed = counter_dict(run_metrics_from_trace(trace))
    actual = counter_dict(live)
    return [
        f"{name}: trace={replayed[name]} live={actual[name]}"
        for name in COUNTER_FIELDS
        if replayed[name] != actual[name]
    ]


def message_attribution(trace: Trace) -> dict[str, int]:
    """Per-category message counts: every span's :func:`span_messages`.

    The :class:`~repro.network.messaging.MessageLedger` categories:
    ``walk_steps`` / ``sample_returns`` are first-attempt traffic,
    ``retries`` is all traffic of attempts >= 2, a span's ``control`` is
    its ``probes`` (request + reply per cache miss), and ``probes`` plus
    the loose ``advertisements`` sum to ``control``.
    """
    traffic = ("walk_steps", "sample_returns", "retries")
    attribution = dict.fromkeys((*traffic, "probes", "advertisements"), 0)
    for span in trace.spans:
        for category, count in span_messages(span).items():
            key = "probes" if category == "control" else category
            attribution[key] = attribution.get(key, 0) + count
    for event in trace.events:
        if event.name == EVENT_ADVERTISEMENT:
            attribution["advertisements"] += 1
    attribution["control"] = attribution["probes"] + attribution["advertisements"]
    attribution["total"] = sum(attribution[key] for key in (*traffic, "control"))
    return attribution


def shared_walk_attribution(trace: Trace) -> dict[str, dict[str, int]]:
    """Per-query accounting of pool serving and coalesced walk batches.

    Every ``snapshot_query`` span a pool served names its query and
    carries the evaluation's pool hits and misses; every
    ``shared_walk_batch`` span (and, in older recorded protocol traces,
    every ``walk`` span launched by a batch) carries the comma-joined ids
    of *all* its consumers. This reconstructs, per query id: how many
    pooled samples it reused (``pool_hits``), how many fresh draws it
    triggered (``pool_misses``), how many coalesced batches it consumed
    from (``shared_batches``) with how many delivered samples
    (``batch_samples``), and how many attributed protocol walks served it
    (``walks``) — the per-query view of costs that the shared substrate
    pays only once.
    """
    per_query: dict[str, dict[str, int]] = {}

    def entry(query_id: str) -> dict[str, int]:
        return per_query.setdefault(
            query_id,
            {
                "pool_hits": 0,
                "pool_misses": 0,
                "shared_batches": 0,
                "batch_samples": 0,
                "walks": 0,
            },
        )

    for span in trace.spans_named(SPAN_SNAPSHOT_QUERY):
        if "n_hit" in span.attrs:
            record = entry(str(span.attrs.get("query", "?")))
            record["pool_hits"] += _as_int(span.attrs.get("n_hit"))
            record["pool_misses"] += _as_int(span.attrs.get("n_miss"))
    for span in trace.spans_named(SPAN_SHARED_WALK_BATCH):
        consumers = str(span.attrs.get("consumers", ""))
        for query_id in filter(None, consumers.split(",")):
            record = entry(query_id)
            record["shared_batches"] += 1
            record["batch_samples"] += _as_int(span.attrs.get("n_drawn"))
    for span in trace.spans_named(SPAN_WALK):
        consumers = str(span.attrs.get("consumers", ""))
        for query_id in filter(None, consumers.split(",")):
            entry(query_id)["walks"] += 1
    return dict(sorted(per_query.items()))


def walk_latency_histogram(
    trace: Trace,
    boundaries: tuple[float, ...] = DEFAULT_DURATION_BUCKETS,
) -> Histogram:
    """Simulated-time latency distribution of finished walks."""
    histogram = Histogram("walk_latency", tuple(boundaries))
    for span in trace.spans_named(SPAN_WALK):
        if span.end is not None:
            histogram.observe(float(span.duration))
    return histogram


def walk_outcomes(trace: Trace) -> dict[str, int]:
    """Finished walks by outcome (``completed`` / ``failed``)."""
    counts: dict[str, int] = {}
    for span in trace.spans_named(SPAN_WALK):
        outcome = str(span.attrs.get("outcome", "open"))
        counts[outcome] = counts.get(outcome, 0) + 1
    return dict(sorted(counts.items()))


def fault_timeline(trace: Trace) -> list[TraceEvent]:
    """All fault events in time order (time ``-1`` = outside the loop)."""
    return sorted(
        (event for event in trace.events if event.name == EVENT_FAULT),
        key=lambda event: event.time,
    )


def alert_timeline(trace: Trace) -> list[TraceEvent]:
    """All alert firing/resolved transitions in time order.

    Alert transitions are recorded as loose schema events by the live
    alert engine (:mod:`repro.obs.alerts`), so a finished trace replays
    the alerting history without re-running the pipeline. The sort is
    stable: same-tick transitions keep their emission order.
    """
    return sorted(
        (
            event
            for event in trace.events
            if event.name in (EVENT_ALERT_FIRING, EVENT_ALERT_RESOLVED)
        ),
        key=lambda event: event.time,
    )


def degraded_timeline(trace: Trace) -> list[Span]:
    """Snapshot-query spans whose estimate was honestly degraded."""
    return [
        span
        for span in trace.spans_named(SPAN_SNAPSHOT_QUERY)
        if bool(span.attrs.get("degraded", False))
    ]


def trigger_breakdown(trace: Trace) -> dict[str, int]:
    """Snapshot queries by trigger reason (bootstrap/periodic/...)."""
    counts: dict[str, int] = {}
    for span in trace.spans_named(SPAN_SNAPSHOT_QUERY):
        reason = str(span.attrs.get("trigger", "unknown"))
        counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items()))


def folded_stacks(trace: Trace, weight: str = "time") -> dict[str, int]:
    """Flamegraph folded stacks (``parent;child value`` semantics).

    ``weight="time"`` sums each span's *self* simulated time (duration
    minus finished children); ``weight="count"`` counts spans per stack.
    Feed the result to any standard flamegraph renderer.
    """
    if weight not in ("time", "count"):
        raise ValueError(f"weight must be 'time' or 'count', got {weight!r}")
    spans_by_id = {span.span_id: span for span in trace.spans}
    children_time: dict[int, int] = {}
    for span in trace.spans:
        if span.parent_id is not None and span.end is not None:
            children_time[span.parent_id] = (
                children_time.get(span.parent_id, 0) + span.duration
            )
    stacks: dict[str, int] = {}
    for span in trace.spans:
        if span.end is None:
            continue
        path = [span.name]
        cursor = span
        while cursor.parent_id is not None:
            parent = spans_by_id.get(cursor.parent_id)
            if parent is None:
                break
            path.append(parent.name)
            cursor = parent
        stack = ";".join(reversed(path))
        value = (
            max(0, span.duration - children_time.get(span.span_id, 0))
            if weight == "time"
            else 1
        )
        stacks[stack] = stacks.get(stack, 0) + value
    return dict(sorted(stacks.items()))
