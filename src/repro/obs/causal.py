"""Cross-node causal assembly of hop-level traces.

Trace format v2 records one ``hop_segment`` span per message transit,
carrying the :class:`~repro.protocol.messages.TraceContext` the message
itself carried (``ctx_trace`` = the owning walk span's id, ``ctx_attempt``
= the attempt that sent it). This module joins those segments back into
per-walk causal trees *offline*, from the trace alone — no access to the
simulation — which is exactly the position an operator of the future
asyncio backend will be in.

Assembly is deliberately forgiving, because the overlay is unreliable by
design:

* a transit the transport dropped (loss, partition cut, crashed
  receiver) was never closed, so it never reached the export — the chain
  simply has a gap where the overlay swallowed the message;
* a transit delivered after its attempt was superseded or resolved is an
  **orphan**: it really happened (and was billed), but no live chain
  claims it — :class:`WalkTree` keeps orphans separate from the final
  attempt's chain;
* a segment whose walk span is missing entirely (e.g. a truncated
  export) is **unrooted** and collects on the assembly, never raising;
* a v1 trace has no segments at all and assembles to bare walk trees.

:func:`critical_paths` answers the latency question the paper's cost
model keeps implicit: *which hop chain bounded the batch?* The last walk
to finish bounds a coalesced batch's wall-clock, and its chain splits
that bound into transit latency (time on the wire) and supervision
latency (handler time, lazy self-loops, retry backoff) — the two knobs a
deployment can actually turn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.schema import SPAN_HOP_SEGMENT, SPAN_SHARED_WALK_BATCH, SPAN_WALK
from repro.obs.tracer import Span, Trace, _as_int


@dataclass(frozen=True)
class CausalHop:
    """One assembled message transit (send to delivery)."""

    span_id: int
    start: int
    end: int
    from_node: int
    to_node: int
    category: str
    attempt: int
    orphaned: bool

    @property
    def latency(self) -> int:
        """Transit time in ticks (hop latency plus any jitter)."""
        return self.end - self.start

    def as_dict(self) -> dict[str, object]:
        """JSON-portable shape (used by the CLI report)."""
        return {
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "from_node": self.from_node,
            "to_node": self.to_node,
            "category": self.category,
            "attempt": self.attempt,
            "latency": self.latency,
        }


@dataclass
class WalkTree:
    """The assembled causal tree of one supervised walk."""

    walker_id: int
    #: the owning walk span's id (what every segment's ``ctx_trace`` names)
    trace_id: int
    span: Span
    #: delivered transits of the *final* attempt, in delivery order
    chain: list[CausalHop]
    #: delivered transits no live chain claims (superseded attempts,
    #: post-resolution deliveries)
    orphans: list[CausalHop]

    @property
    def walk_latency(self) -> int:
        """The walk span's full extent (all attempts, launch to end)."""
        return self.span.duration

    @property
    def chain_latency(self) -> int:
        """Ticks the final attempt spent in transit (sum of hop latencies)."""
        return sum(hop.latency for hop in self.chain)

    @property
    def supervision_latency(self) -> int:
        """Everything that was not transit: handlers, laziness, retries."""
        return max(0, self.walk_latency - self.chain_latency)


@dataclass
class CausalAssembly:
    """Every walk tree of a trace, plus the segments nothing claims."""

    walks: list[WalkTree]
    #: delivered segments whose walk span is absent from the trace
    unrooted: list[CausalHop]

    @property
    def n_hops(self) -> int:
        return sum(len(tree.chain) + len(tree.orphans) for tree in self.walks)

    @property
    def n_orphans(self) -> int:
        return sum(len(tree.orphans) for tree in self.walks) + len(self.unrooted)

    @property
    def orphan_rate(self) -> float:
        """Fraction of assembled transits no live chain claims."""
        total = self.n_hops + len(self.unrooted)
        return self.n_orphans / total if total else 0.0

    def summary(self) -> dict[str, object]:
        """JSON-portable assembly statistics."""
        return {
            "n_walks": len(self.walks),
            "n_hops": self.n_hops,
            "n_orphans": self.n_orphans,
            "n_unrooted": len(self.unrooted),
            "orphan_rate": self.orphan_rate,
        }


def _hop_from_segment(span: Span) -> CausalHop:
    attrs = span.attrs
    return CausalHop(
        span_id=span.span_id,
        start=span.start,
        end=span.end if span.end is not None else span.start,
        from_node=_as_int(attrs.get("from_node"), default=-1),
        to_node=_as_int(attrs.get("to_node"), default=-1),
        category=str(attrs.get("category", "")),
        attempt=_as_int(attrs.get("ctx_attempt"), default=1),
        orphaned=bool(attrs.get("orphaned", False)),
    )


def assemble(trace: Trace) -> CausalAssembly:
    """Join hop segments to their walks by the context they carried.

    Never raises on damaged input: dropped messages are gaps, superseded
    deliveries are orphans, segments without a walk span are unrooted,
    and a trace with no segments (v1, or non-recording) yields trees
    with empty chains.
    """
    walk_spans = {
        span.span_id: span for span in trace.spans if span.name == SPAN_WALK
    }
    by_trace: dict[int, list[CausalHop]] = {}
    unrooted: list[CausalHop] = []
    for span in trace.spans:
        if span.name != SPAN_HOP_SEGMENT:
            continue
        hop = _hop_from_segment(span)
        trace_id = _as_int(span.attrs.get("ctx_trace"), default=-1)
        if trace_id in walk_spans:
            by_trace.setdefault(trace_id, []).append(hop)
        else:
            unrooted.append(hop)
    walks: list[WalkTree] = []
    for trace_id in sorted(walk_spans):
        span = walk_spans[trace_id]
        final_attempt = _as_int(span.attrs.get("attempts"), default=1)
        chain: list[CausalHop] = []
        orphans: list[CausalHop] = []
        for hop in by_trace.get(trace_id, ()):
            if hop.attempt == final_attempt and not hop.orphaned:
                chain.append(hop)
            else:
                orphans.append(hop)
        # delivery order: segments close at delivery time; ties (same
        # tick) break by creation order, which is send order
        order = lambda hop: (hop.end, hop.span_id)  # noqa: E731
        chain.sort(key=order)
        orphans.sort(key=order)
        walks.append(
            WalkTree(
                walker_id=_as_int(span.attrs.get("walker_id"), default=-1),
                trace_id=trace_id,
                span=span,
                chain=chain,
                orphans=orphans,
            )
        )
    unrooted.sort(key=lambda hop: (hop.end, hop.span_id))
    return CausalAssembly(walks=walks, unrooted=unrooted)


def hop_latency_attribution(
    assembly: CausalAssembly,
) -> dict[str, dict[str, float]]:
    """Transit latency, attributed per message category.

    Chain transits are attributed under their category (``walk`` /
    ``return`` — the same buckets the ledger pays in); orphaned and
    unrooted transits aggregate under ``orphan`` so wasted wire time is
    visible instead of silently folded into the live buckets.
    """
    buckets: dict[str, list[int]] = {}
    for tree in assembly.walks:
        for hop in tree.chain:
            buckets.setdefault(hop.category, []).append(hop.latency)
        for hop in tree.orphans:
            buckets.setdefault("orphan", []).append(hop.latency)
    for hop in assembly.unrooted:
        buckets.setdefault("orphan", []).append(hop.latency)
    attribution: dict[str, dict[str, float]] = {}
    for category in sorted(buckets):
        latencies = buckets[category]
        attribution[category] = {
            "count": float(len(latencies)),
            "total": float(sum(latencies)),
            "mean": sum(latencies) / len(latencies),
            "max": float(max(latencies)),
        }
    return attribution


@dataclass(frozen=True)
class CriticalPath:
    """The hop chain that bounded one walk batch (or the whole run)."""

    #: ``"run"`` for the whole trace, ``"batch:<span_id>"`` per batch span
    scope: str
    n_walks: int
    #: the bounding walk: the last one to finish within the scope
    walker_id: int
    trace_id: int
    walk_latency: int
    chain_latency: int
    supervision_latency: int
    hops: tuple[CausalHop, ...]

    def as_dict(self) -> dict[str, object]:
        """JSON-portable shape (used by the CLI report and CI artifact)."""
        return {
            "scope": self.scope,
            "n_walks": self.n_walks,
            "walker_id": self.walker_id,
            "trace_id": self.trace_id,
            "walk_latency": self.walk_latency,
            "chain_latency": self.chain_latency,
            "supervision_latency": self.supervision_latency,
            "hops": [hop.as_dict() for hop in self.hops],
        }


def _bounding_path(scope: str, trees: list[WalkTree]) -> CriticalPath | None:
    if not trees:
        return None
    bounding = max(trees, key=lambda tree: (tree.span.end or 0, tree.trace_id))
    return CriticalPath(
        scope=scope,
        n_walks=len(trees),
        walker_id=bounding.walker_id,
        trace_id=bounding.trace_id,
        walk_latency=bounding.walk_latency,
        chain_latency=bounding.chain_latency,
        supervision_latency=bounding.supervision_latency,
        hops=tuple(bounding.chain),
    )


def critical_paths(
    trace: Trace, assembly: CausalAssembly | None = None
) -> list[CriticalPath]:
    """The bounding hop chain of each walk batch, plus the whole run.

    Walks are associated to a ``shared_walk_batch`` span by interval
    containment — batches drive to completion before the next one
    starts, so containment is unambiguous on recorded protocol traces,
    and wrong associations merely mislabel a batch's membership rather
    than corrupting any walk's own chain. A session's batches hold no
    walk spans, so only recorded protocol traces give ``batch:`` scopes.
    """
    if assembly is None:
        assembly = assemble(trace)
    paths: list[CriticalPath] = []
    run = _bounding_path("run", assembly.walks)
    if run is not None:
        paths.append(run)
    trees = assembly.walks
    for batch in trace.spans_named(SPAN_SHARED_WALK_BATCH):
        if batch.end is None:
            continue
        members = [
            tree
            for tree in trees
            if tree.trace_id > batch.span_id
            and tree.span.start >= batch.start
            and tree.span.end is not None
            and tree.span.end <= batch.end
        ]
        path = _bounding_path(f"batch:{batch.span_id}", members)
        if path is not None:
            paths.append(path)
    return paths
