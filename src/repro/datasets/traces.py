"""Portable trace format: record and replay workloads.

The paper's datasets are logs of timestamped tuple modifications
("whenever the value of the attribute is modified ... a new tuple is
appended to the dataset"). :class:`Trace` is that log:

* :class:`TraceRecorder` captures one from any live
  :class:`~repro.datasets.base.DatasetInstance` (so synthetic runs can be
  frozen and replayed deterministically);
* :func:`replay_trace` applies a trace step-by-step onto a fresh
  graph+database, which is how an *external* dataset in this format would
  be simulated;
* ``save``/``load`` serialize as JSON lines for interchange.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from repro.datasets.base import DatasetInstance
from repro.db.relation import P2PDatabase, Schema
from repro.errors import SimulationError
from repro.network.graph import OverlayGraph

VALID_KINDS = ("insert", "update", "delete", "join", "leave")


@dataclass(frozen=True)
class TraceEvent:
    """One modification: tuple insert/update/delete or node join/leave.

    ``subject`` is a tuple id for tuple events and a node id for membership
    events; ``node`` is the hosting node for inserts (ignored otherwise);
    ``value`` is the new attribute value for insert/update.
    """

    time: int
    kind: str
    subject: int
    node: int | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise SimulationError(
                f"unknown event kind {self.kind!r}; expected one of {VALID_KINDS}"
            )
        if self.time < 0:
            raise SimulationError(f"event time must be >= 0, got {self.time}")
        if self.kind == "insert" and (self.node is None or self.value is None):
            raise SimulationError("insert events need both node and value")
        if self.kind == "update" and self.value is None:
            raise SimulationError("update events need a value")


@dataclass
class Trace:
    """An ordered event log plus the static context needed to replay it.

    ``initial_tuples`` maps the time-0 tuple ids to ``(node, value)`` so a
    trace file is fully self-contained.
    """

    attribute: str
    n_steps: int
    initial_edges: list[tuple[int, int]]
    initial_nodes: list[int]
    events: list[TraceEvent]
    initial_tuples: dict[int, tuple[int, float]] = field(default_factory=dict)

    def events_at(self, time: int) -> Iterator[TraceEvent]:
        for event in self.events:
            if event.time == time:
                yield event

    def save(self, path: str | Path) -> None:
        """Write as JSON lines: one header line, then one line per event."""
        path = Path(path)
        with path.open("w") as handle:
            header = {
                "attribute": self.attribute,
                "n_steps": self.n_steps,
                "initial_edges": [list(edge) for edge in self.initial_edges],
                "initial_nodes": self.initial_nodes,
                "initial_tuples": {
                    str(tid): [node, value]
                    for tid, (node, value) in self.initial_tuples.items()
                },
            }
            handle.write(json.dumps(header) + "\n")
            for event in self.events:
                handle.write(json.dumps(asdict(event)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        with path.open() as handle:
            header = json.loads(handle.readline())
            events = [TraceEvent(**json.loads(line)) for line in handle if line.strip()]
        return cls(
            attribute=header["attribute"],
            n_steps=header["n_steps"],
            initial_edges=[tuple(edge) for edge in header["initial_edges"]],
            initial_nodes=list(header["initial_nodes"]),
            events=events,
            initial_tuples={
                int(tid): (int(node), float(value))
                for tid, (node, value) in header.get("initial_tuples", {}).items()
            },
        )


class TraceRecorder:
    """Capture a trace by diffing a live instance between steps.

    Usage::

        recorder = TraceRecorder(instance)
        for t in range(instance.n_steps):
            instance.step(t)
            recorder.observe(t)
        trace = recorder.finish()
    """

    def __init__(self, instance: DatasetInstance) -> None:
        self._instance = instance
        self._attribute = instance.attribute
        self._initial_edges = instance.graph.edges()
        self._initial_nodes = instance.graph.nodes()
        self._events: list[TraceEvent] = []
        self._known_values: dict[int, float] = {}
        self._known_nodes: set[int] = set(self._initial_nodes)
        self._observed_steps = 0
        self._initial_tuples = {
            tid: (node, row[self._attribute])
            for tid, node, row in instance.database.iter_tuples()
        }
        self._snapshot(time=None)

    def _snapshot(self, time: int | None) -> None:
        """Record the world's diff against the last snapshot."""
        database = self._instance.database
        graph = self._instance.graph
        current_nodes = set(graph.nodes())
        if time is not None:
            for node in sorted(current_nodes - self._known_nodes):
                self._events.append(TraceEvent(time, "join", node))
            for node in sorted(self._known_nodes - current_nodes):
                self._events.append(TraceEvent(time, "leave", node))
        self._known_nodes = current_nodes
        seen: set[int] = set()
        for tuple_id, node, row in database.iter_tuples():
            seen.add(tuple_id)
            value = row[self._attribute]
            known = self._known_values.get(tuple_id)
            if known is None:
                if time is not None:
                    self._events.append(
                        TraceEvent(time, "insert", tuple_id, node=node, value=value)
                    )
                self._known_values[tuple_id] = value
            elif known != value and time is not None:
                self._events.append(
                    TraceEvent(time, "update", tuple_id, value=value)
                )
                self._known_values[tuple_id] = value
        for tuple_id in list(self._known_values):
            if tuple_id not in seen:
                if time is not None:
                    self._events.append(TraceEvent(time, "delete", tuple_id))
                del self._known_values[tuple_id]

    def observe(self, time: int) -> None:
        """Call once after each ``instance.step(time)``."""
        if time == 0:
            # time-0 state is the initial snapshot; nothing changed yet
            self._observed_steps = max(self._observed_steps, 1)
            return
        self._snapshot(time)
        self._observed_steps = max(self._observed_steps, time + 1)

    def finish(self) -> Trace:
        return Trace(
            attribute=self._attribute,
            n_steps=self._observed_steps,
            initial_edges=self._initial_edges,
            initial_nodes=self._initial_nodes,
            events=list(self._events),
            initial_tuples=dict(self._initial_tuples),
        )


class ReplayInstance(DatasetInstance):
    """A :class:`DatasetInstance` driven by a recorded trace."""

    def __init__(self, trace: Trace) -> None:
        graph = OverlayGraph(trace.initial_edges, n_nodes=len(trace.initial_nodes))
        database = P2PDatabase(Schema((trace.attribute,)), graph.nodes())
        super().__init__(graph, database, trace.attribute, trace.n_steps)
        self._trace = trace
        self._id_map: dict[int, int] = {}  # trace tuple id -> live tuple id
        self._trace_of: dict[int, int] = {}  # live tuple id -> trace tuple id
        self._events_by_time: dict[int, list[TraceEvent]] = {}
        for event in trace.events:
            self._events_by_time.setdefault(event.time, []).append(event)
        if trace.initial_tuples:
            self.seed_tuples(trace.initial_tuples)

    def seed_tuples(self, rows: dict[int, tuple[int, float]]) -> None:
        """Install initial tuples: ``trace_tuple_id -> (node, value)``."""
        for trace_id, (node, value) in sorted(rows.items()):
            self._map(trace_id, self.database.insert(node, {self.attribute: value}))

    def _map(self, trace_id: int, live: int) -> None:
        self._id_map[trace_id] = live
        self._trace_of[live] = trace_id

    def step(self, time: int) -> None:
        self._check_step(time)
        for event in self._events_by_time.get(time, ()):
            self._apply(event)

    def _apply(self, event: TraceEvent) -> None:
        attribute = self.attribute
        if event.kind == "join":
            # deterministic bootstrap links: the two lowest-id live nodes
            anchors = sorted(self.graph.nodes())[:2]
            for anchor in anchors:
                if anchor != event.subject:
                    self.graph.add_edge(event.subject, anchor)
            self.database.add_node(event.subject)
        elif event.kind == "leave":
            if event.subject in self.graph:
                # the leaver's tuples go with it: unmap exactly those, so
                # later events naming them are ignored
                for live in self.database.remove_node(event.subject):
                    del self._id_map[self._trace_of.pop(live)]
                self.graph.leave(event.subject)
        elif event.kind == "insert":
            live = self.database.insert(event.node, {attribute: event.value})
            self._map(event.subject, live)
        elif event.kind == "update":
            live = self._id_map.get(event.subject)
            if live is not None:
                self.database.update(live, {attribute: event.value})
        elif event.kind == "delete":
            live = self._id_map.pop(event.subject, None)
            if live is not None:
                del self._trace_of[live]
                self.database.delete(live)


def replay_trace(trace: Trace) -> ReplayInstance:
    """Build a fresh replayable instance from ``trace``."""
    return ReplayInstance(trace)
