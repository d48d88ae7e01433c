"""Tests for trace recording and replay."""

import numpy as np
import pytest

from repro.datasets.memory import MemoryConfig, MemoryDataset
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset
from repro.datasets.traces import (
    Trace,
    TraceEvent,
    TraceRecorder,
    replay_trace,
)
from repro.db.expression import Expression
from repro.errors import SimulationError


class TestTraceEvent:
    def test_valid_kinds(self):
        TraceEvent(0, "insert", 1, node=0, value=1.0)
        TraceEvent(0, "update", 1, value=2.0)
        TraceEvent(0, "delete", 1)
        TraceEvent(0, "join", 5)
        TraceEvent(0, "leave", 5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            TraceEvent(0, "explode", 1)

    def test_insert_needs_node_and_value(self):
        with pytest.raises(SimulationError):
            TraceEvent(0, "insert", 1, value=1.0)
        with pytest.raises(SimulationError):
            TraceEvent(0, "insert", 1, node=0)

    def test_update_needs_value(self):
        with pytest.raises(SimulationError):
            TraceEvent(0, "update", 1)

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            TraceEvent(-1, "delete", 1)


def _record(instance, steps):
    recorder = TraceRecorder(instance)
    for t in range(steps):
        instance.step(t)
        recorder.observe(t)
    return recorder.finish()


class TestRecordReplay:
    def test_temperature_roundtrip(self):
        """Replaying a recorded trace reproduces the oracle trajectory."""
        config = TemperatureConfig().scaled(0.03)
        source = TemperatureDataset(config, seed=0).build()
        recorder = TraceRecorder(source)
        averages = []
        for t in range(12):
            source.step(t)
            recorder.observe(t)
            averages.append(source.true_average())
        trace = recorder.finish()

        replayed = replay_trace(trace)  # auto-seeds from initial_tuples
        for t in range(12):
            replayed.step(t)
            assert replayed.true_average() == pytest.approx(averages[t], rel=1e-9)

    def test_memory_roundtrip_with_churn(self):
        config = MemoryConfig().scaled(0.1)
        import dataclasses

        config = dataclasses.replace(config, leave_probability=0.03)
        source = MemoryDataset(config, seed=1).build()
        recorder = TraceRecorder(source)
        averages = []
        for t in range(15):
            source.step(t)
            recorder.observe(t)
            averages.append(source.true_average())
        trace = recorder.finish()
        assert any(e.kind in ("join", "leave") for e in trace.events)

        replayed = replay_trace(trace)
        for t in range(15):
            replayed.step(t)
            assert replayed.true_average() == pytest.approx(averages[t], rel=1e-9)

    def test_save_load(self, tmp_path):
        config = TemperatureConfig().scaled(0.03)
        source = TemperatureDataset(config, seed=0).build()
        trace = _record(source, 5)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.attribute == trace.attribute
        assert loaded.n_steps == trace.n_steps
        assert loaded.initial_edges == trace.initial_edges
        assert loaded.events == trace.events
        assert loaded.initial_tuples == trace.initial_tuples
        assert loaded.initial_tuples  # self-contained file

    def test_leave_unmaps_exactly_the_leavers_tuples(self):
        trace = Trace(
            attribute="v",
            n_steps=3,
            initial_edges=[(0, 1), (1, 2), (2, 0)],
            initial_nodes=[0, 1, 2],
            events=[
                TraceEvent(1, "leave", 1),
                TraceEvent(2, "update", 10, value=99.0),
                TraceEvent(2, "delete", 11),
                TraceEvent(2, "update", 20, value=5.0),
            ],
            initial_tuples={10: (1, 1.0), 11: (1, 2.0), 20: (0, 3.0), 30: (2, 4.0)},
        )
        replayed = replay_trace(trace)
        replayed.step(0)
        replayed.step(1)
        assert sorted(replayed._id_map) == [20, 30]
        assert replayed.database.n_tuples == 2
        replayed.step(2)  # the departed ids' update and delete are ignored
        assert replayed.database.n_tuples == 2
        values = replayed.database.exact_values(Expression("v"))
        assert sorted(values.tolist()) == [4.0, 5.0]

    def test_events_at(self):
        trace = Trace(
            attribute="v",
            n_steps=3,
            initial_edges=[(0, 1)],
            initial_nodes=[0, 1],
            events=[
                TraceEvent(1, "update", 0, value=1.0),
                TraceEvent(2, "update", 0, value=2.0),
                TraceEvent(1, "delete", 3),
            ],
        )
        assert len(list(trace.events_at(1))) == 2
        assert len(list(trace.events_at(0))) == 0
