"""Tests for the fault model (network/faults.py)."""

import numpy as np
import pytest

from repro.network.faults import (
    CrashProcess,
    FaultConfig,
    FaultLog,
    FaultPlan,
)
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology, ring_topology


class TestFaultConfig:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            FaultConfig(message_loss=1.0)
        with pytest.raises(ValueError):
            FaultConfig(crash_probability=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(link_failure_probability=2.0)
        with pytest.raises(ValueError):
            FaultConfig(latency_jitter=-1)
        with pytest.raises(ValueError):
            FaultConfig(min_nodes=0)

    def test_is_noop(self):
        assert FaultConfig().is_noop
        assert not FaultConfig(message_loss=0.1).is_noop
        assert not FaultConfig(latency_jitter=2).is_noop


class TestFaultLog:
    def test_records_counts_and_summary(self):
        log = FaultLog()
        assert log.summary() == "no faults recorded"
        log.record(3, "message_loss", walker_id=1, node=2)
        log.record(5, "message_loss")
        log.record(7, "node_crash", node=9, detail="x")
        assert len(log) == 3
        assert log.count("message_loss") == 2
        assert log.counts() == {"message_loss": 2, "node_crash": 1}
        assert log.summary() == "message_loss=2, node_crash=1"
        assert [e.time for e in log.events] == [3, 5, 7]

    def test_counts_kinds_in_sorted_order(self):
        log = FaultLog()
        log.record(0, "walk_timeout")
        log.record(1, "message_loss")
        log.record(2, "node_crash")
        log.record(3, "message_loss")
        assert list(log.counts()) == sorted(log.counts())
        # insertion order was walk_timeout first; the view must not be
        assert list(log.counts())[0] == "message_loss"

    def test_subscribe_keyed_replacement(self):
        log = FaultLog()
        seen_a: list[str] = []
        seen_b: list[str] = []
        log.subscribe(lambda e: seen_a.append(e.kind), key="obs")
        log.record(0, "first")
        # same key replaces, never duplicates
        log.subscribe(lambda e: seen_b.append(e.kind), key="obs")
        log.record(1, "second")
        assert seen_a == ["first"]
        assert seen_b == ["second"]


class TestFaultPlan:
    def test_no_loss_at_zero_rate(self):
        plan = FaultPlan(FaultConfig(), rng=0)
        assert not any(plan.message_lost() for _ in range(100))
        assert not plan.walks_lost(np.array([50, 0, 3])).any()

    def test_loss_rate_is_approximately_honored(self):
        plan = FaultPlan(FaultConfig(message_loss=0.3), rng=0)
        losses = sum(plan.message_lost() for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35

    def test_walk_loss_uses_survival_probability(self):
        plan = FaultPlan(FaultConfig(message_loss=0.1), rng=1)
        losses = int(plan.walks_lost(np.full(5000, 13)).sum())
        expected = 1.0 - 0.9**13  # ~0.746
        assert abs(losses / 5000 - expected) < 0.05

    def test_walks_lost_draws_once_per_exposed_walk_in_order(self):
        """The vector draw consumes the stream one draw per walk would."""
        exposures = np.array([5, 0, 13, 2, 0, 40, 1])
        plan = FaultPlan(FaultConfig(message_loss=0.1), rng=3)
        reference = np.random.default_rng(3)
        expected = [
            n > 0 and bool(reference.random() >= 0.9**n)
            for n in exposures.tolist()
        ]
        assert plan.walks_lost(exposures).tolist() == expected

    def test_delivery_delay_bounded_by_jitter(self):
        plan = FaultPlan(FaultConfig(latency_jitter=3), rng=2)
        delays = {plan.delivery_delay(5) for _ in range(500)}
        assert delays == {5, 6, 7, 8}
        no_jitter = FaultPlan(FaultConfig(), rng=2)
        assert no_jitter.delivery_delay(5) == 5

    def test_same_seed_same_draw_sequence(self):
        a = FaultPlan(FaultConfig(message_loss=0.2, latency_jitter=4), rng=7)
        b = FaultPlan(FaultConfig(message_loss=0.2, latency_jitter=4), rng=7)
        draws_a = [(a.message_lost(), a.delivery_delay(1)) for _ in range(200)]
        draws_b = [(b.message_lost(), b.delivery_delay(1)) for _ in range(200)]
        assert draws_a == draws_b


class TestCrashProcess:
    def _world(self, n=16):
        return OverlayGraph(mesh_topology(n), n_nodes=n)

    def test_no_crashes_at_zero_rate(self):
        graph = self._world()
        plan = FaultPlan(FaultConfig(), rng=0)
        crash = CrashProcess(graph, plan)
        assert crash.step(0) == []
        assert len(graph) == 16

    def test_protected_node_never_crashes(self):
        graph = self._world()
        plan = FaultPlan(FaultConfig(crash_probability=0.99), rng=0)
        crash = CrashProcess(graph, plan, protected={0})
        crash.protect(5)
        for time in range(10):
            crash.step(time)
        assert 0 in graph
        assert 5 in graph
        assert {0, 5} <= crash.protected

    def test_min_nodes_floor_holds(self):
        graph = self._world()
        plan = FaultPlan(
            FaultConfig(crash_probability=0.9, min_nodes=6), rng=1
        )
        crash = CrashProcess(graph, plan)
        for time in range(10):
            crash.step(time)
        assert len(graph) >= 6

    def test_crashes_are_recorded_on_the_log(self):
        graph = self._world()
        plan = FaultPlan(FaultConfig(crash_probability=0.5), rng=2)
        crash = CrashProcess(graph, plan)
        crashed = crash.step(time=42)
        assert plan.log.count("node_crash") == len(crashed)
        assert all(
            e.time == 42 for e in plan.log.events if e.kind == "node_crash"
        )

    def test_crash_rewire_keeps_graph_connected(self):
        graph = self._world(25)
        plan = FaultPlan(
            FaultConfig(crash_probability=0.2, min_nodes=8), rng=3
        )
        crash = CrashProcess(graph, plan)
        for time in range(8):
            crash.step(time)
        assert graph.is_connected()

    def test_link_failure_never_orphans_a_node(self):
        graph = OverlayGraph(ring_topology(12), n_nodes=12)
        plan = FaultPlan(
            FaultConfig(link_failure_probability=0.5), rng=4
        )
        crash = CrashProcess(graph, plan)
        for time in range(5):
            crash.step(time)
        assert all(graph.degree(node) >= 1 for node in graph.nodes())

    def test_deterministic_under_fixed_seed(self):
        results = []
        for _ in range(2):
            graph = self._world(20)
            plan = FaultPlan(
                FaultConfig(crash_probability=0.3, min_nodes=5), rng=9
            )
            crash = CrashProcess(graph, plan)
            history = [crash.step(time) for time in range(5)]
            results.append((history, sorted(graph.nodes())))
        assert results[0] == results[1]
