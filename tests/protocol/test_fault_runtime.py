"""Tests for the protocol runtime under the failure model.

Covers fault injection at the delivery points, origin-side walk
supervision (timeouts, bounded retries, backoff), retry-ledger
accounting, return routing across topology change, the cached-variant
advertisement repair paths, and end-to-end determinism.
"""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.network.faults import CrashProcess, FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, ring_topology
from repro.protocol.messages import WalkToken
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import table_weights, uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine


def _faulty_sampler(
    graph,
    weight,
    fault_config,
    variant="bounce",
    seed=0,
    retry=RetryPolicy(timeout=120, max_retries=40, backoff=1.2),
):
    simulation = SimulationEngine()
    ledger = MessageLedger()
    plan = FaultPlan(fault_config, rng=seed + 100)
    sampler = ProtocolSampler(
        graph,
        weight,
        simulation,
        np.random.default_rng(seed),
        ledger,
        ProtocolConfig(variant=variant),
        faults=plan,
        retry=retry,
    )
    return sampler, plan, simulation, ledger


@pytest.fixture
def mesh():
    return OverlayGraph(mesh_topology(16), n_nodes=16)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SamplingError):
            RetryPolicy(timeout=0)
        with pytest.raises(SamplingError):
            RetryPolicy(timeout=5, max_retries=-1)
        with pytest.raises(SamplingError):
            RetryPolicy(timeout=5, backoff=0.5)

    def test_backoff_scales_timeouts(self):
        policy = RetryPolicy(timeout=10, backoff=2.0)
        assert policy.timeout_for(1) == 10
        assert policy.timeout_for(2) == 20
        assert policy.timeout_for(3) == 40


class TestLossRecovery:
    def test_walks_recover_from_heavy_message_loss(self, mesh):
        sampler, plan, _, ledger = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(message_loss=0.10)
        )
        sampled = sampler.run_walks(origin=0, n=40, walk_length=20)
        assert len(sampled) == 40
        stats = sampler.walk_stats
        assert stats.completion_rate == 1.0
        assert plan.log.count("message_loss") > 0
        # lost attempts were retried, and that traffic is ledgered apart
        assert stats.timeouts > 0
        assert ledger.retries > 0

    def test_retry_traffic_kept_out_of_base_categories(self, mesh):
        # fault-free run first to know the base cost profile
        base_sampler, _, _, base_ledger = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(), seed=1
        )
        base_sampler.run_walks(origin=0, n=20, walk_length=15)
        assert base_ledger.retries == 0

        sampler, _, _, ledger = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(message_loss=0.15), seed=1
        )
        sampler.run_walks(origin=0, n=20, walk_length=15)
        # first-attempt categories stay comparable; retries separate
        assert ledger.retries > 0
        assert ledger.breakdown()["retries"] == ledger.retries

    def test_walk_fails_after_retry_budget(self, mesh):
        sampler, plan, _, _ = _faulty_sampler(
            mesh,
            uniform_weights(),
            # lose nearly everything: retries cannot save the walks
            FaultConfig(message_loss=0.95),
            retry=RetryPolicy(timeout=60, max_retries=2),
        )
        sampled = sampler.run_walks(
            origin=0, n=5, walk_length=10, allow_partial=True
        )
        stats = sampler.walk_stats
        assert stats.failed + stats.completed == 5
        assert stats.failed > 0
        assert len(sampled) == stats.completed
        assert plan.log.count("walk_failed") == stats.failed
        # every failed walk burned its full attempt budget (1 + 2 retries)
        assert plan.log.count("walk_timeout") >= stats.failed * 3

    def test_partial_mode_off_raises_with_fault_summary(self, mesh):
        sampler, _, _, _ = _faulty_sampler(
            mesh,
            uniform_weights(),
            FaultConfig(message_loss=0.95),
            retry=RetryPolicy(timeout=60, max_retries=1),
        )
        with pytest.raises(SamplingError, match="message_loss"):
            sampler.run_walks(origin=0, n=5, walk_length=10)

    def test_latency_jitter_still_completes(self, mesh):
        sampler, _, _, _ = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(latency_jitter=3)
        )
        sampled = sampler.run_walks(origin=0, n=10, walk_length=12)
        assert len(sampled) == 10

    def test_deadline_expires_unfinished_walks(self, mesh):
        sampler, plan, _, _ = _faulty_sampler(
            mesh,
            uniform_weights(),
            FaultConfig(),
            # timeout far beyond the deadline so retries never fire
            retry=RetryPolicy(timeout=100_000, max_retries=0),
        )
        sampled = sampler.run_walks(
            origin=0, n=4, walk_length=50, allow_partial=True, deadline=10
        )
        assert len(sampled) < 4
        assert plan.log.count("walk_failed") == 4 - len(sampled)


class TestRetryExhaustion:
    """Every attempt of a doomed walk is paid for and accounted; the
    caller gets an honest degraded result, never an exception."""

    def _doomed_sampler(self, mesh, n_retries=3):
        # laziness=0 so every attempt sends exactly one (lost) message:
        # the attempt accounting below is exact, not probabilistic
        simulation = SimulationEngine()
        ledger = MessageLedger()
        plan = FaultPlan(FaultConfig(message_loss=0.999), rng=100)
        sampler = ProtocolSampler(
            mesh,
            uniform_weights(),
            simulation,
            np.random.default_rng(0),
            ledger,
            ProtocolConfig(variant="bounce", laziness=0.0),
            faults=plan,
            retry=RetryPolicy(timeout=30, max_retries=n_retries),
        )
        return sampler, plan, ledger

    def test_all_attempts_lost_never_raises(self, mesh):
        sampler, plan, _ = self._doomed_sampler(mesh)
        sampled = sampler.run_walks(
            origin=0, n=4, walk_length=5, allow_partial=True
        )
        assert sampled == []
        stats = sampler.walk_stats
        assert stats.failed == 4
        assert stats.completed == 0
        # full budget burned: 1 initial + 3 retries per walk, all timed out
        assert stats.attempts == stats.timeouts == 4 * 4
        assert plan.log.count("walk_failed") == 4
        failures = [
            event for event in plan.log.events if event.kind == "walk_failed"
        ]
        assert all(e.detail == "retries_exhausted" for e in failures)

    def test_every_attempt_lands_in_the_ledger(self, mesh):
        """First attempts bill as walk traffic, every retry attempt bills
        to ``retries`` -- nothing a doomed walk sent goes unaccounted."""
        sampler, _, ledger = self._doomed_sampler(mesh, n_retries=3)
        sampler.run_walks(origin=0, n=4, walk_length=5, allow_partial=True)
        assert ledger.walk_steps == 4  # one lost first hop per walk
        assert ledger.retries == 4 * 3  # one lost first hop per retry
        assert ledger.breakdown()["retries"] == ledger.retries

    def test_exhausted_walks_surface_degraded_estimate(self):
        """End to end through the evaluator path: a cell whose walks
        exhaust their retries reports ``degraded`` instead of raising."""
        from repro.experiments import fault_tolerance
        from repro.obs.tracer import SinkTracer

        config = fault_tolerance.FaultSweepConfig(
            n_nodes=30, walk_length=10, timeout=40, max_retries=1
        )
        row = fault_tolerance._run_cell(
            config,
            message_loss=0.9,
            crash_probability=0.0,
            seed=0,
            tracer=SinkTracer(record=True),
        )
        assert row.n_achieved < row.n_required
        assert row.degraded


class TestCrashSurvival:
    def test_walks_survive_mid_run_crashes(self):
        graph = OverlayGraph(mesh_topology(25), n_nodes=25)
        sampler, plan, simulation, _ = _faulty_sampler(
            graph,
            uniform_weights(),
            FaultConfig(crash_probability=0.05, min_nodes=12),
        )
        crash = CrashProcess(graph, plan, protected={0})

        def crash_round(time):
            crashed = crash.step(time)
            sampler.handle_topology_change(left=crashed)

        simulation.schedule_every(
            10, crash_round, priority=PRIORITY_CHURN, start=10, until=120
        )
        sampled = sampler.run_walks(origin=0, n=30, walk_length=25)
        assert len(sampled) == 30
        assert plan.log.count("node_crash") > 0

    def test_return_path_rerouted_after_crash(self):
        """A return message mid-route survives its next hop crashing:
        routing re-resolves against the live topology each hop."""
        graph = OverlayGraph(ring_topology(12), n_nodes=12)
        sampler, plan, simulation, _ = _faulty_sampler(
            graph, uniform_weights(), FaultConfig()
        )
        crash = CrashProcess(graph, plan, protected={0})

        def crash_some(time):
            # force a specific topology change while returns are in flight
            for node in (3, 7):
                if node in graph and len(graph) > 4:
                    graph.leave(node, rewire=True)
                    plan.record(time, "node_crash", node=node)

        simulation.schedule_in(30, crash_some, priority=PRIORITY_CHURN)
        sampled = sampler.run_walks(origin=0, n=20, walk_length=30)
        assert len(sampled) == 20

    def test_bounce_token_to_isolated_receiver_is_a_fault_not_a_raise(self):
        """A receiver that lost its last link while a bounce-variant token
        was in flight (a crash without rewiring) has degree 0: delivery
        records an ``isolated_node`` fault and drops the token."""
        graph = OverlayGraph(ring_topology(8), n_nodes=8)
        sampler, plan, simulation, _ = _faulty_sampler(
            graph, uniform_weights(), FaultConfig()
        )
        walker_id = sampler.start_walk(origin=0, walk_length=6)
        token = WalkToken(
            walker_id=walker_id,
            origin=0,
            steps_remaining=6,
            sender=3,
            sender_weight=1.0,
            sender_degree=2,
        )
        sampler._executor._send_token(token, 4, evaluate_at_receiver=True)
        # node 4's neighbors crash without rewiring before the token lands
        graph.remove_edge(3, 4)
        graph.remove_edge(4, 5)
        assert graph.degree(4) == 0
        simulation.run_until(1)
        assert plan.log.count("isolated_node") == 1
        assert sampler.bounces == 0
        sampler._lifecycle.drive([walker_id], None)
        outcome = sampler.outcome(walker_id)
        assert outcome is not None
        assert outcome.sampled_node != 4


class TestCachedVariantRepair:
    def test_cache_miss_probed_instead_of_raising(self):
        """A node joining mid-run without notify_weight_change used to kill
        the walk with a cache-miss SamplingError; now the holder pays a
        2-message probe and proceeds."""
        graph = OverlayGraph(mesh_topology(9), n_nodes=9)
        weights = {node: 1.0 + node % 3 for node in graph.nodes()}
        simulation = SimulationEngine()
        ledger = MessageLedger()
        sampler = ProtocolSampler(
            graph,
            table_weights({**weights, 9: 2.0, 10: 2.0}),
            simulation,
            np.random.default_rng(0),
            ledger,
            ProtocolConfig(variant="cached"),
        )

        def join_silently(time):
            graph.join(attach_to=[0, 4])  # no advertisement sent

        simulation.schedule_in(3, join_silently, priority=PRIORITY_CHURN)
        sampled = sampler.run_walks(origin=0, n=25, walk_length=40)
        assert len(sampled) == 25
        misses = sampler.fault_log.count("advertisement_cache_miss")
        assert misses > 0
        assert ledger.breakdown()["control:weight_probe"] == 2 * misses

    def test_topology_change_refreshes_advertisements(self):
        graph = OverlayGraph(mesh_topology(9), n_nodes=9)
        weights = {node: 1.0 + node % 3 for node in range(12)}
        simulation = SimulationEngine()
        sampler = ProtocolSampler(
            graph,
            table_weights(weights),
            simulation,
            np.random.default_rng(0),
            MessageLedger(),
            ProtocolConfig(variant="cached"),
        )
        before = sampler.advertisements_sent
        joined = graph.join(attach_to=[0, 4])
        graph.leave(8, rewire=True)
        sampler.handle_topology_change(joined=[joined], left=[8])
        # the join and the leave-rewiring edges all got advertisements
        assert sampler.advertisements_sent > before
        sampled = sampler.run_walks(origin=0, n=20, walk_length=30)
        assert len(sampled) == 20
        # repaired caches mean no probe fallbacks were needed
        assert sampler.fault_log.count("advertisement_cache_miss") == 0


class TestDeterminism:
    def _run(self, seed):
        graph = OverlayGraph(mesh_topology(16), n_nodes=16)
        sampler, plan, simulation, ledger = _faulty_sampler(
            graph,
            uniform_weights(),
            FaultConfig(
                message_loss=0.08, crash_probability=0.03, latency_jitter=2
            ),
            seed=seed,
        )
        crash = CrashProcess(graph, plan, protected={0})

        def crash_round(time):
            sampler.handle_topology_change(left=crash.step(time))

        simulation.schedule_every(
            15, crash_round, priority=PRIORITY_CHURN, start=15, until=90
        )
        sampled = sampler.run_walks(
            origin=0, n=25, walk_length=15, allow_partial=True
        )
        return sampled, ledger.breakdown(), plan.log.counts()

    def test_identical_ledgers_across_reruns(self):
        assert self._run(5) == self._run(5)

    def test_fault_seed_does_not_perturb_walks(self, mesh):
        """The fault RNG is separate: a fault-free plan yields the same
        samples as no plan at all (same walk RNG seed)."""
        plain = ProtocolSampler(
            mesh,
            uniform_weights(),
            SimulationEngine(),
            np.random.default_rng(3),
            MessageLedger(),
            ProtocolConfig(),
        )
        expected = plain.run_walks(origin=0, n=15, walk_length=20)
        sampler, _, _, _ = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(), seed=3
        )
        assert sampler.run_walks(origin=0, n=15, walk_length=20) == expected


class TestWalkStats:
    def test_fault_free_stats(self, mesh):
        sampler, _, _, _ = _faulty_sampler(
            mesh, uniform_weights(), FaultConfig(), seed=2
        )
        sampler.run_walks(origin=0, n=10, walk_length=10)
        stats = sampler.walk_stats
        assert stats.launched == stats.completed == stats.attempts == 10
        assert stats.failed == stats.timeouts == 0
        assert stats.completion_rate == 1.0
        assert stats.recovery_rate == 1.0
