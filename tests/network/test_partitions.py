"""Tests for correlated failures (repro.network.partitions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import power_law_topology, ring_topology
from repro.obs.schema import EVENT_PARTITION_HEAL, EVENT_PARTITION_OPEN
from repro.obs.tracer import SinkTracer


def _graph(n: int = 20, seed: int = 0) -> OverlayGraph:
    rng = np.random.default_rng(seed)
    return OverlayGraph(power_law_topology(n, rng=rng), n_nodes=n)


def _plan(
    schedule: PartitionSchedule, seed: int = 7, **kwargs: object
) -> PartitionPlan:
    return PartitionPlan(schedule, rng=seed, **kwargs)  # type: ignore[arg-type]


def _one_cut(
    start: int = 5, duration: int = 10, fractions=(0.5, 0.5)
) -> PartitionSchedule:
    return PartitionSchedule(
        episodes=(
            PartitionEpisode(
                start=start, duration=duration, fractions=fractions
            ),
        )
    )


class TestEpisodeValidation:
    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start"):
            PartitionEpisode(start=-1, duration=5)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            PartitionEpisode(start=0, duration=0)

    def test_rejects_single_region(self):
        with pytest.raises(ValueError, match="2 regions"):
            PartitionEpisode(start=0, duration=5, fractions=(1.0,))

    def test_rejects_fractions_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PartitionEpisode(start=0, duration=5, fractions=(0.5, 0.4))

    def test_rejects_nonpositive_fraction(self):
        with pytest.raises(ValueError, match="> 0"):
            PartitionEpisode(start=0, duration=5, fractions=(1.0, 0.0))

    def test_end_and_label(self):
        episode = PartitionEpisode(start=3, duration=4, name="backbone")
        assert episode.end == 7
        assert episode.label(0) == "backbone"
        assert PartitionEpisode(start=3, duration=4).label(2) == "episode-2"


class TestScheduleValidation:
    def test_rejects_bad_flap_probability(self):
        with pytest.raises(ValueError, match="flap_probability"):
            PartitionSchedule(flap_probability=1.0)

    def test_rejects_bad_flap_duration(self):
        with pytest.raises(ValueError, match="flap_duration"):
            PartitionSchedule(flap_duration=0)

    def test_noop_detection(self):
        assert PartitionSchedule().is_noop
        assert not _one_cut().is_noop
        assert not PartitionSchedule(flap_probability=0.1).is_noop


class TestPlanValidation:
    def test_rejects_unknown_heal_policy(self):
        with pytest.raises(ValueError, match="heal_policy"):
            PartitionPlan(_one_cut(), rng=0, heal_policy="pray")

    def test_accepts_generator_or_seed(self):
        plan = PartitionPlan(_one_cut(), rng=np.random.default_rng(3))
        assert plan.is_noop is False
        assert PartitionPlan(PartitionSchedule(), rng=0).is_noop


class TestEpisodeLifecycle:
    def test_opens_at_start_and_heals_at_end(self):
        graph = _graph()
        plan = _plan(_one_cut(start=5, duration=10))
        plan.step(4, graph)
        assert not plan.active
        plan.step(5, graph)
        assert plan.active
        plan.step(14, graph)
        assert plan.active
        plan.step(15, graph)
        assert not plan.active

    def test_regions_respect_fractions(self):
        graph = _graph(n=40)
        plan = _plan(_one_cut(start=0, duration=5, fractions=(0.75, 0.25)))
        plan.step(0, graph)
        regions = [plan.region_of(0, node) for node in graph.nodes()]
        assert regions.count(0) == 30
        assert regions.count(1) == 10

    def test_blocked_iff_crossing_regions(self):
        graph = _graph()
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        for u, v in graph.edges():
            crossing = plan.region_of(0, u) != plan.region_of(0, v)
            assert plan.blocked(u, v) is crossing
            assert plan.blocked(v, u) is crossing

    def test_nothing_blocked_after_heal(self):
        graph = _graph()
        plan = _plan(_one_cut(start=0, duration=3))
        plan.step(0, graph)
        plan.step(3, graph)
        assert all(not plan.blocked(u, v) for u, v in graph.edges())
        assert plan.region_of(0, graph.nodes()[0]) is None

    def test_reachable_confined_while_open(self):
        graph = _graph(n=30)
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        origin = 0
        scope = plan.reachable(graph, origin)
        origin_region = plan.region_of(0, origin)
        assert all(
            plan.region_of(0, node) == origin_region for node in scope
        )
        assert 0.0 < plan.reachable_fraction(graph, origin) < 1.0

    def test_reachable_is_full_graph_when_inactive(self):
        graph = _graph()
        plan = _plan(_one_cut(start=50, duration=5))
        plan.step(0, graph)
        assert plan.reachable(graph, 0) == graph.hop_distances(0)
        assert plan.reachable_fraction(graph, 0) == 1.0

    def test_late_joiner_gets_lazily_assigned_region(self):
        graph = _graph()
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        joined = graph.join(attach_to=[0, 1], rng=np.random.default_rng(9))
        region = plan.region_of(0, joined)
        assert region in (0, 1)
        # the assignment sticks
        assert plan.region_of(0, joined) == region

    def test_same_seed_same_split(self):
        regions = []
        for _ in range(2):
            graph = _graph(n=25, seed=4)
            plan = _plan(_one_cut(start=0, duration=5), seed=11)
            plan.step(0, graph)
            regions.append(
                tuple(plan.region_of(0, node) for node in graph.nodes())
            )
        assert regions[0] == regions[1]


def _reference_reachable(
    plan: PartitionPlan, graph: OverlayGraph, origin: int
) -> dict[int, int]:
    """Uncached BFS over unblocked edges, the contract ``reachable`` keeps."""
    distances = {origin: 0}
    frontier = [origin]
    while frontier:
        node = frontier.pop(0)
        for neighbor in graph.neighbors(node):
            if neighbor not in distances and not plan.blocked(node, neighbor):
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return distances


class TestReachableCache:
    def test_hit_returns_same_dict_and_draws_nothing(self):
        graph = _graph(n=30)
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        first = plan.reachable(graph, 0)
        state = plan._rng.bit_generator.state
        assert plan.reachable(graph, 0) is first
        assert plan.reachable_fraction(graph, 0) == len(first) / len(graph)
        assert plan._rng.bit_generator.state == state

    def test_graph_version_bump_recomputes(self):
        graph = _graph(n=30)
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        first = plan.reachable(graph, 0)
        joined = graph.join(attach_to=[0, 1], rng=np.random.default_rng(9))
        second = plan.reachable(graph, 0)
        assert second is not first
        assert second == _reference_reachable(plan, graph, 0)
        assert (joined in second) == (
            plan.region_of(0, joined) == plan.region_of(0, 0)
        )

    def test_other_origin_recomputes(self):
        graph = _graph(n=30)
        plan = _plan(_one_cut(start=0, duration=5))
        plan.step(0, graph)
        first = plan.reachable(graph, 0)
        other = next(node for node in graph.nodes() if node not in first)
        assert plan.reachable(graph, other) == _reference_reachable(
            plan, graph, other
        )
        again = plan.reachable(graph, 0)
        assert again is not first
        assert again == first

    def test_episode_open_and_heal_recompute(self):
        graph = _graph(n=40)
        plan = _plan(
            PartitionSchedule(
                episodes=(
                    PartitionEpisode(start=0, duration=10),
                    PartitionEpisode(start=2, duration=4),
                )
            )
        )
        plan.step(0, graph)
        one_cut = plan.reachable(graph, 0)
        plan.step(1, graph)
        assert plan.reachable(graph, 0) is one_cut  # nothing changed
        plan.step(2, graph)  # the second episode opens
        two_cuts = plan.reachable(graph, 0)
        assert two_cuts is not one_cut
        assert two_cuts == _reference_reachable(plan, graph, 0)
        plan.step(6, graph)  # the second episode heals, the first holds
        assert plan.active
        healed = plan.reachable(graph, 0)
        assert healed is not two_cuts
        assert healed == one_cut

    def test_epoch_follows_the_flapped_set(self):
        graph = _graph(n=30)
        plan = _plan(PartitionSchedule(flap_probability=0.02, flap_duration=3))
        previous: dict[int, int] | None = None
        seen = {"start": 0, "expiry": 0, "steady": 0}
        for time in range(40):
            before = set(plan._flapped)
            plan.step(time, graph)
            after = set(plan._flapped)
            if not plan.active:
                previous = None
                continue
            current = plan.reachable(graph, 0)
            if previous is not None:
                if before == after:
                    seen["steady"] += 1
                    assert current is previous
                else:
                    seen["start" if after - before else "expiry"] += 1
                    assert current is not previous
                    assert current == _reference_reachable(plan, graph, 0)
            previous = current
        assert all(seen.values()), seen

    def test_cached_calls_match_recomputing_ones(self):
        """Results and the plan's RNG stream match a cache-free run."""

        def run(cached: bool):
            graph = _graph(n=30, seed=2)
            plan = _plan(_one_cut(start=0, duration=20), seed=5)
            rng = np.random.default_rng(3)
            results = []
            for time in range(12):
                plan.step(time, graph)
                if time % 4 == 1:
                    graph.join(attach_to=[0, int(time)], rng=rng)
                for origin in (0, 0, 7, 7):
                    if not cached:
                        plan._reachable_key = None
                    results.append(dict(plan.reachable(graph, origin)))
            return results, plan._rng.bit_generator.state

        assert run(cached=True) == run(cached=False)


class TestFlaps:
    def test_flapped_links_block_then_recover(self):
        graph = _graph()
        schedule = PartitionSchedule(flap_probability=0.5, flap_duration=2)
        plan = _plan(schedule)
        plan.step(0, graph)
        flapped = [edge for edge in graph.edges() if plan.blocked(*edge)]
        assert flapped  # p=0.5 over >= 19 edges
        assert plan.active
        # stepping past every flap's up-time expires the old flaps; any
        # edge still blocked at t=10 is a fresh draw with a later up-time
        plan.step(10, graph)
        for _edge, up_at in plan._flapped.items():
            assert up_at > 10

    def test_flaps_logged(self):
        graph = _graph()
        plan = _plan(PartitionSchedule(flap_probability=0.9, flap_duration=1))
        plan.step(0, graph)
        assert plan.log.counts().get("link_flap", 0) > 0


class TestHealRepair:
    def test_repair_bridges_fragmented_graph_on_heal(self):
        # a ring fragments when crashes remove the right nodes mid-episode
        n = 12
        graph = OverlayGraph(ring_topology(n), n_nodes=n)
        plan = _plan(_one_cut(start=0, duration=4), heal_policy="repair")
        plan.step(0, graph)
        # surgically break the ring into two arcs (no rewire)
        graph.remove_edge(0, 1)
        graph.remove_edge(5, 6)
        assert not graph.is_connected()
        plan.step(4, graph)
        assert graph.is_connected()
        assert plan.log.counts()["partition_heal"] == 1

    def test_passive_policy_leaves_fragments_alone(self):
        n = 12
        graph = OverlayGraph(ring_topology(n), n_nodes=n)
        plan = _plan(_one_cut(start=0, duration=4), heal_policy="passive")
        plan.step(0, graph)
        graph.remove_edge(0, 1)
        graph.remove_edge(5, 6)
        plan.step(4, graph)
        assert not graph.is_connected()

    def test_connected_graph_needs_no_repair(self):
        graph = _graph()
        plan = _plan(_one_cut(start=0, duration=4), heal_policy="repair")
        plan.step(0, graph)
        version = graph.version
        plan.step(4, graph)
        assert graph.version == version  # no edges added


class TestTracing:
    def test_open_and_heal_emit_events(self):
        tracer = SinkTracer(record=True)
        graph = _graph()
        plan = PartitionPlan(
            _one_cut(start=2, duration=3), rng=0, tracer=tracer
        )
        for time in range(6):
            plan.step(time, graph)
        names = [event.name for event in tracer.trace().events]
        assert names.count(EVENT_PARTITION_OPEN) == 1
        assert names.count(EVENT_PARTITION_HEAL) == 1
        opened = next(
            event
            for event in tracer.trace().events
            if event.name == EVENT_PARTITION_OPEN
        )
        assert opened.attrs["n_regions"] == 2
        assert opened.attrs["n_blocked"] > 0
        assert opened.attrs["duration"] == 3

    def test_audit_log_records_open_and_heal(self):
        graph = _graph()
        plan = _plan(_one_cut(start=0, duration=2))
        plan.step(0, graph)
        plan.step(2, graph)
        counts = plan.log.counts()
        assert counts["partition_open"] == 1
        assert counts["partition_heal"] == 1


class TestComposition:
    def test_partition_rng_stream_is_independent_of_faults(self):
        """Enabling a partition plan must not perturb fault draws."""
        fault_draws = []
        for with_partitions in (False, True):
            faults = FaultPlan(FaultConfig(message_loss=0.3), rng=5)
            graph = _graph(seed=2)
            if with_partitions:
                plan = _plan(_one_cut(start=0, duration=5), seed=99)
                plan.step(0, graph)
            fault_draws.append(
                [faults.message_lost() for _ in range(50)]
            )
        assert fault_draws[0] == fault_draws[1]
