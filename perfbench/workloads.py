"""The four benchmark workloads: a live world, one querying node, a session.

Every workload is a closed loop driven by :mod:`perfbench.harness`: tick
``t`` first advances the world (the tick's writes, churn and partition
state — "ingest"), then calls ``DigestSession.step(t)``; the next tick
starts when that returns. The world (overlay, data, updates, churn and
the cut) is fixed per workload; the querying node, walk RNG and fault
draws come from ``--seed`` through independent
:class:`numpy.random.SeedSequence` children, so they never perturb one
another.

Why each workload exists (which layers it stresses and which it bypasses)
is recorded in ``design.json``; the short form sits on each build function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.core.snapshot import SnapshotEstimate
from repro.datasets.base import DatasetInstance
from repro.datasets.memory import MemoryConfig, MemoryInstance
from repro.datasets.temperature import TemperatureConfig, TemperatureInstance
from repro.db.aggregates import AggregateOp
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)

#: bound before the benchmark's own layer wrappers can be installed, so
#: the oracle's scope lookups never count as (or pay for) traced work
_REACHABLE = PartitionPlan.reachable

#: ticks run inside set-up: tick 0 pays the first spectral recompute and
#: every evaluator's bootstrap, tick 1 the first repeated-sampling fit
WARMUP_TICKS = 2
CONFIDENCE = 0.95
#: seed of every workload's world (see :func:`_streams`)
WORLD_SEED = 2008
#: seed of faulted-partition's region draw. Like the overlay, the cut is
#: part of the workload: a random 70/30 split leaves an origin on the 30%
#: side a few fragmented components to sample, and with the side drawn
#: per seed msgs_per_answer spread 90% across seeds. The origin is drawn
#: from the 70% side.
CUT_SEED = WORLD_SEED + 1
#: the querying node is drawn from this many best-connected nodes
ORIGIN_CANDIDATES = 4


@dataclass
class QueryInfo:
    op: AggregateOp
    epsilon: float


@dataclass
class World:
    """One built workload, ready to tick."""

    instance: DatasetInstance
    session: DigestSession
    origin: int
    queries: dict[str, QueryInfo]
    partitions: PartitionPlan | None = None
    #: rows one ingest call writes (called after the tick's ingest)
    rows_written: Callable[[], int] = field(default=lambda: 0)

    def ingest(self, tick: int) -> None:
        """The tick's world advancement: writes, churn, partition state."""
        self.instance.step(tick)
        if self.partitions is not None:
            self.partitions.step(tick, self.instance.graph)

    def _scope(self) -> dict[int, int] | None:
        """The origin's reachable nodes while a cut is open, else None."""
        if self.partitions is None or not self.partitions.active:
            return None
        return _REACHABLE(self.partitions, self.instance.graph, self.origin)

    def partitioned(self) -> bool:
        """Is part of the overlay unreachable from the origin right now?"""
        scope = self._scope()
        return scope is not None and len(scope) < len(self.instance.graph)

    def scope_values(self) -> np.ndarray:
        """Oracle attribute values over the origin's reachable scope."""
        database = self.instance.database
        scope = self._scope()
        if scope is None:
            return self.instance.current_values()
        columns = [
            database.store(node).column(self.instance.attribute)
            for node in sorted(scope)
            if len(database.store(node))
        ]
        return np.concatenate(columns) if columns else np.empty(0)

    def truth(self, values: np.ndarray, query_id: str) -> float:
        if self.queries[query_id].op is AggregateOp.SUM:
            return float(values.sum())
        return float(values.mean())

    def within_epsilon(
        self, values: np.ndarray, query_id: str, estimate: SnapshotEstimate
    ) -> bool:
        """Is the answer within its (honestly restated) epsilon of the oracle?"""
        tolerance = self.queries[query_id].epsilon
        if estimate.degraded and estimate.achieved_epsilon is not None:
            tolerance = max(tolerance, estimate.achieved_epsilon)
        return abs(estimate.aggregate - self.truth(values, query_id)) <= tolerance


def _streams(seed: int) -> list[np.random.Generator]:
    """world, session, faults, origin generators.

    The world (overlay, data and its update/churn stream) is part of the
    workload's definition and comes from :data:`WORLD_SEED`: a power-law
    overlay's spectral gap, and with it every walk's length, varies by
    more than 2x between random graphs of one size, which would swamp
    any change the benchmark is meant to resolve. ``seed`` drives the
    rest — the querying node, the walks and message loss.
    """
    return [np.random.default_rng(WORLD_SEED)] + [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(3)
    ]


def _add_queries(
    session: DigestSession,
    instance: DatasetInstance,
    specs: list[tuple[AggregateOp, float, float]],
    config: EngineConfig,
) -> dict[str, QueryInfo]:
    """Register ``(op, epsilon, delta)`` queries as q00, q01, ..."""
    queries: dict[str, QueryInfo] = {}
    for index, (op, epsilon, delta) in enumerate(specs):
        query_id = f"q{index:02d}"
        session.add_query(
            ContinuousQuery(
                Query(op, instance.expression),
                Precision(delta=delta, epsilon=epsilon, confidence=CONFIDENCE),
            ),
            config=config,
            query_id=query_id,
        )
        queries[query_id] = QueryInfo(op, epsilon)
    return queries


def _pick_origin(
    instance: DatasetInstance,
    rng: np.random.Generator,
    eligible: set[int] | None = None,
) -> int:
    """A querying node drawn from the ORIGIN_CANDIDATES best-connected nodes.

    Queries are posed at well-connected peers. The origin fixes the
    mixing length of every fresh walk: on the churn-10k world it ranges
    270..423 steps over the best-connected 1% of nodes (299..332 over
    the best four), and a degree-2 leaf needs ~40% more than a hub, so
    a wider draw would let the seed dominate walk cost. ``eligible``
    restricts the draw to a subset of the nodes.
    """
    graph = instance.graph
    nodes = [n for n in graph.nodes() if eligible is None or n in eligible]
    ranked = sorted(nodes, key=lambda node: (-graph.degree(node), node))
    candidates = ranked[:ORIGIN_CANDIDATES]
    return int(candidates[int(rng.integers(len(candidates)))])


def _memory_world(
    seed: int,
    n_ticks: int,
    n_nodes: int,
    n_units: int,
    leave_probability: float,
    eligible: Callable[[MemoryInstance], set[int]] | None = None,
) -> tuple[MemoryInstance, list[np.random.Generator], int]:
    world_rng, *rest = _streams(seed)
    instance = MemoryInstance(
        MemoryConfig(
            n_nodes=n_nodes,
            n_units=n_units,
            n_steps=WARMUP_TICKS + n_ticks,
            leave_probability=leave_probability,
        ),
        world_rng,
    )
    origin = _pick_origin(
        instance, rest[2], eligible(instance) if eligible is not None else None
    )
    instance.churn.protect(origin)
    return instance, rest[:2], origin


def build_paper_temperature(seed: int, n_ticks: int, scale: float) -> World:
    """Published TEMPERATURE scale; 4 PRED-3/RPT AVG queries, delta sweep."""
    world_rng, session_rng, _, origin_rng = _streams(seed)
    config = TemperatureConfig()
    if scale < 1.0:
        config = config.scaled(scale)
    config = replace(config, n_steps=WARMUP_TICKS + n_ticks)
    instance = TemperatureInstance(config, world_rng)
    origin = _pick_origin(instance, origin_rng)
    session = DigestSession(instance.graph, instance.database, origin, session_rng)
    sigma = config.expected_sigma
    queries = _add_queries(
        session,
        instance,
        [
            (AggregateOp.AVG, sigma / 4, fraction * sigma)
            for fraction in (0.125, 0.25, 0.5, 1.0)
        ],
        EngineConfig(scheduler="pred", evaluator="repeated", pred_points=3),
    )
    return World(
        instance,
        session,
        origin,
        queries,
        rows_written=lambda: config.n_units,
    )


def build_churn_10k(seed: int, n_ticks: int, scale: float) -> World:
    """10^4-node churning power-law overlay; 4 co-due ALL/RPT queries."""
    n_nodes = max(64, int(10_000 * scale))
    instance, (session_rng, _), origin = _memory_world(
        seed, n_ticks, n_nodes, int(1.2 * n_nodes), 0.002
    )
    session = DigestSession(instance.graph, instance.database, origin, session_rng)
    sigma = instance.config.expected_sigma
    # loosest first (the session answers in query-id order): a tick's
    # top-up walk round then usually falls on its last answer. Tightest
    # first put it on the second answer of about half the ticks, so the
    # answer-latency median sat in the gap between a one-round and a
    # two-round mode and moved 24% from seed to seed (5% in this order).
    queries = _add_queries(
        session,
        instance,
        [(AggregateOp.AVG, f * sigma, f * sigma) for f in (0.35, 0.30, 0.25, 0.20)],
        EngineConfig(scheduler="all", evaluator="repeated"),
    )
    return World(
        instance,
        session,
        origin,
        queries,
        rows_written=instance.n_units_live,
    )


def build_static_10k_16q(seed: int, n_ticks: int, scale: float) -> World:
    """The same overlay without churn; 16 co-due ALL/INDEP queries."""
    n_nodes = max(64, int(10_000 * scale))
    instance, (session_rng, _), origin = _memory_world(
        seed, n_ticks, n_nodes, int(1.2 * n_nodes), 0.0
    )
    session = DigestSession(instance.graph, instance.database, origin, session_rng)
    sigma = instance.config.expected_sigma
    queries = _add_queries(
        session,
        instance,
        # tightest first: its top-up round leaves enough pooled draws for
        # the other 15. Loosest first made each query top up in turn, 16
        # walk rounds per tick, and ran 1.5x slower.
        [
            (AggregateOp.AVG, f * sigma, f * sigma)
            for f in np.linspace(0.20, 0.35, 16).tolist()
        ],
        EngineConfig(scheduler="all", evaluator="independent"),
    )
    return World(
        instance,
        session,
        origin,
        queries,
        rows_written=instance.n_units_live,
    )


def build_faulted_partition(seed: int, n_ticks: int, scale: float) -> World:
    """2k-node overlay, 0.2% message loss, one 70/30 cut over the middle half."""
    n_nodes = max(64, int(2_000 * scale))
    episode = PartitionEpisode(
        start=WARMUP_TICKS + n_ticks // 4,
        duration=max(1, n_ticks // 2),
        fractions=(0.7, 0.3),
        name="cut",
    )

    def cut_plan() -> PartitionPlan:
        return PartitionPlan(
            PartitionSchedule(episodes=(episode,)),
            rng=np.random.default_rng(CUT_SEED),
            heal_policy="repair",
        )

    def majority_side(world: MemoryInstance) -> set[int]:
        # no churn here, so the cut opens over exactly today's nodes
        probe = cut_plan()
        probe.step(episode.start, world.graph)
        return {n for n in world.graph.nodes() if probe.region_of(0, n) == 0}

    instance, (session_rng, fault_rng), origin = _memory_world(
        seed, n_ticks, n_nodes, int(1.2 * n_nodes), 0.0, majority_side
    )
    plan = cut_plan()
    session = DigestSession(
        instance.graph,
        instance.database,
        origin,
        session_rng,
        faults=FaultPlan(FaultConfig(message_loss=0.002), fault_rng),
        partitions=plan,
    )
    sigma = instance.config.expected_sigma
    n_units = instance.n_units_live()
    queries = _add_queries(
        session,
        instance,
        [
            (AggregateOp.AVG, 0.25 * sigma, 0.25 * sigma),
            # the same per-tuple budget: an absolute SUM epsilon divides by N
            (AggregateOp.SUM, 0.25 * sigma * n_units, 0.25 * sigma * n_units),
        ],
        EngineConfig(scheduler="all", evaluator="independent"),
    )
    return World(
        instance,
        session,
        origin,
        queries,
        partitions=plan,
        rows_written=instance.n_units_live,
    )


@dataclass(frozen=True)
class WorkloadSpec:
    build: Callable[[int, int, float], World]
    #: measured ticks per second of ``--seconds`` (fixes the tick budget,
    #: so a run measures about that long on the reference machine and its
    #: count metrics repeat exactly for a seed)
    ticks_per_second: float

    def n_ticks(self, seconds: float) -> int:
        return max(4, math.ceil(seconds * self.ticks_per_second))


WORKLOADS: dict[str, WorkloadSpec] = {
    "paper-temperature": WorkloadSpec(build_paper_temperature, 65.0),
    "churn-10k": WorkloadSpec(build_churn_10k, 9.0),
    "static-10k-16q": WorkloadSpec(build_static_10k_16q, 10.0),
    "faulted-partition": WorkloadSpec(build_faulted_partition, 12.0),
}
