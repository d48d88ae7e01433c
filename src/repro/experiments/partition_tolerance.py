"""Estimate honesty and recovery under correlated overlay partitions.

The paper's sampling operator assumes the overlay stays connected so the
Metropolis walk mixes over the whole population (Section V). This
experiment measures what happens when that assumption breaks in the
*correlated* way real overlays do — a scheduled cut splits the network
into regions for a while, then heals. A grid of (partition width x
duration x heal policy) cells each runs a multi-query
:class:`~repro.core.session.DigestSession` while a
:class:`~repro.network.partitions.PartitionPlan` opens and heals one cut,
and reports:

* **honesty** — while the cut is open, every emitted estimate must carry
  ``reachable_fraction < 1``, be flagged ``degraded``, and restate its
  confidence against the reachable sub-population (Eq. 5 re-solved); an
  estimate that silently pretends to cover the whole relation is a
  *dishonest* cell and fails the run;
* **scoped accuracy** — the partitioned estimate should track the truth
  *over the reachable region*, not the unreachable global truth;
* **recovery** — after the heal, how many snapshot occasions each query
  needs before estimates return to non-degraded (the heal moves the
  plan's epoch, which empties the sample pool, so this measures honest
  re-convergence, not stale sample reuse).

Everything is seeded: topology/data draw from ``seed``, the walk RNG from
``seed + 2`` and the partition plan from ``seed + 3`` (its own stream —
enabling partitions never perturbs walk trajectories).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.core.snapshot import SnapshotEstimate
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.experiments import sweep
from repro.experiments.report import format_table
from repro.network.graph import OverlayGraph
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import power_law_topology
from repro.obs.console import emit
from repro.obs.schema import SPAN_PARTITION_CELL
from repro.obs.tracer import SinkTracer, Trace, bridge_fault_log
from repro.sim.metrics import RunMetrics


@dataclass(frozen=True)
class PartitionSweepConfig:
    """Shape of the sweep (sizes chosen so full mode runs in seconds)."""

    n_nodes: int = 60
    widths: tuple[float, ...] = (0.2, 0.4)
    durations: tuple[int, ...] = (12, 30)
    heal_policies: tuple[str, ...] = ("repair", "passive")
    partition_start: int = 20
    horizon: int = 100
    period: int = 4
    epsilon: float = 1.0
    confidence: float = 0.95
    #: snapshot occasions a query may stay degraded after the heal
    recovery_bound: int = 2


@dataclass
class PartitionRow:
    """Measurements for one (width, duration, heal policy) cell."""

    width: float
    duration: int
    heal_policy: str
    n_snapshots: int
    n_partitioned: int
    n_dishonest: int
    min_fraction: float
    error_clean: float
    error_scoped: float
    recovery_occasions: int | None
    recovered: bool
    faults: dict[str, int]


@dataclass
class PartitionSweepResult:
    config: PartitionSweepConfig
    rows: list[PartitionRow]
    metrics: RunMetrics
    #: full telemetry capture of the sweep; ``metrics``' counters are
    #: derived from it (RunMetricsSink), so replaying the trace must
    #: reproduce them exactly — see --verify-trace
    trace: Trace

    def to_table(self) -> str:
        table_rows = [
            [
                row.width,
                row.duration,
                row.heal_policy,
                row.n_snapshots,
                row.n_partitioned,
                row.n_dishonest,
                row.min_fraction,
                row.error_clean,
                row.error_scoped,
                row.recovery_occasions
                if row.recovery_occasions is not None
                else "-",
                "yes" if row.recovered else "NO",
            ]
            for row in self.rows
        ]
        return format_table(
            [
                "width",
                "duration",
                "heal",
                "snaps",
                "partitioned",
                "dishonest",
                "min frac",
                "|err| clean",
                "|err| scoped",
                "recovery",
                "recovered",
            ],
            table_rows,
            title=(
                f"Partition tolerance (N={self.config.n_nodes}, cut at "
                f"t={self.config.partition_start}, snapshots every "
                f"{self.config.period} ticks)"
            ),
            precision=3,
        )


def _honest(estimate: SnapshotEstimate) -> bool:
    """Does a during-partition estimate state its degradation honestly?"""
    return (
        estimate.degraded
        and estimate.reachable_fraction < 1.0
        and estimate.achieved_epsilon is not None
        and estimate.achieved_confidence is not None
    )


def _run_cell(
    config: PartitionSweepConfig,
    width: float,
    duration: int,
    heal_policy: str,
    seed: int,
    tracer: SinkTracer,
) -> PartitionRow:
    """One sweep cell: a two-query session through one cut-and-heal cycle."""
    rng = np.random.default_rng(seed)
    n_nodes = config.n_nodes
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("value",)), graph.nodes())
    values = {node: float(rng.normal(10.0, 2.0)) for node in graph.nodes()}
    for node, value in values.items():
        database.insert(node, {"value": value})

    origin = 0
    episode = PartitionEpisode(
        start=config.partition_start,
        duration=duration,
        fractions=(1.0 - width, width),
        name="cut",
    )
    plan = PartitionPlan(
        PartitionSchedule(episodes=(episode,)),
        rng=seed + 3,
        tracer=tracer,
        heal_policy=heal_policy,
    )
    bridge_fault_log(plan.log, tracer)
    cell_span = tracer.span(
        SPAN_PARTITION_CELL,
        time=0,
        width=width,
        duration=duration,
        heal_policy=heal_policy,
        seed=seed,
    )
    session = DigestSession(
        graph,
        database,
        origin,
        np.random.default_rng(seed + 2),
        tracer=tracer,
        partitions=plan,
    )
    expression = Expression("value")
    engine_config = EngineConfig(
        scheduler="all", evaluator="independent", period=config.period
    )
    # the SUM query gets the same *per-tuple* budget as the AVG query
    # (an absolute epsilon on a SUM over N tuples divides by N)
    for op, epsilon in (
        (AggregateOp.AVG, config.epsilon),
        (AggregateOp.SUM, config.epsilon * n_nodes),
    ):
        session.add_query(
            ContinuousQuery(
                Query(op, expression),
                Precision(
                    delta=epsilon,
                    epsilon=epsilon,
                    confidence=config.confidence,
                ),
                duration=config.horizon,
            ),
            config=engine_config,
        )

    n_snapshots = 0
    n_partitioned = 0
    n_dishonest = 0
    min_fraction = 1.0
    clean_errors: list[float] = []
    scoped_errors: list[float] = []
    #: per query: snapshot occasions seen since the heal, and the occasion
    #: index at which the query first came back non-degraded
    post_heal_occasions: dict[str, int] = {}
    recovered_at: dict[str, int] = {}
    for time in range(config.horizon):
        plan.step(time, graph)
        cut_open = plan.active
        reachable = plan.reachable(graph, origin)
        truth_scoped = float(
            np.mean([values[node] for node in reachable])
        )
        truth_clean = float(np.mean(list(values.values())))
        healed = not cut_open and time >= episode.end
        executed = session.step(time)
        for query_id, estimate in executed.items():
            n_snapshots += 1
            is_avg = query_id == "q0"
            if cut_open and len(reachable) < len(graph):
                n_partitioned += 1
                min_fraction = min(min_fraction, estimate.reachable_fraction)
                if not _honest(estimate):
                    n_dishonest += 1
                if is_avg:
                    scoped_errors.append(
                        abs(estimate.aggregate - truth_scoped)
                    )
            else:
                if is_avg:
                    clean_errors.append(abs(estimate.aggregate - truth_clean))
            if healed and query_id not in recovered_at:
                occasion = post_heal_occasions.get(query_id, 0) + 1
                post_heal_occasions[query_id] = occasion
                if not estimate.degraded:
                    recovered_at[query_id] = occasion

    query_ids = session.query_ids()
    recovered = all(query_id in recovered_at for query_id in query_ids)
    recovery_occasions = (
        max(recovered_at.values()) if recovered and recovered_at else None
    )
    if recovery_occasions is not None:
        cell_span.set(recovery_occasions=recovery_occasions)
    tracer.end(
        cell_span,
        time=config.horizon,
        n_snapshots=n_snapshots,
        n_partitioned=n_partitioned,
        n_dishonest=n_dishonest,
    )
    return PartitionRow(
        width=width,
        duration=duration,
        heal_policy=heal_policy,
        n_snapshots=n_snapshots,
        n_partitioned=n_partitioned,
        n_dishonest=n_dishonest,
        min_fraction=min_fraction,
        error_clean=float(np.mean(clean_errors)) if clean_errors else 0.0,
        error_scoped=float(np.mean(scoped_errors)) if scoped_errors else 0.0,
        recovery_occasions=recovery_occasions,
        recovered=recovered,
        faults=plan.log.counts(),
    )


def run(
    config: PartitionSweepConfig | None = None, seed: int = 0
) -> PartitionSweepResult:
    """Run the width x duration x heal-policy sweep; deterministic in ``seed``.

    The sweep always runs traced (:func:`repro.experiments.sweep.run_traced`):
    the returned ``metrics``' counters are derived from the span stream,
    and the full trace is returned for export/verification.
    """
    config = config if config is not None else PartitionSweepConfig()
    rows, metrics, trace = sweep.run_traced(
        "partition_tolerance",
        seed,
        [
            (config.widths, 10000),
            (config.durations, 100),
            (config.heal_policies, 10),
        ],
        partial(_run_cell, config),
    )
    # series stay hand-recorded: cell-indexed, not sim-timed
    for index, row in enumerate(rows, 1):
        metrics.series("min_reachable_fraction").record(index, row.min_fraction)
        metrics.series("dishonest_estimates").record(index, row.n_dishonest)
    return PartitionSweepResult(config, rows, metrics, trace)


def smoke_config() -> PartitionSweepConfig:
    """Reduced sweep for CI: one width x one duration, both heal policies."""
    return PartitionSweepConfig(
        n_nodes=40,
        widths=(0.3,),
        durations=(12,),
        heal_policies=("repair", "passive"),
        horizon=60,
    )


def gate(result: PartitionSweepResult) -> list[str]:
    """Honesty and recovery, per cell.

    A cell fails on any silently unscoped during-partition estimate, and
    when a query is still degraded ``recovery_bound`` snapshot occasions
    after the heal.
    """
    bound = result.config.recovery_bound
    failures: list[str] = []
    for row in result.rows:
        label = f"width={row.width} duration={row.duration} heal={row.heal_policy}"
        if row.n_dishonest:
            failures.append(f"{label}: {row.n_dishonest} dishonest estimates")
        if not row.recovered or (row.recovery_occasions or 0) > bound:
            failures.append(f"{label}: still degraded {bound} occasions after the heal")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sweep.parser(
        __doc__, "reduced sweep for CI (1x1x2 grid, small overlay)"
    ).parse_args(argv)
    config = smoke_config() if args.smoke else PartitionSweepConfig()
    result = run(config, seed=args.seed)
    emit(result.to_table())
    return sweep.conclude(
        args, "partition_tolerance", gate(result), result.trace, result.metrics
    )


if __name__ == "__main__":
    raise SystemExit(main())
