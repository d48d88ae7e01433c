"""Degradation of the sampling protocol under injected faults.

The paper assumes the overlay delivers messages and nodes stay up for the
duration of a walk; this experiment measures what the failure model does
to that assumption. A grid of (per-hop message-loss rate x per-step crash
probability) cells each runs one batch of supervised walks on a power-law
overlay while a :class:`~repro.network.faults.CrashProcess` removes nodes
mid-run, and reports:

* **completion rate** — walks that eventually delivered a sample;
* **recovery rate** — of the walks that timed out at least once, the
  fraction the retry supervisor still completed;
* **retry overhead** — retry-attempt traffic relative to all walk traffic
  (the price of fault tolerance in the paper's message-cost currency);
* **honesty** — the promised ``(epsilon, p)`` versus what the achieved
  sample size actually supports (Eq. 5 re-solved); a shortfall must be
  flagged ``degraded``, never silently ignored.

Everything is seeded: two runs with the same seed produce identical
ledgers, fault logs and estimates (the fault RNG is separate from the
walk RNG, so enabling faults never perturbs the walk trajectories).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.estimators import (
    achieved_confidence,
    achieved_epsilon,
    required_sample_size,
)
from repro.experiments import sweep
from repro.experiments.report import format_table
from repro.network.faults import CrashProcess, FaultConfig, FaultPlan
from repro.obs.schema import SPAN_FAULT_CELL, SPAN_SNAPSHOT_QUERY
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import power_law_topology
from repro.obs.console import emit
from repro.obs.tracer import SinkTracer, Trace
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine
from repro.sim.metrics import RunMetrics


@dataclass(frozen=True)
class FaultSweepConfig:
    """Shape of the sweep (sizes chosen so full mode runs in seconds)."""

    n_nodes: int = 80
    walk_length: int = 20
    epsilon: float = 0.5
    confidence: float = 0.95
    loss_rates: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)
    crash_rates: tuple[float, ...] = (0.0, 0.02, 0.05)
    latency_jitter: int = 1
    crash_period: int = 25
    crash_horizon: int = 150
    timeout: int = 80
    max_retries: int = 40
    backoff: float = 1.2


@dataclass
class FaultRow:
    """Measurements for one (loss, crash) cell."""

    message_loss: float
    crash_probability: float
    n_required: int
    n_achieved: int
    completion_rate: float
    recovery_rate: float
    walks_retried: int
    retries: int
    retry_overhead: float
    estimate: float
    true_mean: float
    promised_epsilon: float
    achieved_epsilon: float
    achieved_confidence: float
    degraded: bool
    faults: dict[str, int]
    ledger_breakdown: dict[str, int]


@dataclass
class FaultSweepResult:
    config: FaultSweepConfig
    rows: list[FaultRow]
    metrics: RunMetrics
    #: full telemetry capture of the sweep; ``metrics``' counters are
    #: derived from it (RunMetricsSink), so replaying the trace must
    #: reproduce them exactly — see --verify-trace
    trace: Trace

    def to_table(self) -> str:
        table_rows = [
            [
                row.message_loss,
                row.crash_probability,
                f"{row.n_achieved}/{row.n_required}",
                row.completion_rate,
                row.recovery_rate,
                row.retry_overhead,
                abs(row.estimate - row.true_mean),
                row.achieved_epsilon,
                row.achieved_confidence,
                "yes" if row.degraded else "no",
            ]
            for row in self.rows
        ]
        return format_table(
            [
                "loss",
                "crash",
                "n ach/req",
                "completion",
                "recovery",
                "retry ovh",
                "|error|",
                "eps ach",
                "p ach",
                "degraded",
            ],
            table_rows,
            title=(
                f"Fault tolerance (N={self.config.n_nodes}, walk length "
                f"{self.config.walk_length}, promised eps="
                f"{self.config.epsilon} p={self.config.confidence})"
            ),
            precision=3,
        )


def _run_cell(
    config: FaultSweepConfig,
    message_loss: float,
    crash_probability: float,
    seed: int,
    tracer: SinkTracer,
) -> FaultRow:
    """One sweep cell: supervised walks under one (loss, crash) setting."""
    rng = np.random.default_rng(seed)
    n_nodes = config.n_nodes
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    values = {node: float(rng.normal(10.0, 2.0)) for node in graph.nodes()}
    true_mean = float(np.mean(list(values.values())))
    sigma = float(np.std(list(values.values())))
    n_required = required_sample_size(
        sigma, config.epsilon, config.confidence
    )

    origin = 0
    simulation = SimulationEngine()
    ledger = MessageLedger()
    plan = FaultPlan(
        FaultConfig(
            message_loss=message_loss,
            crash_probability=crash_probability,
            latency_jitter=config.latency_jitter,
            min_nodes=n_nodes // 2,
        ),
        rng=seed + 1,
    )
    cell_span = tracer.span(
        SPAN_FAULT_CELL,
        time=0,
        message_loss=message_loss,
        crash_probability=crash_probability,
        seed=seed,
    )
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(seed + 2),
        ledger,
        ProtocolConfig(variant="bounce"),
        faults=plan,
        retry=RetryPolicy(
            timeout=config.timeout,
            max_retries=config.max_retries,
            backoff=config.backoff,
        ),
        tracer=tracer,
    )
    crash = CrashProcess(graph, plan, protected={origin})
    if crash_probability > 0.0:

        def crash_round(time: int) -> None:
            crashed = crash.step(time)
            sampler.handle_topology_change(left=crashed)

        simulation.schedule_every(
            config.crash_period,
            crash_round,
            priority=PRIORITY_CHURN,
            start=config.crash_period,
            until=config.crash_horizon,
        )

    sampled = sampler.run_walks(
        origin, n_required, config.walk_length, allow_partial=True
    )
    stats = sampler.walk_stats

    n_achieved = len(sampled)
    degraded = n_achieved < n_required
    sample_values = np.array([values[node] for node in sampled], dtype=float)
    estimate = float(sample_values.mean()) if n_achieved else float("nan")
    # variance of the mean estimator at the achieved sample size
    variance = (
        float(np.mean((sample_values - estimate) ** 2)) / n_achieved
        if n_achieved
        else float("inf")
    )
    walk_traffic = ledger.walk_steps + ledger.sample_returns + ledger.retries
    # the cell's estimate is one forced snapshot query; the span is what
    # books samples_total/samples_fresh/degraded_estimates on the metrics
    query_span = tracer.span(
        SPAN_SNAPSHOT_QUERY,
        time=simulation.now,
        parent=cell_span,
        trigger="forced",
    )
    tracer.end(
        query_span,
        time=simulation.now,
        aggregate=estimate,
        n_total=n_achieved,
        n_fresh=n_achieved,
        n_retained=0,
        degraded=degraded,
    )
    tracer.end(
        cell_span,
        time=simulation.now,
        n_required=n_required,
        n_achieved=n_achieved,
    )
    return FaultRow(
        message_loss=message_loss,
        crash_probability=crash_probability,
        n_required=n_required,
        n_achieved=n_achieved,
        completion_rate=stats.completion_rate,
        recovery_rate=stats.recovery_rate,
        walks_retried=stats.attempts - stats.launched,
        retries=ledger.retries,
        retry_overhead=ledger.retries / walk_traffic if walk_traffic else 0.0,
        estimate=estimate,
        true_mean=true_mean,
        promised_epsilon=config.epsilon,
        achieved_epsilon=(
            achieved_epsilon(variance, config.confidence)
            if n_achieved
            else float("inf")
        ),
        achieved_confidence=(
            achieved_confidence(config.epsilon, variance)
            if n_achieved
            else 0.0
        ),
        degraded=degraded,
        faults=plan.log.counts(),
        ledger_breakdown=ledger.breakdown(),
    )


def run(config: FaultSweepConfig | None = None, seed: int = 0) -> FaultSweepResult:
    """Run the full loss x crash sweep; deterministic in ``seed``.

    The sweep always runs traced (:func:`repro.experiments.sweep.run_traced`):
    the returned ``metrics``' counters are derived from the span stream,
    and the full trace is returned for export/verification.
    """
    config = config if config is not None else FaultSweepConfig()
    rows, metrics, trace = sweep.run_traced(
        "fault_tolerance",
        seed,
        [(config.loss_rates, 1000), (config.crash_rates, 10)],
        partial(_run_cell, config),
    )
    # series stay hand-recorded: cell-indexed, not sim-timed
    for index, row in enumerate(rows, 1):
        metrics.series("completion_rate").record(index, row.completion_rate)
        metrics.series("retry_overhead").record(index, row.retry_overhead)
    return FaultSweepResult(config, rows, metrics, trace)


def smoke_config() -> FaultSweepConfig:
    """Reduced sweep for CI: two loss rates x two crash rates, small N."""
    return FaultSweepConfig(
        n_nodes=40,
        loss_rates=(0.0, 0.10),
        crash_rates=(0.0, 0.05),
        crash_horizon=100,
    )


def gate(result: FaultSweepResult) -> list[str]:
    """Honesty: every row meets its sample size or is flagged degraded."""
    return [
        f"dishonest row (loss={row.message_loss}, crash="
        f"{row.crash_probability}): {row.n_achieved}/{row.n_required} "
        f"samples, not flagged degraded"
        for row in result.rows
        if not row.degraded and row.n_achieved < row.n_required
    ]


def main(argv: list[str] | None = None) -> int:
    args = sweep.parser(
        __doc__, "reduced sweep for CI (2x2 grid, small overlay)"
    ).parse_args(argv)
    config = smoke_config() if args.smoke else FaultSweepConfig()
    result = run(config, seed=args.seed)
    emit(result.to_table())
    worst = (max(config.loss_rates), max(config.crash_rates))
    for row in result.rows:
        if (row.message_loss, row.crash_probability) == worst:
            emit(
                f"\nworst cell (loss={row.message_loss}, crash="
                f"{row.crash_probability}): completion {row.completion_rate:.3f}, "
                f"recovery {row.recovery_rate:.3f}, faults: "
                + ", ".join(f"{k}={v}" for k, v in sorted(row.faults.items()))
            )
    return sweep.conclude(
        args, "fault_tolerance", gate(result), result.trace, result.metrics
    )


if __name__ == "__main__":
    raise SystemExit(main())
