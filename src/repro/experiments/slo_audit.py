"""Online guarantee auditing: do the right alerts fire, and only then?

The paper's contract is live — at every update time the estimate must
satisfy ``|X̂ − X| <= ε`` with probability ``p`` — and PR 8 added the ops
layer that judges it live: the streaming pipeline
(:mod:`repro.obs.live`), the alert engine (:mod:`repro.obs.alerts`) and
the per-query guarantee auditor (:mod:`repro.obs.audit`). This sweep
gates that machinery end to end:

* each cell runs one multi-query :class:`~repro.core.session.
  DigestSession` under one per-walk message-loss rate, with the live
  pipeline attached and the default alert rules loaded;
* a **clean** cell (loss 0) must fire *no* alerts — a noisy alerting
  layer is worse than none;
* a **faulted** cell must fire both the degraded-snapshot threshold
  alert and the guarantee burn-rate alert — a silent alerting layer is
  worse still;
* every cell must replay exactly: counters
  (:func:`~repro.obs.analysis.verify_trace_consistency`), ledger messages
  *and* alert transitions (:func:`~repro.obs.alerts.verify_alert_replay`)
  re-derived from the exported trace must equal what happened live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.experiments import sweep
from repro.experiments.report import format_table
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.alerts import (
    ABSENCE,
    BURN_RATE,
    FIRING,
    THRESHOLD,
    AlertRule,
    load_rules,
    verify_alert_replay,
)
from repro.obs.analysis import message_attribution, verify_trace_consistency
from repro.obs.console import emit
from repro.obs.live import WindowConfig
from repro.obs.tracer import SinkTracer, Trace

#: rule names the faulted-cell gate requires to fire
GATED_RULES = ("degraded-snapshots", "guarantee-burn")


@dataclass(frozen=True)
class SloSweepConfig:
    """Shape of the sweep (sizes chosen so full mode runs in seconds)."""

    n_nodes: int = 36
    per_node: int = 5
    steps: int = 60
    n_queries: int = 2
    epsilon: float = 0.8
    confidence: float = 0.85
    loss_rates: tuple[float, ...] = (0.0, 0.20)
    window_width: int = 10
    slide: int = 3


def default_rules() -> list[AlertRule]:
    """The sweep's rule set, one of each kind the engine supports.

    Thresholds page on *sustained* contract failure, not on the
    occasional honest degradation a clean ratio estimator produces when
    its bounded top-up rounds leave residual variance: a clean run sits
    well under half its windows degraded and within ~2x budget burn,
    while a lossy run pins both signals high for the whole horizon.
    ``walk-failure-surge`` reads ``walk_failure_fraction``, which only
    protocol ``walk`` spans feed: it can fire only on protocol traces.
    """
    return [
        AlertRule(
            name="degraded-snapshots",
            signal="degraded_fraction",
            kind=THRESHOLD,
            threshold=0.5,
            comparison=">",
            for_windows=2,
        ),
        AlertRule(
            name="guarantee-burn",
            signal="audit_burn_rate",
            kind=BURN_RATE,
            threshold=2.0,
            comparison=">",
            for_windows=2,
        ),
        AlertRule(
            name="walk-failure-surge",
            signal="walk_failure_fraction",
            kind=THRESHOLD,
            threshold=0.5,
            comparison=">",
            for_windows=2,
        ),
        AlertRule(
            name="snapshots-absent",
            signal="snapshot_count",
            kind=ABSENCE,
            for_windows=3,
        ),
    ]


@dataclass
class SloCell:
    """Measurements for one message-loss cell."""

    message_loss: float
    snapshots: int
    degraded: int
    alerts_fired: int
    alerts_resolved: int
    fired_rules: list[str]
    worst_burn_rate: float
    verdicts_ok: int
    verdicts_total: int
    ops_counts: dict[str, int]
    consistency_mismatches: list[str]
    replay_mismatches: list[str]
    trace: Trace


@dataclass
class SloSweepResult:
    config: SloSweepConfig
    rules: list[AlertRule]
    cells: list[SloCell] = field(default_factory=list)

    def to_table(self) -> str:
        rows = [
            [
                cell.message_loss,
                cell.snapshots,
                cell.degraded,
                cell.alerts_fired,
                cell.alerts_resolved,
                ",".join(cell.fired_rules) or "-",
                cell.worst_burn_rate,
                f"{cell.verdicts_ok}/{cell.verdicts_total}",
            ]
            for cell in self.cells
        ]
        return format_table(
            [
                "loss",
                "snapshots",
                "degraded",
                "fired",
                "resolved",
                "fired rules",
                "worst burn",
                "slo ok",
            ],
            rows,
            title=(
                f"SLO audit sweep ({self.config.n_queries} queries, "
                f"eps={self.config.epsilon} p={self.config.confidence}, "
                f"window={self.config.window_width})"
            ),
            precision=3,
        )

    def gate_failures(self) -> list[str]:
        """Acceptance-gate violations (empty = the alerting layer works).

        Clean cells must stay silent; faulted cells must fire every
        :data:`GATED_RULES` entry; every cell must replay exactly.
        """
        problems: list[str] = []
        for cell in self.cells:
            label = f"loss={cell.message_loss}"
            if cell.message_loss == 0.0:
                if cell.alerts_fired or cell.alerts_resolved:
                    problems.append(
                        f"{label}: clean run fired alerts "
                        f"({cell.fired_rules})"
                    )
            else:
                missing = [
                    rule for rule in GATED_RULES if rule not in cell.fired_rules
                ]
                if missing:
                    problems.append(
                        f"{label}: faulted run never fired {missing} "
                        f"(fired: {cell.fired_rules or ['nothing']})"
                    )
            problems.extend(
                f"{label}: counter mismatch {line}"
                for line in cell.consistency_mismatches
            )
            problems.extend(
                f"{label}: alert replay mismatch {line}"
                for line in cell.replay_mismatches
            )
        return problems


def _run_cell(
    config: SloSweepConfig,
    message_loss: float,
    seed: int,
    rules: list[AlertRule],
) -> SloCell:
    """One cell: a live-audited multi-query session under one loss rate."""
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(
        mesh_topology(config.n_nodes), n_nodes=config.n_nodes
    )
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(config.per_node):
            database.insert(node, {"v": float(rng.normal(50.0, 10.0))})
    plan = (
        FaultPlan(FaultConfig(message_loss=message_loss), rng=seed + 50)
        if message_loss > 0.0
        else None
    )
    tracer = SinkTracer(
        meta={
            "experiment": "slo_audit",
            "seed": seed,
            "message_loss": message_loss,
        },
        record=True,
    )
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(seed + 1),
        faults=plan,
        tracer=tracer,
    )
    window_config = WindowConfig(
        width=config.window_width, slide=config.slide
    )
    pipeline, engine = session.attach_live(rules, window_config)
    query_config = EngineConfig(scheduler="all", evaluator="independent")
    for _ in range(config.n_queries):
        session.add_query(
            ContinuousQuery(
                Query(AggregateOp.AVG, Expression("v")),
                Precision(
                    delta=config.epsilon,
                    epsilon=config.epsilon,
                    confidence=config.confidence,
                ),
                duration=config.steps,
            ),
            config=query_config,
        )
    for time in range(config.steps):
        session.step(time)
    session.finish_live(config.steps)

    trace = tracer.trace()
    fired_rules = sorted(
        {t.rule for t in engine.transitions if t.state == FIRING}
    )
    verdicts = session.auditor.verdicts()
    traced = message_attribution(trace)
    booked = {**session.ledger.breakdown(), "total": session.ledger.total}
    return SloCell(
        message_loss=message_loss,
        snapshots=session.metrics.snapshot_queries,
        degraded=session.metrics.degraded_estimates,
        alerts_fired=session.metrics.alerts_fired,
        alerts_resolved=session.metrics.alerts_resolved,
        fired_rules=fired_rules,
        worst_burn_rate=max(
            (v.burn_rate for v in verdicts.values()), default=0.0
        ),
        verdicts_ok=sum(1 for v in verdicts.values() if v.ok),
        verdicts_total=len(verdicts),
        ops_counts=engine.fault_log.counts(),
        consistency_mismatches=verify_trace_consistency(trace, session.metrics)
        + [
            f"messages {name}: trace={traced[name]} ledger={booked[name]}"
            for name in ("walk_steps", "sample_returns", "retries", "control", "total")
            if traced[name] != booked[name]
        ],
        replay_mismatches=verify_alert_replay(trace, rules, window_config),
        trace=trace,
    )


def run(
    config: SloSweepConfig | None = None,
    seed: int = 0,
    rules: list[AlertRule] | None = None,
) -> SloSweepResult:
    """Run the loss sweep; deterministic in ``seed``."""
    config = config if config is not None else SloSweepConfig()
    rules = rules if rules is not None else default_rules()
    cells = [
        _run_cell(config, loss, seed + 1000 * index, rules)
        for index, loss in enumerate(config.loss_rates)
    ]
    return SloSweepResult(config=config, rules=rules, cells=cells)


def smoke_config() -> SloSweepConfig:
    """Reduced sweep for CI: smaller overlay, shorter horizon."""
    return SloSweepConfig(n_nodes=24, per_node=4, steps=40)


def main(argv: list[str] | None = None) -> int:
    parser = sweep.parser(
        __doc__, "reduced sweep for CI (smaller overlay, shorter horizon)"
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="PATH",
        help="JSON alert-rules file (defaults to the built-in rule set)",
    )
    args = parser.parse_args(argv)
    config = smoke_config() if args.smoke else SloSweepConfig()
    rules = load_rules(args.rules) if args.rules else default_rules()
    result = run(config, seed=args.seed, rules=rules)
    emit(result.to_table())
    for cell in result.cells:
        if cell.ops_counts:
            emit(
                f"\nops log (loss={cell.message_loss}): "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in cell.ops_counts.items()
                )
            )
    # every cell's counters and alerts replay inside the gate; the trace
    # written is the last faulted cell's
    faulted = [c for c in result.cells if c.message_loss > 0.0]
    exported = (faulted or result.cells)[-1].trace
    return sweep.conclude(
        args, "slo_audit", result.gate_failures(), exported, None
    )


if __name__ == "__main__":
    raise SystemExit(main())
