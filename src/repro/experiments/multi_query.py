"""Multi-query amortization: one shared session vs. one session per query.

The paper frames sampling as a shared database operator (Section III)
precisely so that co-resident queries can amortize its cost; this
experiment quantifies that. ``n`` continuous AVG queries with overlapping
precision demands run two ways over the identical workload:

* **shared** — one :class:`~repro.core.session.DigestSession`: queries
  lease from one :class:`~repro.sampling.pool.SamplePool`, and co-due
  occasions coalesce their walk demands into shared batches (the batch
  needs the *maximum* demand, not the sum);
* **solo** — ``n`` separate one-query sessions, each paying for its own
  walks, over identically-seeded copies of the workload.

Reported: messages per query under both regimes (the headline is the
savings ratio), the pool hit rate, and — because cheaper must not mean
wrong — each query's own empirical ``(epsilon, p)`` hit rate against the
oracle aggregate, as the shared session's auditor counts it. The command
line exits 1 when any query's Clopper–Pearson upper bound on coverage
falls below ``p`` (:func:`gate`).
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.datasets.base import DatasetInstance
from repro.db.aggregates import AggregateOp
from repro.experiments import sweep
from repro.experiments.harness import build_instance, pick_origin
from repro.experiments.report import format_table
from repro.obs.audit import Coverage
from repro.obs.console import emit

#: default overlapping precision demands, as multiples of the workload sigma
DEFAULT_EPSILON_RATIOS = (0.20, 0.25, 0.30, 0.35)


@dataclass
class QueryOutcome:
    """One query's cost and accuracy under the shared session."""

    query_id: str
    epsilon: float
    #: the session auditor's count of this query's answers within epsilon
    audit: Coverage
    samples: int
    pool_hits: int


@dataclass
class MultiQueryResult:
    """Shared-session vs. one-session-per-query comparison over one workload."""

    dataset: str
    n_queries: int
    steps: int
    confidence: float
    shared_messages: int
    solo_messages: int
    pool_hits: int
    pool_misses: int
    batches_coalesced: int
    outcomes: list[QueryOutcome] = field(default_factory=list)

    @property
    def shared_messages_per_query(self) -> float:
        return self.shared_messages / self.n_queries if self.n_queries else 0.0

    @property
    def solo_messages_per_query(self) -> float:
        return self.solo_messages / self.n_queries if self.n_queries else 0.0

    @property
    def message_savings(self) -> float:
        """Fraction of per-query messages saved by sharing (0..1)."""
        if self.solo_messages == 0:
            return 0.0
        return 1.0 - self.shared_messages / self.solo_messages

    @property
    def pool_hit_rate(self) -> float:
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def to_json_dict(
        self, wall_clock_seconds: float | None = None
    ) -> dict[str, object]:
        """Machine-readable summary (the BENCH_multi_query.json payload)."""
        payload: dict[str, object] = {
            "dataset": self.dataset,
            "n_queries": self.n_queries,
            "steps": self.steps,
            "confidence": self.confidence,
            "messages_shared_total": self.shared_messages,
            "messages_solo_total": self.solo_messages,
            "messages_per_query_shared": self.shared_messages_per_query,
            "messages_per_query_solo": self.solo_messages_per_query,
            "message_savings": self.message_savings,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_hit_rate": self.pool_hit_rate,
            "batches_coalesced": self.batches_coalesced,
            "queries": [
                {
                    "query_id": outcome.query_id,
                    "epsilon": outcome.epsilon,
                    "snapshots": outcome.audit.answers,
                    "coverage": outcome.audit.rate,
                    "samples": outcome.samples,
                    "pool_hits": outcome.pool_hits,
                }
                for outcome in self.outcomes
            ],
        }
        if wall_clock_seconds is not None:
            payload["wall_clock_seconds"] = wall_clock_seconds
        return payload

    def to_table(self) -> str:
        rows = [
            [
                outcome.query_id,
                f"{outcome.epsilon:.3f}",
                outcome.audit.answers,
                f"{outcome.audit.rate:.3f}",
                outcome.samples,
                outcome.pool_hits,
            ]
            for outcome in self.outcomes
        ]
        per_query = format_table(
            ["query", "epsilon", "snapshots", "coverage", "samples", "pool hits"],
            rows,
            title=(
                f"Per-query outcomes ({self.dataset}, {self.n_queries} "
                f"queries, p={self.confidence:g})"
            ),
        )
        summary = format_table(
            ["quantity", "value"],
            [
                ["messages/query (shared)", f"{self.shared_messages_per_query:.0f}"],
                ["messages/query (solo)", f"{self.solo_messages_per_query:.0f}"],
                ["message savings", f"{self.message_savings:.1%}"],
                ["pool hit rate", f"{self.pool_hit_rate:.1%}"],
                ["coalesced batches", self.batches_coalesced],
            ],
            title="Shared session vs independent engines",
        )
        return per_query + "\n\n" + summary


def _run_session(
    instance: DatasetInstance,
    precisions: list[Precision],
    config: EngineConfig,
    n_steps: int,
    seed: int,
    rng_seed: int,
) -> tuple[DigestSession, list[str]]:
    """One session answering an AVG query per precision for ``n_steps``
    ticks, each answer judged against the workload's true average."""
    session = DigestSession(
        instance.graph,
        instance.database,
        pick_origin(instance, seed),
        np.random.default_rng(rng_seed),
    )
    qids = [
        session.add_query(
            ContinuousQuery(
                Query(AggregateOp.AVG, instance.expression),
                precision,
                duration=n_steps,
            ),
            config=config,
        )
        for precision in precisions
    ]
    for time in range(n_steps):
        instance.step(time)
        session.step(time, truth=lambda _: instance.true_average())
    return session, qids


def run(
    dataset: str = "temperature",
    scale: float = 0.08,
    seed: int = 0,
    epsilon_ratios: tuple[float, ...] = DEFAULT_EPSILON_RATIOS,
    confidence: float = 0.95,
    evaluator: str = "independent",
    steps: int | None = None,
) -> MultiQueryResult:
    """Run the shared-vs-solo comparison; see the module docstring.

    All queries use the ALL scheduler so every occasion is co-due — the
    regime the coalescing is built for (PRED queries overlap only when
    their predicted update times collide).
    """
    # shared: one session, all queries leasing from one pool
    instance = build_instance(dataset, scale, seed)
    sigma = instance.config.expected_sigma  # type: ignore[attr-defined]
    precisions = [
        Precision(delta=sigma, epsilon=ratio * sigma, confidence=confidence)
        for ratio in epsilon_ratios
    ]
    config = EngineConfig(scheduler="all", evaluator=evaluator)
    n_steps = min(steps, instance.n_steps) if steps else instance.n_steps
    session, qids = _run_session(
        instance, precisions, config, n_steps, seed, seed + 1
    )
    outcomes = [
        QueryOutcome(
            query_id=qid,
            epsilon=precision.epsilon,
            audit=session.auditor.verdict(qid).coverage,
            samples=session.runtime(qid).metrics.samples_total,
            pool_hits=session.runtime(qid).metrics.pool_hits,
        )
        for qid, precision in zip(qids, precisions)
    ]

    # solo: one session per query over identically-seeded workload copies
    solo_messages = 0
    for index, precision in enumerate(precisions):
        solo, _ = _run_session(
            build_instance(dataset, scale, seed),
            [precision],
            config,
            n_steps,
            seed,
            seed + 1 + 1000 * (index + 1),
        )
        solo_messages += solo.ledger.total

    return MultiQueryResult(
        dataset=dataset,
        n_queries=len(precisions),
        steps=n_steps,
        confidence=confidence,
        shared_messages=session.ledger.total,
        solo_messages=solo_messages,
        pool_hits=session.pool.pool_hits,
        pool_misses=session.pool.pool_misses,
        batches_coalesced=session.batches_coalesced,
        outcomes=outcomes,
    )


def gate(result: MultiQueryResult) -> list[str]:
    """Coverage: each query's Clopper–Pearson upper bound reaches ``p``."""
    return [
        f"coverage upper bound below p: {outcome.query_id} "
        f"{outcome.audit.upper_bound:.4f}"
        for outcome in result.outcomes
        if outcome.audit.upper_bound < result.confidence
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Shared multi-query session vs. independent engines"
    )
    parser.add_argument("--dataset", default="temperature")
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the machine-readable summary (BENCH_multi_query.json)",
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = run(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        steps=args.steps,
    )
    wall_clock = time.perf_counter() - start
    emit(result.to_table())
    emit(
        f"\n{result.n_queries} co-resident queries pay "
        f"{result.message_savings:.0%} fewer messages per query than "
        f"independent engines"
    )
    if args.json_out:
        payload = result.to_json_dict(wall_clock_seconds=wall_clock)
        path = Path(args.json_out)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        emit(f"wrote {path}")
    return sweep.report("multi_query", gate(result))


if __name__ == "__main__":
    raise SystemExit(main())
