"""Quantifying the related-work claims (Section VII).

The paper dismisses two in-network alternatives with qualitative
arguments; these experiments make both measurable:

* **Gossip (push-sum)** — "communication-intensive and ... only justified
  when all nodes of the network issue the same aggregate query
  simultaneously". :func:`gossip_crossover` measures total messages for
  ``K`` simultaneous querying nodes: gossip pays one network-wide flood
  regardless of ``K`` while Digest pays per querier, so there is a
  crossover ``K*`` below which sampling wins.
* **TAG tree aggregation** — "prone to severe miscalculations due to
  frequent fragmentation" under churn. :func:`tag_vs_churn` measures the
  tree baseline's aggregate error and excluded-node fraction as the churn
  rate grows, against Digest's sampling error on the same worlds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.baselines.push_sum import PushSumBaseline
from repro.baselines.tree_aggregation import TreeAggregationBaseline
from repro.core.query import Precision
from repro.datasets.memory import MemoryConfig, MemoryDataset
from repro.experiments.harness import (
    build_instance,
    canonical_query,
    make_engine,
    pick_origin,
)
from repro.experiments.report import format_table
from repro.obs.console import emit

# ----------------------------------------------------------------------
# gossip crossover
# ----------------------------------------------------------------------


@dataclass
class GossipCrossoverResult:
    n_nodes: int
    gossip_messages_per_snapshot: int
    digest_messages_per_querier: float
    querier_counts: list[int]
    gossip_totals: list[int]
    digest_totals: list[float]

    @property
    def crossover(self) -> float:
        """Queriers needed before gossip becomes cheaper than Digest."""
        return self.gossip_messages_per_snapshot / max(
            1.0, self.digest_messages_per_querier
        )

    def to_table(self) -> str:
        rows = [
            [k, gossip, digest]
            for k, gossip, digest in zip(
                self.querier_counts, self.gossip_totals, self.digest_totals
            )
        ]
        return format_table(
            ["simultaneous queriers K", "gossip msgs", "Digest msgs"],
            rows,
            title=(
                f"Gossip vs Digest per snapshot (N={self.n_nodes}; "
                f"crossover at K* ~= {self.crossover:.0f} queriers)"
            ),
        )


def gossip_crossover(
    scale: float = 0.3,
    seed: int = 0,
    querier_counts: tuple[int, ...] = (1, 4, 16, 64),
) -> GossipCrossoverResult:
    """Messages per snapshot query, K queriers: gossip vs Digest sampling."""
    instance = build_instance("temperature", scale, seed)
    sigma = instance.config.expected_sigma  # type: ignore[attr-defined]
    precision = Precision(delta=sigma, epsilon=0.25 * sigma, confidence=0.95)
    continuous = canonical_query(instance, precision)

    # gossip: one run serves every node; cost independent of K
    gossip = PushSumBaseline(
        instance.graph,
        instance.database,
        continuous.query,
        origin=instance.graph.nodes()[0],
        rng=np.random.default_rng(seed + 1),
    )
    gossip_run = gossip.run_snapshot()

    # Digest: per-querier snapshot cost, measured on one querier
    session = make_engine(
        instance, precision, "all", "repeated", instance.graph.nodes()[0], seed
    )
    for time in range(3):  # a few occasions so continued walks amortize
        instance.step(time)
        session.step(time)
    digest_per_querier = session.ledger.total / session.metrics.snapshot_queries

    return GossipCrossoverResult(
        n_nodes=len(instance.graph),
        gossip_messages_per_snapshot=gossip_run.messages,
        digest_messages_per_querier=digest_per_querier,
        querier_counts=list(querier_counts),
        gossip_totals=[gossip_run.messages for _ in querier_counts],
        digest_totals=[digest_per_querier * k for k in querier_counts],
    )


# ----------------------------------------------------------------------
# TAG fragility under churn
# ----------------------------------------------------------------------


@dataclass
class TagChurnRow:
    leave_probability: float
    tree_mae: float
    digest_mae: float
    mean_lost_fraction: float


@dataclass
class TagChurnResult:
    rows: list[TagChurnRow]
    epsilon: float

    def to_table(self) -> str:
        return format_table(
            [
                "leave prob/step",
                "TAG mean abs error",
                "Digest mean abs error",
                "mean excluded nodes",
            ],
            [
                [
                    row.leave_probability,
                    row.tree_mae,
                    row.digest_mae,
                    row.mean_lost_fraction,
                ]
                for row in self.rows
            ],
            title=(
                "TAG tree aggregation vs Digest under churn "
                f"(Digest epsilon={self.epsilon:.2f})"
            ),
            precision=4,
        )


def tag_vs_churn(
    scale: float = 0.15,
    seed: int = 0,
    leave_probabilities: tuple[float, ...] = (0.0, 0.01, 0.03, 0.06),
    n_steps: int = 40,
    rebuild_interval: int = 16,
) -> TagChurnResult:
    """Aggregate error of tree aggregation vs Digest as churn grows."""
    rows = []
    sigma = MemoryConfig().expected_sigma
    epsilon = 0.25 * sigma
    for leave_probability in leave_probabilities:
        config = dataclasses.replace(
            MemoryConfig().scaled(scale), leave_probability=leave_probability
        )
        # --- TAG ---------------------------------------------------------
        instance = MemoryDataset(config, seed=seed).build()
        origin = pick_origin(instance, seed)
        continuous = canonical_query(
            instance, Precision(delta=sigma, epsilon=epsilon, confidence=0.95)
        )
        tree = TreeAggregationBaseline(
            instance.graph,
            instance.database,
            continuous.query,
            origin,
            rebuild_interval=rebuild_interval,
        )
        tree_errors, lost_fractions = [], []
        for time in range(n_steps):
            instance.step(time)
            snapshot = tree.step(time)
            truth = instance.true_average()
            tree_errors.append(abs(snapshot.estimate - truth))
            lost_fractions.append(
                snapshot.nodes_lost
                / max(1, snapshot.nodes_lost + snapshot.nodes_included)
            )
        # --- Digest on an identical world ---------------------------------
        instance = MemoryDataset(config, seed=seed).build()
        origin = pick_origin(instance, seed)
        session = make_engine(
            instance,
            Precision(delta=sigma, epsilon=epsilon, confidence=0.95),
            "all",
            "repeated",
            origin,
            seed,
        )
        digest_errors = []
        for time in range(n_steps):
            instance.step(time)
            for estimate in session.step(time).values():
                digest_errors.append(
                    abs(estimate.aggregate - instance.true_average())
                )
        rows.append(
            TagChurnRow(
                leave_probability=leave_probability,
                tree_mae=float(np.mean(tree_errors)),
                digest_mae=float(np.mean(digest_errors)),
                mean_lost_fraction=float(np.mean(lost_fractions)),
            )
        )
    return TagChurnResult(rows=rows, epsilon=epsilon)


def main() -> int:
    emit(gossip_crossover().to_table())
    emit()
    emit(tag_vs_churn().to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
