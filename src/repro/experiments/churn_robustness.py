"""Sampling correctness under churn.

The paper assumes the overlay is static *within* an occasion but may
change arbitrarily *between* occasions (Section II). Two things must then
keep working without any global coordination:

1. **The continued-walk pool** — walker positions carried across
   occasions may sit on departed nodes; the operator prunes them and
   replaces them with fresh full-mixing walks. The sampled distribution
   at each occasion must still match that occasion's target.
2. **The retained sample-set** — repeated sampling's matched portion
   shrinks as tuples vanish with departing nodes; the evaluator must
   backfill with fresh samples and keep meeting the variance target.

This experiment measures both against the per-step leave probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_table
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.graph import OverlayGraph
from repro.network.topology import power_law_topology
from repro.obs.console import emit
from repro.sampling.metropolis import stationary_distribution
from repro.sampling.mixing import total_variation
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool
from repro.sampling.weights import content_size_weights
from repro.db.relation import P2PDatabase, Schema


@dataclass
class ChurnRobustnessRow:
    leave_probability: float
    mean_tv: float  # sampled-node TV vs the per-occasion target
    pool_survival: float  # fraction of continued walkers that survived
    retained_fraction: float  # RPT matched fraction actually achieved
    mean_error: float  # RPT estimate error


@dataclass
class ChurnRobustnessResult:
    n_nodes: int
    occasions: int
    rows: list[ChurnRobustnessRow]

    def to_table(self) -> str:
        return format_table(
            [
                "leave prob/step",
                "sample TV vs target",
                "walker pool survival",
                "retained fraction",
                "RPT mean |error|",
            ],
            [
                [
                    row.leave_probability,
                    row.mean_tv,
                    row.pool_survival,
                    row.retained_fraction,
                    row.mean_error,
                ]
                for row in self.rows
            ],
            title=(
                f"Sampling robustness under churn (N~{self.n_nodes}, "
                f"{self.occasions} occasions)"
            ),
            precision=4,
        )


def _build_world(
    n_nodes: int, rng: np.random.Generator
) -> tuple[OverlayGraph, P2PDatabase]:
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(int(rng.integers(1, 5))):
            database.insert(node, {"v": float(rng.normal(10, 2))})
    return graph, database


def _populate_joined(
    database: P2PDatabase, nodes: list[int], rng: np.random.Generator
) -> None:
    for node in nodes:
        for _ in range(int(rng.integers(1, 5))):
            database.insert(node, {"v": float(rng.normal(10, 2))})


def run(
    n_nodes: int = 80,
    occasions: int = 6,
    samples_per_occasion: int = 2500,
    leave_probabilities: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10),
    seed: int = 0,
) -> ChurnRobustnessResult:
    rows = []
    for leave_probability in leave_probabilities:
        rng = np.random.default_rng(seed)
        graph, database = _build_world(n_nodes, rng)
        churn = ChurnProcess(
            graph,
            ChurnConfig(
                leave_probability=leave_probability,
                join_rate=leave_probability * n_nodes,
                min_nodes=n_nodes // 2,
            ),
            rng,
            protected={0},
        )
        operator = SamplePool(
            graph,
            np.random.default_rng(seed + 1),
            sampler_config=SamplerConfig(gamma=0.02, recompute_drift=0.02),
        ).operator

        # --- (1) distributional correctness of node sampling ------------
        tvs = []
        survivals = []
        for occasion in range(occasions):
            event = churn.step()
            database.handle_churn(event)
            _populate_joined(database, event.joined, rng)
            pool = operator.pool_nodes
            pool_before = [node for node in pool if node in graph]
            survivals.append(
                len(pool_before) / len(pool) if pool else 1.0
            )
            weight = content_size_weights(database)
            node_ids, target = stationary_distribution(graph, weight)
            index_of = {int(n): i for i, n in enumerate(node_ids)}
            sampled = operator.sample_nodes(
                weight, samples_per_occasion, origin=0
            )
            counts = np.zeros(len(node_ids))
            for node in sampled:
                counts[index_of[node]] += 1
            tvs.append(total_variation(counts / counts.sum(), target))

        # --- (2) repeated sampling across the same kind of churn ---------
        from repro.core.query import parse_query
        from repro.core.repeated import RepeatedEvaluator
        from repro.db.expression import Expression

        rng2 = np.random.default_rng(seed + 2)
        graph2, database2 = _build_world(n_nodes, rng2)
        churn2 = ChurnProcess(
            graph2,
            ChurnConfig(
                leave_probability=leave_probability,
                join_rate=leave_probability * n_nodes,
                min_nodes=n_nodes // 2,
            ),
            rng2,
            protected={0},
        )
        evaluator = RepeatedEvaluator(
            database2,
            SamplePool(
                graph2,
                np.random.default_rng(seed + 3),
                sampler_config=SamplerConfig(recompute_drift=0.02),
            ).operator,
            0,
            parse_query("SELECT AVG(v) FROM R"),
            np.random.default_rng(seed + 4),
        )
        retained_fractions = []
        errors = []
        for occasion in range(occasions):
            event = churn2.step()
            database2.handle_churn(event)
            _populate_joined(database2, event.joined, rng2)
            # mild value evolution so the correlation is real
            for tuple_id, _, row in list(database2.iter_tuples()):
                database2.update(
                    tuple_id,
                    {"v": 0.95 * row["v"] + 0.5 + float(rng2.normal(0, 0.3))},
                )
            estimate = evaluator.evaluate(occasion, epsilon=0.5, confidence=0.95)
            if occasion > 0:
                retained_fractions.append(
                    estimate.n_retained / max(1, estimate.n_total)
                )
            truth = float(database2.exact_values(Expression("v")).mean())
            errors.append(abs(estimate.mean - truth))

        rows.append(
            ChurnRobustnessRow(
                leave_probability=leave_probability,
                mean_tv=float(np.mean(tvs)),
                pool_survival=float(np.mean(survivals)),
                retained_fraction=float(np.mean(retained_fractions)),
                mean_error=float(np.mean(errors)),
            )
        )
    return ChurnRobustnessResult(
        n_nodes=n_nodes, occasions=occasions, rows=rows
    )


def main() -> int:
    emit(run().to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
