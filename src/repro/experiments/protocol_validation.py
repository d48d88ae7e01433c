"""Protocol-level validation of the sampling layer.

Two questions the abstract (matrix-based) simulation cannot answer by
construction:

1. **Agreement** — do walks executed as real message exchanges sample the
   distribution the transition matrix predicts? Measured as the total
   variation between the protocol-executed empirical distribution and the
   target, for both protocol variants.
2. **Cost-model bracketing** — the abstract model charges exactly one
   message per proposal. The bounce protocol pays one extra message per
   rejection; the cached protocol pays nothing for rejections but
   advertises weights. Measured per-walk message costs should satisfy

       cached (steady state)  <=  abstract  <=  bounce
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_table
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import power_law_topology
from repro.obs.console import emit
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler
from repro.sampling.metropolis import stationary_distribution
from repro.sampling.mixing import total_variation
from repro.sampling.weights import WeightFunction, table_weights
from repro.sim.engine import SimulationEngine


@dataclass
class ProtocolRow:
    variant: str
    tv_distance: float
    walk_messages_per_walk: float
    return_messages_per_walk: float
    control_messages: int
    bounces: int


@dataclass
class ProtocolResult:
    n_nodes: int
    n_walks: int
    walk_length: int
    abstract_messages_per_walk: float
    rows: list[ProtocolRow]

    def to_table(self) -> str:
        table_rows = [
            [
                row.variant,
                row.tv_distance,
                row.walk_messages_per_walk,
                row.return_messages_per_walk,
                row.control_messages,
                row.bounces,
            ]
            for row in self.rows
        ]
        table_rows.append(
            ["abstract model", "-", self.abstract_messages_per_walk, "-", 0, 0]
        )
        return format_table(
            [
                "variant",
                "TV vs target",
                "walk msgs/walk",
                "return msgs/walk",
                "control msgs",
                "bounces",
            ],
            table_rows,
            title=(
                f"Protocol-level validation (N={self.n_nodes}, "
                f"{self.n_walks} walks x {self.walk_length} steps)"
            ),
            precision=4,
        )


def _world(n_nodes: int, seed: int) -> tuple[OverlayGraph, WeightFunction]:
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    weights = {
        node: float(1 + rng.integers(1, 6)) for node in graph.nodes()
    }
    return graph, table_weights(weights)


def run(
    n_nodes: int = 60,
    n_walks: int = 4000,
    walk_length: int = 120,
    seed: int = 0,
) -> ProtocolResult:
    graph, weight = _world(n_nodes, seed)
    _, target = stationary_distribution(graph, weight)
    node_index = {node: i for i, node in enumerate(graph.nodes())}

    rows = []
    for variant in ("bounce", "cached"):
        simulation = SimulationEngine()
        ledger = MessageLedger()
        sampler = ProtocolSampler(
            graph,
            weight,
            simulation,
            np.random.default_rng(seed + 1),
            ledger,
            ProtocolConfig(variant=variant),
        )
        sampled = sampler.run_walks(origin=0, n=n_walks, walk_length=walk_length)
        counts = np.zeros(len(node_index))
        for node in sampled:
            counts[node_index[node]] += 1
        empirical = counts / counts.sum()
        rows.append(
            ProtocolRow(
                variant=variant,
                tv_distance=total_variation(empirical, target),
                walk_messages_per_walk=ledger.walk_steps / n_walks,
                return_messages_per_walk=ledger.sample_returns / n_walks,
                control_messages=ledger.control,
                bounces=sampler.bounces,
            )
        )

    # the abstract model: one message per non-lazy proposal, which is
    # each walk's step budget
    from repro.sampling.walker import WalkContext, batch_walk

    _, budgets = batch_walk(
        WalkContext.from_graph(graph, weight),
        np.zeros(n_walks, dtype=np.int64),
        walk_length,
        np.random.default_rng(seed + 2),
    )
    return ProtocolResult(
        n_nodes=n_nodes,
        n_walks=n_walks,
        walk_length=walk_length,
        abstract_messages_per_walk=float(budgets.mean()),
        rows=rows,
    )


def main() -> int:
    emit(run().to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
