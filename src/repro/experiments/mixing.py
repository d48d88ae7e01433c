"""Sampling-cost scaling (Theorem 4 and the measured per-sample cost).

Two measurements:

1. **Messages per sample** on paper-scale overlays — the paper reports 65
   messages/sample for the (mesh) weather network and 43 for the
   (power-law) SETI@HOME network. We reproduce the measurement: draw many
   samples through the operator and divide the ledger total.
2. **Scaling with network size** — Theorem 4 claims poly-logarithmic
   mixing time on power-law graphs. We sweep sizes, measure the empirical
   mixing time and the Theorem-3 bound, and report the ratio to
   ``log^4 N`` (bounded ratio = consistent with the theorem's shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.relation import P2PDatabase, Schema
from repro.experiments.report import format_table
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology
from repro.obs.console import emit
from repro.sampling import mixing as mixing_mod
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool
from repro.sampling.walker import WalkContext
from repro.sampling.weights import content_size_weights


def _build_world(
    topology: str, n_nodes: int, seed: int
) -> tuple[OverlayGraph, P2PDatabase]:
    rng = np.random.default_rng(seed)
    if topology == "mesh":
        edges = mesh_topology(n_nodes)
    else:
        edges = power_law_topology(n_nodes, rng=rng)
    graph = OverlayGraph(edges, n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(1 + int(rng.integers(0, 5))):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


@dataclass
class MixingRow:
    topology: str
    n_nodes: int
    eigengap: float
    empirical_mix: int
    theorem3_bound: int
    messages_per_sample: float
    log4_ratio: float  # empirical_mix / log(N)^4


@dataclass
class MixingResult:
    rows: list[MixingRow]
    gamma: float

    def to_table(self) -> str:
        headers = [
            "topology",
            "N",
            "eigengap",
            "empirical tau",
            "Thm3 bound",
            "msgs/sample",
            "tau/log^4(N)",
        ]
        table_rows = [
            [
                row.topology,
                row.n_nodes,
                row.eigengap,
                row.empirical_mix,
                row.theorem3_bound,
                row.messages_per_sample,
                row.log4_ratio,
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            table_rows,
            title=f"Sampling-cost scaling (gamma={self.gamma})",
        )


def measure(
    topology: str,
    n_nodes: int,
    gamma: float = 0.05,
    n_samples: int = 200,
    seed: int = 0,
) -> MixingRow:
    """One (topology, size) measurement."""
    graph, database = _build_world(topology, n_nodes, seed)
    weight = content_size_weights(database)
    context = WalkContext.from_graph(graph, weight)
    matrix = mixing_mod.sparse_transition_matrix(context)
    gap = mixing_mod.eigengap_sparse(matrix)
    target = context.target_distribution()
    # empirical mixing from a fixed origin (node 0), sparse iteration
    distribution = np.zeros(context.n_nodes)
    distribution[context.compact_index(0)] = 1.0
    transpose = matrix.T.tocsr()
    empirical = 0
    for step in range(1, 200_000):
        distribution = transpose @ distribution
        if 0.5 * float(np.abs(distribution - target).sum()) <= gamma:
            empirical = step
            break
    positive = context.weights[context.weights > 0]
    p_min = float(positive.min() / context.weights.sum())
    bound = mixing_mod.mixing_time_bound(gap, p_min, gamma)

    rng = np.random.default_rng(seed + 1)
    ledger = MessageLedger()
    operator = SamplePool(
        graph, rng, ledger, SamplerConfig(gamma=gamma)
    ).operator
    operator.sample_tuples(database, n_samples, origin=0)
    per_sample = ledger.total / n_samples
    return MixingRow(
        topology=topology,
        n_nodes=n_nodes,
        eigengap=gap,
        empirical_mix=empirical,
        theorem3_bound=bound,
        messages_per_sample=per_sample,
        log4_ratio=empirical / math.log(n_nodes) ** 4,
    )


def run(
    sizes: tuple[int, ...] = (128, 256, 512, 1024),
    topologies: tuple[str, ...] = ("power_law", "mesh"),
    gamma: float = 0.05,
    seed: int = 0,
) -> MixingResult:
    rows = [
        measure(topology, size, gamma=gamma, seed=seed)
        for topology in topologies
        for size in sizes
    ]
    return MixingResult(rows=rows, gamma=gamma)


def paper_scale_costs(seed: int = 0) -> dict[str, float]:
    """Messages/sample at the paper's network sizes (paper: 65 and 43)."""
    mesh = measure("mesh", 530, seed=seed)
    power = measure("power_law", 820, seed=seed)
    return {
        "mesh_530": mesh.messages_per_sample,
        "power_law_820": power.messages_per_sample,
    }


def main() -> int:
    result = run()
    emit(result.to_table())
    costs = paper_scale_costs()
    emit(
        f"\nPaper-scale per-sample cost: mesh(530) = "
        f"{costs['mesh_530']:.0f} msgs (paper: 65), power-law(820) = "
        f"{costs['power_law_820']:.0f} msgs (paper: 43)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
