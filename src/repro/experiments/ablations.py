"""Design-choice ablations called out in DESIGN.md.

1. **Laziness** — the 1/2 self-loop makes the chain aperiodic; on a
   bipartite overlay (even ring, grid) a non-lazy walk oscillates and
   never converges in TV. Measured: TV after a long walk, lazy vs not.
2. **Continued walks vs fresh walks** — the reset-time optimization
   (Section VI-A). Measured: messages per sample with the pool on/off.
3. **Two-stage vs cluster sampling** — Section III's argument: with high
   intra-node value correlation, cluster samples are nearly redundant
   within a node. Measured: estimator RMSE at equal tuple budget.
4. **Replacement policy** — optimal partition vs all-retain vs
   all-replace (Eq. 9/10 vs the extremes). Measured: combined-estimator
   variance via the closed form and Monte-Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.relation import P2PDatabase, Schema
from repro.experiments.report import format_table
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology, ring_topology
from repro.obs.console import emit
from repro.sampling.metropolis import metropolis_matrix
from repro.sampling.mixing import total_variation
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool
from repro.sampling.weights import uniform_weights
from repro.core.repeated import combined_variance, optimal_partition


# ----------------------------------------------------------------------
# 1. laziness
# ----------------------------------------------------------------------

@dataclass
class LazinessResult:
    n_nodes: int
    steps: int
    tv_lazy: float
    tv_nonlazy: float

    def to_table(self) -> str:
        return format_table(
            ["variant", "TV distance after walk"],
            [["lazy (1/2)", self.tv_lazy], ["non-lazy", self.tv_nonlazy]],
            title=(
                f"Ablation 1: laziness on a bipartite ring "
                f"(N={self.n_nodes}, {self.steps} steps)"
            ),
            precision=4,
        )


def laziness_ablation(n_nodes: int = 64, steps: int = 4000) -> LazinessResult:
    """Non-lazy walks on a bipartite graph never mix; lazy walks do."""
    graph = OverlayGraph(ring_topology(n_nodes), n_nodes=n_nodes)
    weight = uniform_weights()
    results = {}
    for laziness in (0.5, 0.0):
        _, matrix = metropolis_matrix(graph, weight, laziness=laziness)
        distribution = np.zeros(n_nodes)
        distribution[0] = 1.0
        for _ in range(steps):
            distribution = distribution @ matrix
        target = np.full(n_nodes, 1.0 / n_nodes)
        results[laziness] = total_variation(distribution, target)
    return LazinessResult(
        n_nodes=n_nodes,
        steps=steps,
        tv_lazy=results[0.5],
        tv_nonlazy=results[0.0],
    )


# ----------------------------------------------------------------------
# 2. continued walks
# ----------------------------------------------------------------------

@dataclass
class ContinuedWalkResult:
    n_nodes: int
    n_samples: int
    msgs_continued: float
    msgs_fresh: float

    @property
    def speedup(self) -> float:
        return self.msgs_fresh / self.msgs_continued if self.msgs_continued else 0.0

    def to_table(self) -> str:
        return format_table(
            ["variant", "messages/sample"],
            [
                ["continued walks (reset time)", self.msgs_continued],
                ["fresh walks (full mixing)", self.msgs_fresh],
            ],
            title=(
                f"Ablation 2: continued walks "
                f"(power-law N={self.n_nodes}, {self.n_samples} samples "
                f"over 4 occasions)"
            ),
        )


def continued_walk_ablation(
    n_nodes: int = 400, n_samples: int = 50, occasions: int = 4, seed: int = 0
) -> ContinuedWalkResult:
    rng = np.random.default_rng(seed)
    edges = power_law_topology(n_nodes, rng=rng)
    results = {}
    for continued in (True, False):
        graph = OverlayGraph(edges, n_nodes=n_nodes)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        gen = np.random.default_rng(seed + 1)
        for node in graph.nodes():
            for _ in range(1 + int(gen.integers(0, 4))):
                database.insert(node, {"v": float(gen.normal(0, 1))})
        ledger = MessageLedger()
        operator = SamplePool(
            graph,
            np.random.default_rng(seed + 2),
            ledger,
            SamplerConfig(continued_walks=continued),
        ).operator
        total = 0
        for _ in range(occasions):
            operator.sample_tuples(database, n_samples, origin=0)
            total += n_samples
            if not continued:
                operator.reset_pool()
        results[continued] = ledger.total / total
    return ContinuedWalkResult(
        n_nodes=n_nodes,
        n_samples=n_samples,
        msgs_continued=results[True],
        msgs_fresh=results[False],
    )


# ----------------------------------------------------------------------
# 3. two-stage vs cluster sampling
# ----------------------------------------------------------------------

@dataclass
class ClusterResult:
    n_nodes: int
    tuples_per_node: int
    rmse_two_stage: float
    rmse_cluster: float

    def to_table(self) -> str:
        return format_table(
            ["scheme", "RMSE of AVG estimate"],
            [
                ["two-stage", self.rmse_two_stage],
                ["cluster", self.rmse_cluster],
            ],
            title=(
                "Ablation 3: two-stage vs cluster sampling under intra-node "
                f"correlation (N={self.n_nodes} nodes x "
                f"{self.tuples_per_node} tuples)"
            ),
            precision=4,
        )


def _values(database: P2PDatabase, tuple_ids: np.ndarray) -> np.ndarray:
    """Attribute ``v`` of the sampled tuples, in sample order."""
    return database.gather(["v"], tuple_ids)["v"]


def cluster_sampling_ablation(
    n_nodes: int = 144,
    tuples_per_node: int = 8,
    budget: int = 64,
    trials: int = 60,
    seed: int = 0,
) -> ClusterResult:
    """Equal tuple budget; node contents highly correlated (clustered)."""
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        node_mean = float(rng.normal(0, 10))  # strong intra-node clustering
        for _ in range(tuples_per_node):
            database.insert(node, {"v": node_mean + float(rng.normal(0, 1))})
    from repro.db.expression import Expression

    truth = float(database.exact_values(Expression("v")).mean())
    errors = {"two_stage": [], "cluster": []}
    for trial in range(trials):
        operator = SamplePool(
            graph, np.random.default_rng(seed + 10 + trial)
        ).operator
        samples = operator.sample_tuples(database, budget, origin=0)
        estimate = float(np.mean(_values(database, samples)))
        errors["two_stage"].append((estimate - truth) ** 2)

        operator_c = SamplePool(
            graph, np.random.default_rng(seed + 5000 + trial)
        ).operator
        values: list[float] = []
        while len(values) < budget:
            _, batch = operator_c.cluster_sample(database, origin=0)
            values.extend(_values(database, batch).tolist())
        estimate_c = float(np.mean(values[:budget]))
        errors["cluster"].append((estimate_c - truth) ** 2)
    return ClusterResult(
        n_nodes=n_nodes,
        tuples_per_node=tuples_per_node,
        rmse_two_stage=float(np.sqrt(np.mean(errors["two_stage"]))),
        rmse_cluster=float(np.sqrt(np.mean(errors["cluster"]))),
    )


# ----------------------------------------------------------------------
# 4. replacement policy
# ----------------------------------------------------------------------

@dataclass
class ReplacementResult:
    rho: float
    n: int
    variance_all_replace: float
    variance_all_retain: float
    variance_optimal: float
    g_optimal: int

    def to_table(self) -> str:
        return format_table(
            ["policy", "combined variance"],
            [
                ["all replace (g=0)", self.variance_all_replace],
                [f"all retain (g={self.n})", self.variance_all_retain],
                [f"optimal (g={self.g_optimal})", self.variance_optimal],
            ],
            title=(
                f"Ablation 4: replacement policy (rho={self.rho}, "
                f"n={self.n}, sigma^2=1)"
            ),
            precision=5,
        )


def replacement_policy_ablation(rho: float = 0.9, n: int = 100) -> ReplacementResult:
    """Closed-form comparison: both extremes give sigma^2/n (Eq. 8 note)."""
    sigma2 = 1.0
    var_prev = sigma2 / n
    g_opt, _ = optimal_partition(n, rho)
    return ReplacementResult(
        rho=rho,
        n=n,
        variance_all_replace=combined_variance(sigma2, n, 0, rho, var_prev),
        variance_all_retain=combined_variance(sigma2, n, n, rho, var_prev),
        variance_optimal=combined_variance(sigma2, n, g_opt, rho, var_prev),
        g_optimal=g_opt,
    )


# ----------------------------------------------------------------------
# 5. Metropolis targeting vs importance reweighting
# ----------------------------------------------------------------------

@dataclass
class ImportanceResult:
    n_nodes: int
    budget: int
    rmse_metropolis: float
    rmse_importance: float
    mean_effective_sample_size: float

    def to_table(self) -> str:
        return format_table(
            ["sampler", "RMSE of AVG estimate"],
            [
                ["Metropolis two-stage (Digest)", self.rmse_metropolis],
                ["plain walk + SNIS reweight", self.rmse_importance],
            ],
            title=(
                "Ablation 5: Metropolis targeting vs importance reweighting "
                f"(N={self.n_nodes}, budget={self.budget}, "
                f"ESS={self.mean_effective_sample_size:.1f})"
            ),
            precision=4,
        )


def importance_sampling_ablation(
    n_nodes: int = 200,
    budget: int = 80,
    trials: int = 40,
    seed: int = 0,
) -> ImportanceResult:
    """Equal sample budgets on a skewed world: targeting should win.

    The world is adversarial for reweighting: content sizes are skewed
    *against* degree (hubs hold little data), stretching the importance
    weights ``m_v / d_v``.
    """
    from repro.db.expression import Expression
    from repro.sampling.importance import (
        ImportanceSampler,
        effective_sample_size,
        self_normalized_mean,
    )

    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    max_degree = max(degrees.values())
    for node in graph.nodes():
        # low-degree nodes hold many tuples, hubs few: adversarial skew
        count = 1 + 2 * (max_degree - degrees[node])
        node_mean = float(rng.normal(0, 5))
        for _ in range(count):
            database.insert(node, {"v": node_mean + float(rng.normal(0, 1))})
    expression = Expression("v")
    truth = float(database.exact_values(expression).mean())

    errors = {"metropolis": [], "importance": []}
    sizes = []
    for trial in range(trials):
        operator = SamplePool(
            graph,
            np.random.default_rng(seed + 100 + trial),
            sampler_config=SamplerConfig(continued_walks=False),
        ).operator
        samples = operator.sample_tuples(database, budget, origin=0)
        estimate = float(np.mean(_values(database, samples)))
        errors["metropolis"].append((estimate - truth) ** 2)

        sampler = ImportanceSampler(
            graph, np.random.default_rng(seed + 5000 + trial)
        )
        weighted = sampler.sample_weighted_tuples(
            database, expression, budget, origin=0
        )
        errors["importance"].append(
            (self_normalized_mean(weighted) - truth) ** 2
        )
        sizes.append(effective_sample_size(weighted))
    return ImportanceResult(
        n_nodes=n_nodes,
        budget=budget,
        rmse_metropolis=float(np.sqrt(np.mean(errors["metropolis"]))),
        rmse_importance=float(np.sqrt(np.mean(errors["importance"]))),
        mean_effective_sample_size=float(np.mean(sizes)),
    )


def main() -> int:
    emit(laziness_ablation().to_table() + "\n")
    emit(continued_walk_ablation().to_table() + "\n")
    emit(cluster_sampling_ablation().to_table() + "\n")
    emit(replacement_policy_ablation().to_table() + "\n")
    emit(importance_sampling_ablation().to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
