"""Using the sampling operator directly with custom weight functions.

The bottom tier of Digest is independently useful: given any *local*
weight function, the Metropolis random walk samples nodes proportionally
to it with no global coordination (Section V). This example:

1. samples nodes uniformly and verifies the empirical distribution;
2. samples nodes proportionally to a "reputation" score;
3. runs two-stage tuple sampling and compares its estimator against
   cluster sampling on a relation with strong intra-node correlation
   (the Section III argument for two-stage);
4. estimates the network size by capture-recapture, using nothing but
   node samples.

Run:  python examples/custom_sampling.py
"""

import numpy as np

from repro import (
    Expression,
    MessageLedger,
    OverlayGraph,
    P2PDatabase,
    SamplerConfig,
    SamplingOperator,
    Schema,
    power_law_topology,
)
from repro.sampling.size_estimation import estimate_network_size
from repro.sampling.weights import table_weights, uniform_weights


def main() -> None:
    rng = np.random.default_rng(21)
    n_nodes = 300
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    # strongly clustered content: each node's tuples share a local mean
    for node in graph.nodes():
        local_mean = float(rng.normal(0.0, 10.0))
        for _ in range(4):
            database.insert(node, {"v": local_mean + float(rng.normal(0.0, 1.0))})

    ledger = MessageLedger()
    operator = SamplingOperator(graph, rng, ledger, SamplerConfig(gamma=0.02))

    # --- 1. uniform node sampling ---------------------------------------
    samples = operator.sample_nodes(uniform_weights(), 3000, origin=0)
    counts = np.bincount(samples, minlength=n_nodes)
    print(
        "uniform node sampling: min/mean/max visits per node = "
        f"{counts.min()}/{counts.mean():.1f}/{counts.max()} "
        f"({ledger.total} messages so far)"
    )

    # --- 2. reputation-weighted sampling ---------------------------------
    reputation = {node: float(1 + (node % 5)) for node in graph.nodes()}
    samples = operator.sample_nodes(table_weights(reputation), 5000, origin=0)
    by_reputation = {}
    for node in samples:
        by_reputation.setdefault(reputation[node], 0)
        by_reputation[reputation[node]] += 1
    print("reputation-weighted sampling (hit share should scale ~linearly):")
    total_rep = sum(reputation.values())
    for score in sorted(by_reputation):
        share = by_reputation[score] / len(samples)
        expected = (
            sum(w for w in reputation.values() if w == score) / total_rep
        )
        print(f"  weight {score:.0f}: observed {share:.3f}, expected {expected:.3f}")

    # --- 3. two-stage vs cluster sampling --------------------------------
    truth = database.exact_values(Expression("v")).mean()
    # a batch of samples is an array of tuple ids; one gather reads its values
    def values(tuple_ids):
        return database.gather(["v"], tuple_ids)["v"]

    two_stage = values(operator.sample_tuples(database, 200, origin=0))
    cluster_values = []
    while len(cluster_values) < 200:
        _, batch = operator.cluster_sample(database, origin=0)
        cluster_values.extend(values(batch).tolist())
    cluster_values = cluster_values[:200]
    print(
        f"AVG estimation with 200 tuples: truth={truth:+.3f}, "
        f"two-stage={np.mean(two_stage):+.3f}, "
        f"cluster={np.mean(cluster_values):+.3f} "
        "(cluster suffers from intra-node correlation)"
    )

    # --- 4. network-size estimation --------------------------------------
    estimate = estimate_network_size(operator, origin=0, phase_size=100)
    print(f"capture-recapture network size: ~{estimate:.0f} (truth: {n_nodes})")


if __name__ == "__main__":
    main()
