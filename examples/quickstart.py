"""Quickstart: a fixed-precision continuous AVG query over a P2P database.

Builds a 200-node unstructured overlay holding a single-attribute
relation, registers the continuous query

    SELECT AVG(temperature) FROM R   [delta=2, epsilon=2, p=0.95]

at node 0, and runs 60 time steps of slow drift. Digest (PRED3 + repeated
sampling by default) re-evaluates only when the extrapolated aggregate has
moved by delta, and sizes each snapshot's sample by the confidence
requirement.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    ContinuousQuery,
    DigestSession,
    Expression,
    OverlayGraph,
    P2PDatabase,
    Precision,
    Schema,
    parse_query,
    power_law_topology,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # --- substrate: overlay + horizontally partitioned relation ---------
    graph = OverlayGraph(power_law_topology(200, rng=rng), n_nodes=200)
    database = P2PDatabase(Schema(("temperature",)), graph.nodes())
    tuple_ids = []
    for node in graph.nodes():
        for _ in range(int(rng.integers(2, 8))):
            tuple_ids.append(
                database.insert(node, {"temperature": float(rng.normal(70, 8))})
            )
    print(f"overlay: {len(graph)} nodes, relation: {database.n_tuples} tuples")

    # --- the continuous query ------------------------------------------
    continuous = ContinuousQuery(
        parse_query("SELECT AVG(temperature) FROM R"),
        Precision(delta=2.0, epsilon=2.0, confidence=0.95),
        duration=60,
    )
    session = DigestSession(graph, database, origin=0, rng=rng)
    query_id = session.add_query(continuous)
    print(f"query: {continuous}")

    # --- drive the world and the session --------------------------------
    for t in range(60):
        # slow sinusoidal drift + per-tuple noise
        drift = 0.25 * np.sin(t / 6.0)
        for tid in tuple_ids:
            current = database.read(tid)["temperature"]
            database.update(
                tid, {"temperature": current + drift + rng.normal(0, 0.3)}
            )
        estimate = session.step(t).get(query_id)
        if estimate is not None:
            truth = database.exact_values(Expression("temperature")).mean()
            print(
                f"t={t:2d}  snapshot: estimate={estimate.aggregate:6.2f}  "
                f"truth={truth:6.2f}  samples={estimate.n_total}"
                f" (fresh={estimate.n_fresh})"
            )

    metrics = session.metrics
    print(
        f"\nran {metrics.snapshot_queries} snapshot queries over 60 steps, "
        f"{metrics.samples_total} samples total "
        f"({metrics.samples_fresh} fresh), "
        f"{session.ledger.total} overlay messages"
    )


if __name__ == "__main__":
    main()
