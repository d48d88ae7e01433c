"""Grid scheduler: the paper's second motivating scenario (Section I).

    "Notify me whenever the total amount of available memory is more
     than 4GB."

Runs a SUM query over the churning MEMORY workload (SETI@HOME surrogate):
nodes join and leave, tuples appear and vanish, and the session keeps a
fixed-precision running total that a task scheduler can threshold. SUM
scales a mean estimate by the relation size N, so this example also shows
the oracle-free mode where N itself is estimated by capture-recapture
sampling.

Run:  python examples/grid_scheduler.py
"""

import dataclasses

import numpy as np

from repro import DigestSession, EngineConfig, Precision
from repro.core.query import ContinuousQuery, parse_query
from repro.core.threshold import ThresholdMonitor
from repro.datasets.memory import MemoryConfig, MemoryDataset


def main() -> None:
    config = dataclasses.replace(
        MemoryConfig().scaled(0.25), leave_probability=0.004
    )
    instance = MemoryDataset(config, seed=5).build()
    print(
        f"computing grid: {len(instance.graph)} nodes, "
        f"{instance.database.n_tuples} computing units (churning)"
    )

    # total available memory, in the workload's MB-scale units
    threshold = 1.02 * instance.true_average() * instance.database.n_tuples
    continuous = ContinuousQuery(
        parse_query("SELECT SUM(available_memory) FROM R"),
        Precision(
            delta=0.005 * threshold,  # re-evaluate on 0.5% total drift
            epsilon=0.02 * threshold,  # 2% absolute error tolerated
            confidence=0.95,
        ),
        duration=instance.n_steps,
    )
    origin = instance.graph.nodes()[0]
    instance.churn.protect(origin)  # the scheduler node stays up
    session = DigestSession(
        instance.graph,
        instance.database,
        origin=origin,
        rng=np.random.default_rng(17),
    )
    query_id = session.add_query(
        continuous,
        config=EngineConfig(scheduler="pred", evaluator="repeated"),
    )

    # confidence-gated crossing detection: a flip is declared only when
    # the estimate's confidence interval clears the threshold, so noise
    # inside the band never flaps the scheduler
    def on_crossing(event):
        print(
            f"t={event.time:3d}  NOTIFY: total available memory "
            f"{event.estimate:,.0f} (+/-{event.half_width:,.0f}) is "
            f"{event.state.value.upper()} the {threshold:,.0f} threshold"
        )

    monitor = ThresholdMonitor(
        threshold, confidence=0.95, callback=on_crossing
    )
    for t in range(instance.n_steps):
        instance.step(t)
        estimate = session.step(t).get(query_id)
        if estimate is not None:
            monitor.offer(estimate)

    truth = instance.true_average() * instance.database.n_tuples
    result = session.runtime(query_id).result
    print(
        f"\nfinal: estimated total {result.last().estimate:,.0f} "
        f"vs exact {truth:,.0f}; churn: {instance.nodes_joined} joins, "
        f"{instance.nodes_left} leaves, "
        f"{instance.tuples_lost_to_churn} tuples lost; "
        f"{session.metrics.snapshot_queries} snapshot queries, "
        f"{session.ledger.total} messages; "
        f"{monitor.uncertain_estimates} estimates were too close to call"
    )


if __name__ == "__main__":
    main()
