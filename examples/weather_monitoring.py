"""Weather monitoring: the paper's motivating scenario (Section I).

    "Over next 24 hours, notify me whenever the average temperature of
     the area changes more than 2 F."

Uses the calibrated synthetic TEMPERATURE workload (Table II surrogate) at
a reduced scale, issues the continuous query with delta = 2 F, and prints
a notification every time the running result updates — comparing Digest's
schedule against what naive per-step re-evaluation would have cost.

Run:  python examples/weather_monitoring.py
"""

import numpy as np

from repro import DigestSession, EngineConfig, Precision
from repro.core.query import ContinuousQuery, parse_query
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset


def main() -> None:
    config = TemperatureConfig().scaled(0.08)  # 42 nodes, 640 sensor units
    instance = TemperatureDataset(config, seed=3).build()
    print(
        f"weather network: {len(instance.graph)} stations, "
        f"{instance.database.n_tuples} sensor units, "
        f"{instance.n_steps} twelve-hour steps"
    )

    continuous = ContinuousQuery(
        parse_query("SELECT AVG(temperature) FROM R"),
        Precision(delta=2.0, epsilon=1.0, confidence=0.95),
        duration=instance.n_steps,
    )
    session = DigestSession(
        instance.graph,
        instance.database,
        origin=0,
        rng=np.random.default_rng(11),
    )
    query_id = session.add_query(
        continuous,
        config=EngineConfig(scheduler="pred", evaluator="repeated", pred_points=3),
    )

    def notify(record):
        day, half = divmod(record.time, 2)
        truth = instance.true_average()
        print(
            f"day {day:3d}{'pm' if half else 'am'}  NOTIFY: average is "
            f"{record.estimate:5.1f} F (exact {truth:5.1f} F, "
            f"{record.n_samples} samples)"
        )

    # "notify me whenever the average changes more than 2F" — the query's
    # own delta doubles as the notification threshold
    session.subscribe(query_id, notify)

    for t in range(instance.n_steps):
        instance.step(t)
        session.step(t)

    metrics = session.metrics
    print(
        f"\nDigest executed {metrics.snapshot_queries} snapshot queries where "
        f"naive continuous querying would have executed {instance.n_steps} "
        f"({100 * (1 - metrics.snapshot_queries / instance.n_steps):.0f}% fewer); "
        f"{metrics.samples_fresh} fresh samples, "
        f"{session.ledger.total} messages"
    )


if __name__ == "__main__":
    main()
