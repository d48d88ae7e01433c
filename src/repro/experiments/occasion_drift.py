"""Sampling-time-scale robustness (the paper's future-work item 3).

Digest's analysis assumes each sampling occasion is instantaneous
relative to the data ("the network can be assumed almost static during
each sampling occasion", Section II); the paper flags the regime where
data changes on the sampling time-scale as an open problem (Section
VIII). This experiment makes the failure measurable and tests a simple
mitigation:

* an occasion is *stretched* over ``L`` world steps: ``n/L`` samples are
  drawn at each step while the data keeps changing;
* the naive estimator averages all samples regardless of when they were
  drawn — it estimates the aggregate's *time-average* over the window,
  which lags the end-of-window truth;
* the *detrended* estimator fits a line to ``(collection step, value)``
  and reports the fitted value at the window end — first-order drift
  correction using information the sampler already has (each sample's
  timestamp).

Expected shape: naive error grows with ``L`` once the window's aggregate
drift passes the confidence budget; detrending suppresses the linear
component of that growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.report import format_table
from repro.obs.console import emit
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool

if TYPE_CHECKING:
    from repro.db.relation import P2PDatabase
    from repro.network.graph import OverlayGraph


@dataclass
class DriftRow:
    window: int
    naive_mae: float
    detrended_mae: float
    truth_drift: float  # mean |X(end) - X(start)| over the windows


@dataclass
class DriftResult:
    dataset: str
    n_samples: int
    rows: list[DriftRow]

    def to_table(self) -> str:
        return format_table(
            [
                "occasion length L",
                "naive MAE",
                "detrended MAE",
                "mean truth drift",
            ],
            [
                [row.window, row.naive_mae, row.detrended_mae, row.truth_drift]
                for row in self.rows
            ],
            title=(
                f"Occasion-drift robustness ({self.dataset}, "
                f"{self.n_samples} samples per occasion)"
            ),
            precision=4,
        )


def detrended_estimate(times: np.ndarray, values: np.ndarray, at: float) -> float:
    """OLS line through ``(time, value)`` evaluated at ``at``.

    Falls back to the plain mean when the window is degenerate (single
    step) or the slope is undefined.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        raise ValueError("no samples")
    spread = times - times.mean()
    denominator = float((spread**2).sum())
    if denominator == 0.0:
        return float(values.mean())
    slope = float((spread * (values - values.mean())).sum()) / denominator
    return float(values.mean() + slope * (at - times.mean()))


def _drifting_world(
    n_nodes: int, per_node: int, rng: np.random.Generator
) -> tuple[OverlayGraph, P2PDatabase, list[int]]:
    """A world whose aggregate drifts *linearly* — the worst, and
    clearest, case for occasion-spanning sampling."""
    from repro.db.relation import P2PDatabase, Schema
    from repro.network.graph import OverlayGraph
    from repro.network.topology import power_law_topology

    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    tuple_ids = []
    for node in graph.nodes():
        for _ in range(per_node):
            tuple_ids.append(
                database.insert(node, {"v": float(rng.normal(50, 6))})
            )
    return graph, database, tuple_ids


def run(
    drift_rate: float = 0.5,
    windows: tuple[int, ...] = (1, 2, 4, 8, 16),
    n_samples: int = 120,
    occasions: int = 12,
    n_nodes: int = 120,
    seed: int = 0,
) -> DriftResult:
    """Stretched-occasion estimation error vs occasion length ``L``.

    Every tuple drifts by ``drift_rate`` per step (plus noise), so the
    end-of-window truth leads the window's time-average by
    ``~ drift_rate * (L-1) / 2`` — the lag the naive estimator inherits
    and the detrended estimator removes.
    """
    from repro.db.expression import Expression

    rows = []
    expression = Expression("v")
    for window in windows:
        rng = np.random.default_rng(seed)
        graph, database, tuple_ids = _drifting_world(n_nodes, 4, rng)
        operator = SamplePool(
            graph, np.random.default_rng(seed + window)
        ).operator
        naive_errors = []
        detrended_errors = []
        drifts = []
        per_step = max(1, n_samples // window)
        for _ in range(occasions):
            sample_times: list[int] = []
            sample_values: list[float] = []
            start_truth = float(database.exact_values(expression).mean())
            for offset in range(window):
                for tuple_id in tuple_ids:
                    current = database.read(tuple_id)["v"]
                    database.update(
                        tuple_id,
                        {"v": current + drift_rate + float(rng.normal(0, 0.2))},
                    )
                samples = operator.sample_tuples(database, per_step, origin=0)
                sample_times.extend([offset] * len(samples))
                columns = database.gather(["v"], samples)
                sample_values.extend(expression.evaluate_columns(columns).tolist())
            truth_end = float(database.exact_values(expression).mean())
            times_array = np.array(sample_times, dtype=float)
            values_array = np.array(sample_values, dtype=float)
            naive = float(values_array.mean())
            detrended = detrended_estimate(
                times_array, values_array, at=float(times_array.max())
            )
            naive_errors.append(abs(naive - truth_end))
            detrended_errors.append(abs(detrended - truth_end))
            drifts.append(abs(truth_end - start_truth))
        rows.append(
            DriftRow(
                window=window,
                naive_mae=float(np.mean(naive_errors)),
                detrended_mae=float(np.mean(detrended_errors)),
                truth_drift=float(np.mean(drifts)),
            )
        )
    return DriftResult(dataset="linear-drift", n_samples=n_samples, rows=rows)


def main() -> int:
    emit(run().to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
