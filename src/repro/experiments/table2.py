"""Table II: dataset parameters — generator calibration check.

Builds each synthetic workload, advances it, and measures the quantities
Table II publishes for the real traces: tuple/unit/node counts, the
cross-sectional sigma, and the lag-1 correlation rho. At ``scale=1.0`` the
counts match the paper exactly by construction; rho and sigma must land
near the published values at any scale (they are calibration targets, not
scale-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import lag1_correlation_matched
from repro.experiments.harness import build_instance
from repro.experiments.report import format_table
from repro.obs.console import emit

PAPER_ROWS = {
    "temperature": {
        "tuples": 8_640_000,
        "units": 8000,
        "nodes": 530,
        "rho": 0.89,
        "sigma": 8.0,
    },
    "memory": {
        "tuples": 95_445,
        "units": 1000,
        "nodes": 820,
        "rho": 0.68,
        "sigma": 10.0,
    },
}


@dataclass
class Table2Result:
    dataset: str
    scale: float
    measured_nodes: int
    measured_units: int
    measured_updates: int  # tuple-modification records over the run
    measured_rho: float
    measured_sigma: float
    paper_rho: float
    paper_sigma: float

    def to_table(self) -> str:
        headers = ["parameter", "paper", "measured"]
        paper = PAPER_ROWS[self.dataset]
        rows = [
            ["nodes", paper["nodes"], self.measured_nodes],
            ["units", paper["units"], self.measured_units],
            ["update records", paper["tuples"], self.measured_updates],
            ["rho (lag-1)", paper["rho"], round(self.measured_rho, 3)],
            ["sigma", paper["sigma"], round(self.measured_sigma, 3)],
        ]
        return format_table(
            headers,
            rows,
            title=f"Table II ({self.dataset}, scale={self.scale})",
        )


def run(dataset: str = "temperature", scale: float = 0.1, seed: int = 0,
        measure_steps: int | None = None) -> Table2Result:
    """Measure one dataset's calibration against its Table II row."""
    instance = build_instance(dataset, scale, seed)
    steps = measure_steps if measure_steps is not None else min(
        instance.n_steps, 80
    )
    rhos: list[float] = []
    sigmas: list[float] = []
    updates = 0
    previous = None
    for time in range(steps):
        instance.step(time)
        current = instance.current_values_by_id()
        updates += len(current)
        values = np.fromiter(current.values(), dtype=float)
        sigmas.append(float(values.std()))
        if previous is not None:
            # churn changes the tuple set between steps; pair by tuple id
            # so rho is measured over the surviving tuples only
            rhos.append(lag1_correlation_matched(previous, current))
        previous = current
    paper = PAPER_ROWS[dataset]
    n_units = (
        instance.n_units_live()
        if hasattr(instance, "n_units_live")
        else instance.database.n_tuples
    )
    return Table2Result(
        dataset=dataset,
        scale=scale,
        measured_nodes=len(instance.graph),
        measured_units=n_units,
        measured_updates=updates,
        measured_rho=float(np.mean(rhos)) if rhos else float("nan"),
        measured_sigma=float(np.mean(sigmas)),
        paper_rho=paper["rho"],
        paper_sigma=paper["sigma"],
    )


def main() -> int:
    for dataset in ("temperature", "memory"):
        emit(run(dataset=dataset).to_table())
        emit()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
