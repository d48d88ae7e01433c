"""Figure 5-a: overall efficiency of Digest (combined effect).

Methodology (Section VI-B3): for the query ``delta/sigma = 1``,
``epsilon/sigma = 0.25``, ``p = 0.95``, measure the *total number of
samples* for the four algorithm combinations (ALL + INDEP), (ALL + RPT),
(PRED3 + INDEP), (PRED3 + RPT = Digest).

Expected shape: Digest cheapest; ALL+INDEP most expensive; the two
optimizations compose roughly multiplicatively (paper: up to ~3.2x = 320%
on TEMPERATURE).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Precision
from repro.experiments.harness import (
    build_instance,
    make_engine,
    pick_origin,
    run_continuous_query,
)
from repro.experiments.report import format_table
from repro.obs.console import emit

COMBINATIONS = (
    ("ALL+INDEP", "all", "independent"),
    ("ALL+RPT", "all", "repeated"),
    ("PRED3+INDEP", "pred", "independent"),
    ("PRED3+RPT", "pred", "repeated"),
)


@dataclass
class Fig5aResult:
    dataset: str
    sigma: float
    totals: dict[str, int]  # combination -> total samples
    fresh: dict[str, int]  # combination -> fresh samples
    queries: dict[str, int]  # combination -> snapshot queries

    @property
    def digest_vs_naive(self) -> float:
        """``(ALL+INDEP) / (PRED3+RPT)`` total-sample ratio (paper: ~3.2)."""
        digest = self.totals["PRED3+RPT"]
        return self.totals["ALL+INDEP"] / digest if digest else float("inf")

    @property
    def rpt_improvement(self) -> float:
        """``I = n_indep / n_rpt`` per snapshot query under ALL scheduling."""
        indep = self.totals["ALL+INDEP"] / max(1, self.queries["ALL+INDEP"])
        rpt = self.totals["ALL+RPT"] / max(1, self.queries["ALL+RPT"])
        return indep / rpt if rpt else float("inf")

    def to_table(self) -> str:
        headers = [
            "combination",
            "snapshot queries",
            "total samples",
            "fresh samples",
        ]
        rows = [
            [name, self.queries[name], self.totals[name], self.fresh[name]]
            for name, _, _ in COMBINATIONS
        ]
        return format_table(
            headers,
            rows,
            title=f"Figure 5-a ({self.dataset}): total samples per combination",
        )


def run(
    dataset: str = "temperature",
    scale: float = 0.1,
    seed: int = 0,
    delta_ratio: float = 1.0,
    epsilon_ratio: float = 0.25,
    confidence: float = 0.95,
) -> Fig5aResult:
    probe = build_instance(dataset, scale, seed)
    sigma = probe.config.expected_sigma  # type: ignore[attr-defined]
    precision = Precision(
        delta=delta_ratio * sigma,
        epsilon=epsilon_ratio * sigma,
        confidence=confidence,
    )
    totals: dict[str, int] = {}
    fresh: dict[str, int] = {}
    queries: dict[str, int] = {}
    for name, scheduler, evaluator in COMBINATIONS:
        instance = build_instance(dataset, scale, seed)
        origin = pick_origin(instance, seed)
        engine = make_engine(
            instance, precision, scheduler, evaluator, origin, seed
        )
        run_result = run_continuous_query(instance, engine)
        totals[name] = run_result.samples_total
        fresh[name] = run_result.samples_fresh
        queries[name] = run_result.snapshot_queries
    return Fig5aResult(
        dataset=dataset, sigma=sigma, totals=totals, fresh=fresh, queries=queries
    )


def main() -> int:
    for dataset in ("temperature", "memory"):
        result = run(dataset=dataset)
        emit(result.to_table())
        emit(
            f"{dataset}: Digest vs naive total-sample ratio = "
            f"{result.digest_vs_naive:.2f}x "
            f"(paper: up to 3.2x on TEMPERATURE)\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
