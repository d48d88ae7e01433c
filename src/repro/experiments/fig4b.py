"""Figure 4-b: effect of the repeated sampling algorithm.

Methodology (Section VI-B2): both datasets, fixed resolution
(``delta/sigma = 1``) and confidence level (p = 0.95), vary the required
confidence interval ``epsilon``, and observe the average number of samples
(retained + fresh) per snapshot query for INDEP vs RPT.

Expected shape: both curves fall as ``1/epsilon^2``; RPT sits below INDEP
everywhere; the average improvement factor ``I = n_indep / n_rpt`` is
larger for the higher-correlation dataset (paper: 1.63 TEMPERATURE,
1.21 MEMORY).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.query import Precision
from repro.experiments.harness import (
    build_instance,
    make_engine,
    pick_origin,
    run_continuous_query,
)
from repro.experiments.report import format_table
from repro.obs.console import emit

# ratios chosen so the CLT sample size stays well above the pilot floor
# (n = (z_p / ratio)^2 ~ 43..384); beyond ~0.35 both algorithms bottom out
# at the pilot size and the comparison is vacuous
DEFAULT_EPSILON_RATIOS = (0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass
class Fig4bResult:
    dataset: str
    sigma: float
    epsilon_ratios: list[float]
    samples_indep: list[float]  # avg samples per snapshot query
    samples_rpt: list[float]
    fresh_rpt: list[float]  # RPT's fresh-only average (costly samples)

    @property
    def improvement_factor(self) -> float:
        """Mean ``I = n_indep / n_rpt`` over the epsilon sweep."""
        ratios = [
            indep / rpt
            for indep, rpt in zip(self.samples_indep, self.samples_rpt)
            if rpt > 0
        ]
        return float(np.mean(ratios)) if ratios else 1.0

    def to_table(self) -> str:
        headers = [
            "epsilon/sigma",
            "INDEP samples/query",
            "RPT samples/query",
            "RPT fresh/query",
            "I",
        ]
        rows = []
        for index, ratio in enumerate(self.epsilon_ratios):
            indep = self.samples_indep[index]
            rpt = self.samples_rpt[index]
            rows.append(
                [
                    ratio,
                    indep,
                    rpt,
                    self.fresh_rpt[index],
                    indep / rpt if rpt else float("nan"),
                ]
            )
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 4-b ({self.dataset}): samples per snapshot query "
                "vs epsilon"
            ),
        )


def run(
    dataset: str = "temperature",
    scale: float = 0.1,
    seed: int = 0,
    confidence: float = 0.95,
    epsilon_ratios: tuple[float, ...] = DEFAULT_EPSILON_RATIOS,
) -> Fig4bResult:
    """Run the Figure 4-b sweep for one dataset."""
    probe = build_instance(dataset, scale, seed)
    sigma = probe.config.expected_sigma  # type: ignore[attr-defined]
    samples_indep: list[float] = []
    samples_rpt: list[float] = []
    fresh_rpt: list[float] = []
    for ratio in epsilon_ratios:
        precision = Precision(
            delta=sigma, epsilon=ratio * sigma, confidence=confidence
        )
        per_algorithm: dict[str, tuple[float, float]] = {}
        for evaluator in ("independent", "repeated"):
            instance = build_instance(dataset, scale, seed)
            origin = pick_origin(instance, seed)
            engine = make_engine(
                instance, precision, "all", evaluator, origin, seed
            )
            run_result = run_continuous_query(instance, engine)
            queries = max(1, run_result.snapshot_queries)
            per_algorithm[evaluator] = (
                run_result.samples_total / queries,
                run_result.samples_fresh / queries,
            )
        samples_indep.append(per_algorithm["independent"][0])
        samples_rpt.append(per_algorithm["repeated"][0])
        fresh_rpt.append(per_algorithm["repeated"][1])
    return Fig4bResult(
        dataset=dataset,
        sigma=sigma,
        epsilon_ratios=list(epsilon_ratios),
        samples_indep=samples_indep,
        samples_rpt=samples_rpt,
        fresh_rpt=fresh_rpt,
    )


def main() -> int:
    from repro.experiments.plotting import ascii_chart

    for dataset in ("temperature", "memory"):
        result = run(dataset=dataset)
        emit(result.to_table())
        emit()
        emit(
            ascii_chart(
                {
                    "INDEP": (result.epsilon_ratios, result.samples_indep),
                    "RPT": (result.epsilon_ratios, result.samples_rpt),
                },
                title=f"Figure 4-b ({dataset}): samples/query vs epsilon/sigma",
                x_label="epsilon/sigma",
                y_label="samples per query",
            )
        )
        emit(
            f"{dataset}: average improvement factor I = "
            f"{result.improvement_factor:.2f}\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
