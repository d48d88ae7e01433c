"""Figure 4-a: effect of the extrapolation algorithm.

Methodology (Section VI-B1): TEMPERATURE dataset, fixed confidence
(epsilon = 2, p = 0.95), vary the resolution ``delta`` (normalized by the
dataset sigma), and count the snapshot queries each continual-querying
algorithm executes: the naive ``ALL`` versus ``PRED-k`` for several ``k``.

Expected shape: PRED-k ~= ALL for small ``delta/sigma`` (nothing can be
skipped), large reductions (paper: up to ~75%) as ``delta/sigma``
approaches 1, and near-coincident curves across k.
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

DEFAULT_RATIOS = (0.05, 0.125, 0.25, 0.5, 1.0, 2.0)
DEFAULT_PRED_KS = (2, 3, 4)


@dataclass
class Fig4aResult:
    """One row per delta/sigma ratio; one column per algorithm."""

    dataset: str
    sigma: float
    ratios: list[float]
    algorithms: list[str]
    snapshot_queries: dict[str, list[int]]  # algorithm -> per-ratio counts
    total_steps: int

    def reduction_vs_all(self, algorithm: str, ratio_index: int) -> float:
        """Fractional snapshot-query reduction vs ALL at one ratio."""
        all_count = self.snapshot_queries["ALL"][ratio_index]
        if all_count == 0:
            return 0.0
        return 1.0 - self.snapshot_queries[algorithm][ratio_index] / all_count

    def to_table(self) -> str:
        headers = ["delta/sigma"] + self.algorithms
        rows = []
        for index, ratio in enumerate(self.ratios):
            rows.append(
                [ratio]
                + [self.snapshot_queries[a][index] for a in self.algorithms]
            )
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 4-a ({self.dataset}, {self.total_steps} steps): "
                "snapshot queries vs delta/sigma"
            ),
        )


def run(
    dataset: str = "temperature",
    scale: float = 0.1,
    seed: int = 0,
    epsilon: float = 2.0,
    confidence: float = 0.95,
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
    pred_ks: tuple[int, ...] = DEFAULT_PRED_KS,
) -> Fig4aResult:
    """Run the Figure 4-a sweep and return the per-algorithm counts."""
    probe = build_instance(dataset, scale, seed)
    sigma = probe.config.expected_sigma  # type: ignore[attr-defined]
    algorithms = ["ALL"] + [f"PRED{k}" for k in pred_ks]
    counts: dict[str, list[int]] = {name: [] for name in algorithms}
    steps = probe.n_steps
    for ratio in ratios:
        precision = Precision(
            delta=ratio * sigma, epsilon=epsilon, confidence=confidence
        )
        for name in algorithms:
            instance = build_instance(dataset, scale, seed)
            origin = pick_origin(instance, seed)
            if name == "ALL":
                engine = make_engine(
                    instance, precision, "all", "repeated", origin, seed
                )
            else:
                k = int(name[4:])
                engine = make_engine(
                    instance,
                    precision,
                    "pred",
                    "repeated",
                    origin,
                    seed,
                    pred_points=k,
                )
            run_result = run_continuous_query(instance, engine)
            counts[name].append(run_result.snapshot_queries)
    return Fig4aResult(
        dataset=dataset,
        sigma=sigma,
        ratios=list(ratios),
        algorithms=algorithms,
        snapshot_queries=counts,
        total_steps=steps,
    )


def main() -> int:
    from repro.experiments.plotting import ascii_chart

    result = run()
    emit(result.to_table())
    emit()
    emit(
        ascii_chart(
            {
                algorithm: (result.ratios, result.snapshot_queries[algorithm])
                for algorithm in result.algorithms
            },
            title="Figure 4-a: snapshot queries vs delta/sigma",
            x_label="delta/sigma",
            y_label="snapshot queries",
        )
    )
    last = len(result.ratios) - 1
    for algorithm in result.algorithms[1:]:
        emit(
            f"{algorithm} reduction vs ALL at delta/sigma="
            f"{result.ratios[last]}: "
            f"{100 * result.reduction_vs_all(algorithm, last):.0f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
