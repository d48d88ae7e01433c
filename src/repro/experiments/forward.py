"""Forward regression (Section VIII extension): retrospective accuracy.

Monte-Carlo study of :func:`repro.core.forward.revise_previous` on the
two-occasion setting of Table 1: after occasion 2 is evaluated, how much
does revising the occasion-1 estimate reduce its error?

Reported: RMSE of the occasion-1 estimate before and after revision, and
the average predicted variance reduction, across correlation levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.forward import revise_previous
from repro.experiments.report import format_table
from repro.obs.console import emit


@dataclass
class ForwardResult:
    rho: float
    n: int
    g: int
    rmse_original: float
    rmse_revised: float
    mean_variance_reduction: float

    @property
    def improvement(self) -> float:
        if self.rmse_revised == 0:
            return float("inf")
        return self.rmse_original / self.rmse_revised

    def to_table(self) -> str:
        return format_table(
            ["quantity", "value"],
            [
                ["RMSE of Y_hat_1 (original)", self.rmse_original],
                ["RMSE of Y_hat_1 (revised)", self.rmse_revised],
                ["improvement", self.improvement],
                ["mean predicted var reduction", self.mean_variance_reduction],
            ],
            title=(
                f"Forward regression (rho={self.rho}, n={self.n}, g={self.g})"
            ),
            precision=4,
        )


def simulate(
    rho: float = 0.85,
    sigma: float = 1.0,
    population: int = 200_000,
    n: int = 100,
    trials: int = 3000,
    seed: int = 0,
) -> ForwardResult:
    """Two-occasion Monte-Carlo of the retrospective revision."""
    from repro.core.repeated import optimal_partition

    rng = np.random.default_rng(seed)
    y1 = rng.normal(0.0, sigma, population)
    noise = rng.normal(0.0, sigma, population)
    y2 = rho * y1 + np.sqrt(max(0.0, 1.0 - rho * rho)) * noise
    mean1 = float(y1.mean())
    g, f = optimal_partition(n, rho)
    g = max(g, 3)
    f = n - g

    originals = np.empty(trials)
    revised = np.empty(trials)
    reductions = np.empty(trials)
    for trial in range(trials):
        first = rng.integers(0, population, size=n)
        estimate1 = float(y1[first].mean())
        variance1 = sigma**2 / n
        matched = first[:g]
        fresh = rng.integers(0, population, size=f)
        # occasion-2 combined estimate (theoretical optimal weights)
        matched_prev = y1[matched]
        matched_curr = y2[matched]
        fresh_curr = y2[fresh]
        var_fresh = sigma**2 / f
        var_matched = sigma**2 * (1 - rho**2) / g + rho**2 * sigma**2 / n
        b = rho  # population regression coefficient (unit variances)
        regression2 = float(matched_curr.mean()) + b * (
            estimate1 - float(matched_prev.mean())
        )
        w_f, w_g = 1.0 / var_fresh, 1.0 / var_matched
        estimate2 = (w_f * float(fresh_curr.mean()) + w_g * regression2) / (
            w_f + w_g
        )
        variance2 = 1.0 / (w_f + w_g)

        revision = revise_previous(
            estimate1,
            variance1,
            matched_prev,
            matched_curr,
            estimate2,
            variance2,
            sigma**2,
        )
        originals[trial] = estimate1 - mean1
        revised[trial] = revision.revised - mean1
        reductions[trial] = revision.variance_reduction

    return ForwardResult(
        rho=rho,
        n=n,
        g=g,
        rmse_original=float(np.sqrt(np.mean(originals**2))),
        rmse_revised=float(np.sqrt(np.mean(revised**2))),
        mean_variance_reduction=float(np.mean(reductions)),
    )


def main() -> int:
    for rho in (0.5, 0.85, 0.95):
        emit(simulate(rho=rho).to_table())
        emit()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
