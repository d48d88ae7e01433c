"""Table 1: Monte-Carlo verification of the estimator variances.

Simulates the two-occasion repeated-sampling setting on a synthetic
population with a controlled tuple-level correlation ``rho``:

* occasion 1 values ``y_1`` and occasion 2 values ``y_2`` are bivariate
  normal with correlation ``rho`` and common variance ``sigma^2``;
* each trial draws ``n`` first-occasion samples, retains ``g``, replaces
  ``f = n - g``, and computes the regular (fresh), regression (retained)
  and combined estimates.

Reported for each estimator: the Monte-Carlo variance across trials vs the
closed-form from Table 1 / Eq. 8, plus the optimal-partition minimum
variance (Eq. 10) against the empirical variance at the optimal split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.repeated import (
    combined_variance,
    minimum_variance,
    optimal_partition,
)
from repro.experiments.report import format_table
from repro.obs.console import emit


@dataclass
class Table1Result:
    rho: float
    sigma2: float
    n: int
    g: int
    empirical: dict[str, float]  # estimator name -> Monte-Carlo variance
    theoretical: dict[str, float]  # estimator name -> closed form

    def to_table(self) -> str:
        headers = ["estimator", "Monte-Carlo var", "closed form", "ratio"]
        rows = []
        for name in self.empirical:
            emp = self.empirical[name]
            theory = self.theoretical[name]
            rows.append([name, emp, theory, emp / theory if theory else 0.0])
        return format_table(
            headers,
            rows,
            title=(
                f"Table 1 (rho={self.rho}, sigma^2={self.sigma2}, "
                f"n={self.n}, g={self.g}): estimator variances"
            ),
            precision=4,
        )


def simulate(
    rho: float = 0.85,
    sigma: float = 1.0,
    population: int = 200_000,
    n: int = 100,
    g: int | None = None,
    trials: int = 4000,
    seed: int = 0,
) -> Table1Result:
    """Monte-Carlo the two-occasion estimators on a synthetic population."""
    rng = np.random.default_rng(seed)
    # bivariate normal population with exactly controlled moments
    y1 = rng.normal(0.0, sigma, population)
    noise = rng.normal(0.0, sigma, population)
    y2 = rho * y1 + np.sqrt(max(0.0, 1.0 - rho * rho)) * noise
    mean2 = float(y2.mean())
    if g is None:
        g, _ = optimal_partition(n, rho)
    f = n - g

    fresh_estimates = np.empty(trials)
    regression_estimates = np.empty(trials)
    combined_estimates = np.empty(trials)
    for trial in range(trials):
        first = rng.integers(0, population, size=n)
        matched = first[:g]
        y1_all = y1[first]
        y1_matched = y1[matched]
        y2_matched = y2[matched]
        fresh = y2[rng.integers(0, population, size=f)] if f else np.empty(0)

        estimate_y1 = float(y1_all.mean())
        fresh_mean = float(fresh.mean()) if f else float("nan")
        if g >= 2 and float(np.var(y1_matched)) > 0:
            b = float(
                np.mean(
                    (y1_matched - y1_matched.mean())
                    * (y2_matched - y2_matched.mean())
                )
                / np.var(y1_matched)
            )
        else:
            b = 0.0
        regression = float(y2_matched.mean()) + b * (
            estimate_y1 - float(y1_matched.mean())
        )
        # combine with the *theoretical* optimal weights (the closed forms
        # under test); data-driven weights add higher-order noise
        var_fresh = sigma**2 / f if f else float("inf")
        var_regression = sigma**2 * (1 - rho**2) / g + rho**2 * sigma**2 / n
        w_fresh = 1.0 / var_fresh
        w_regression = 1.0 / var_regression
        combined = (w_fresh * fresh_mean + w_regression * regression) / (
            w_fresh + w_regression
        )
        fresh_estimates[trial] = fresh_mean
        regression_estimates[trial] = regression
        combined_estimates[trial] = combined

    empirical = {
        "fresh (regular)": float(np.var(fresh_estimates - mean2)),
        "retained (regression)": float(np.var(regression_estimates - mean2)),
        "combined": float(np.var(combined_estimates - mean2)),
    }
    theoretical = {
        "fresh (regular)": sigma**2 / f if f else float("inf"),
        "retained (regression)": sigma**2 * (1 - rho**2) / g
        + rho**2 * sigma**2 / n,
        "combined": combined_variance(
            sigma**2, n, g, rho, sigma**2 / n
        ),
    }
    result = Table1Result(
        rho=rho,
        sigma2=sigma**2,
        n=n,
        g=g,
        empirical=empirical,
        theoretical=theoretical,
    )
    return result


def main() -> int:
    for rho in (0.5, 0.85, 0.95):
        result = simulate(rho=rho)
        emit(result.to_table())
        opt = minimum_variance(result.sigma2, result.n, rho)
        emit(
            f"Eq. 10 minimum variance at optimal split: {opt:.5f} "
            f"(empirical combined: {result.empirical['combined']:.5f})\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
