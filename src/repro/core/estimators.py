"""CLT-based estimation machinery shared by the snapshot evaluators.

Independent sampling estimates the population mean by the sample mean;
the central limit theorem gives (Eq. 5)::

    Pr(|Y_hat - Y_bar| <= eps) ~= 2 * (Phi(eps * sqrt(n) / sigma) - 1/2)

Setting the right-hand side to the confidence ``p`` and solving yields the
required sample size (Eq. 6)::

    n = (sigma * z_p / eps)^2,   z_p = Phi^-1((p + 1) / 2)

(The paper prints ``Phi^-1(p/2)``, a typo: ``(p+1)/2`` is the two-sided
quantile that actually solves Eq. 5.)

The same machinery expresses a *variance target*: an estimator with
variance ``v`` satisfies the ``(eps, p)`` requirement when
``v <= (eps / z_p)^2``, which is how the repeated-sampling evaluator sizes
its sample-set (its estimator variance is not ``sigma^2/n``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from repro.errors import QueryError


def confidence_quantile(confidence: float) -> float:
    """Two-sided standard-normal quantile ``z_p = Phi^-1((p+1)/2)``.

    >>> round(confidence_quantile(0.95), 2)
    1.96
    """
    if not 0.0 < confidence < 1.0:
        raise QueryError(f"confidence must be in (0, 1), got {confidence}")
    return _two_sided_quantile(confidence)


@lru_cache(maxsize=128)
def _two_sided_quantile(confidence: float) -> float:
    # a query keeps its confidence for life, so the few distinct values
    # repeat on every occasion; one norm.ppf costs tens of microseconds
    return float(norm.ppf((confidence + 1.0) / 2.0))


def variance_target(epsilon: float, confidence: float) -> float:
    """Largest estimator variance that meets the ``(epsilon, p)`` requirement."""
    if epsilon <= 0:
        raise QueryError(f"epsilon must be > 0 for a variance target, got {epsilon}")
    z = confidence_quantile(confidence)
    return (epsilon / z) ** 2


def required_sample_size(
    sigma: float,
    epsilon: float,
    confidence: float,
    minimum: int = 2,
    maximum: int = 10_000_000,
) -> int:
    """Eq. 6: ``n = (sigma * z_p / epsilon)^2``, rounded up and clamped.

    ``minimum`` keeps the variance estimate well-defined (n >= 2);
    ``maximum`` guards against pathological inputs (sigma huge, eps tiny).
    """
    if sigma < 0:
        raise QueryError(f"sigma must be >= 0, got {sigma}")
    if epsilon <= 0:
        raise QueryError(f"epsilon must be > 0, got {epsilon}")
    if sigma == 0.0:
        return minimum
    z = confidence_quantile(confidence)
    n = int(math.ceil((sigma * z / epsilon) ** 2))
    if n > maximum:
        raise QueryError(
            f"required sample size {n} exceeds the configured maximum {maximum}; "
            f"precision (epsilon={epsilon}, p={confidence}) is infeasible "
            f"for population sigma~{sigma}"
        )
    return max(minimum, n)


def column_mean(values: np.ndarray) -> float:
    """``float(values.mean())`` of a non-empty float64 array, bit for bit.

    The same pairwise ``np.add.reduce`` and division by the count that
    ``np.mean`` makes, without its Python wrapper, which costs more than
    the sum itself at the sample sizes a fit sees.
    """
    return float(np.add.reduce(values, axis=None) / values.size)


def sample_mean_and_variance(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and *population-style* variance ``(1/n) sum (y - mean)^2``.

    The paper's estimator variance expressions use the ``1/n`` convention
    (its ``sigma_hat^2``); for the sample sizes involved the distinction
    from ``1/(n-1)`` is immaterial, but we follow the paper for exact
    agreement with Table 1 in tests.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise QueryError("cannot estimate from an empty sample")
    mean = column_mean(array)
    return mean, column_mean((array - mean) ** 2)


def ratio_estimate(
    values: np.ndarray, indicators: np.ndarray
) -> tuple[float, float]:
    """Ratio estimator ``R = E[y] / E[i]`` with its delta-method variance.

    Used for ``AVG(expr) WHERE predicate``: ``y = expr * indicator`` and
    ``i`` the qualification indicator, so ``R`` is the subpopulation mean.
    The linearized variance of the estimator is::

        var(R_hat) ~= (1 / (n * i_bar^2)) * mean((y - R_hat * i)^2)

    which reduces to ``sigma^2 / n`` when every tuple qualifies. Raises
    when no sampled tuple qualifies (the ratio is then undefined).
    """
    values = np.asarray(values, dtype=float)
    indicators = np.asarray(indicators, dtype=float)
    if values.size == 0 or values.shape != indicators.shape:
        raise QueryError("ratio estimation needs matching non-empty samples")
    indicator_mean = column_mean(indicators)
    if indicator_mean <= 0.0:
        raise QueryError(
            "no sampled tuple satisfies the predicate; cannot estimate AVG "
            "(selectivity may be too low for sampling)"
        )
    ratio = column_mean(values) / indicator_mean
    residuals = values - ratio * indicators
    variance = column_mean(residuals**2) / (values.size * indicator_mean**2)
    return ratio, variance


def achieved_epsilon(variance: float, confidence: float) -> float:
    """Half-width of the two-sided confidence interval for a given variance."""
    if variance < 0:
        raise QueryError(f"variance must be >= 0, got {variance}")
    return confidence_quantile(confidence) * math.sqrt(variance)


def achieved_confidence(epsilon: float, variance: float) -> float:
    """Eq. 5 inverted for ``p``: the confidence actually achieved.

    When fewer samples come back than Eq. 6 asked for, the promised
    ``(epsilon, p)`` no longer holds; the honest statement at the same
    ``epsilon`` is ``p = 2 Phi(epsilon / sqrt(var)) - 1`` with ``var`` the
    achieved estimator variance. Returns 1.0 for a zero-variance
    estimator.
    """
    if epsilon <= 0:
        raise QueryError(f"epsilon must be > 0, got {epsilon}")
    if variance < 0:
        raise QueryError(f"variance must be >= 0, got {variance}")
    if variance == 0.0:
        return 1.0
    return float(2.0 * norm.cdf(epsilon / math.sqrt(variance)) - 1.0)
