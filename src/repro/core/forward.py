"""Forward regression: retrospective revision of the previous result.

The paper's first future-work item (Section VIII): "complement our
reverse regression algorithm by forward regression, which allows
adjusting the previous result." Repeated sampling regresses the *current*
occasion's values on the previous ones; once occasion ``k`` has been
evaluated, the same matched pairs support the reverse direction —
re-estimating the occasion-``k-1`` mean using everything known at ``k``:

    Y'_{k-1} = alpha * Y_hat_{k-1} + (1 - alpha) * Y_rev
    Y_rev    = mean(y_{k-1,g}) + b_back * (Y_hat_k - mean(y_{k,g}))
    b_back   = cov(y_{k-1,g}, y_{k,g}) / var(y_{k,g})

with inverse-variance weights, where the backward regression estimate's
variance is ``sigma^2 (1 - r^2) / g + r^2 var(Y_hat_k)`` (mirror image of
Table 1's regression estimator).

Caveat (documented, validated empirically): the two combined estimates
are not strictly independent — the matched samples contribute to both
``Y_hat_{k-1}`` and ``Y_rev`` — so the combination weights are
approximate and the reported revised variance is an estimate, not a
bound. The Monte-Carlo bench (``bench_forward.py``) shows the revision
reduces retrospective MSE whenever the inter-occasion correlation is
substantial, which is exactly the regime repeated sampling targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.estimators import column_mean
from repro.errors import QueryError

_RHO_CLIP = 0.999


@dataclass(frozen=True)
class RevisedEstimate:
    """Outcome of one forward-regression revision.

    ``original``/``original_variance`` describe the estimate as published
    at its own occasion; ``revised``/``revised_variance`` the improved
    retrospective estimate.
    """

    original: float
    original_variance: float
    revised: float
    revised_variance: float

    @property
    def variance_reduction(self) -> float:
        """Fraction of the original variance removed (0 = no gain)."""
        if self.original_variance <= 0:
            return 0.0
        return max(0.0, 1.0 - self.revised_variance / self.original_variance)


def revise_previous(
    previous_estimate: float,
    previous_variance: float,
    matched_previous: np.ndarray,
    matched_current: np.ndarray,
    current_estimate: float,
    current_variance: float,
    sigma2: float,
    min_r_squared: float = 0.5,
) -> RevisedEstimate:
    """Revise the previous occasion's estimate with the current one.

    ``matched_previous``/``matched_current`` are the retained samples'
    values at the two occasions (the regression bridge). Falls back to the
    unrevised estimate when the matched portion is too small or degenerate
    to support a regression, or when the measured ``r^2`` is below
    ``min_r_squared`` — at weak correlation the (ignored) dependence
    between the combined estimates outweighs the regression information
    and revision would slightly *hurt* (verified by the Monte-Carlo bench:
    at rho=0.5 unrestricted revision costs ~2% RMSE, while at rho >= 0.85
    gated revision removes 10-20%).
    """
    matched_previous = np.asarray(matched_previous, dtype=float)
    matched_current = np.asarray(matched_current, dtype=float)
    if matched_previous.shape != matched_current.shape:
        raise QueryError("matched sample arrays must have equal shapes")
    if previous_variance < 0 or current_variance < 0 or sigma2 < 0:
        raise QueryError("variances must be non-negative")
    g = matched_previous.size
    unrevised = RevisedEstimate(
        original=previous_estimate,
        original_variance=previous_variance,
        revised=previous_estimate,
        revised_variance=previous_variance,
    )
    if g < 3:
        return unrevised
    current_mean = column_mean(matched_current)
    current_centered = matched_current - current_mean
    current_var = column_mean(current_centered**2)
    if current_var <= 0:
        return unrevised
    previous_mean = column_mean(matched_previous)
    previous_centered = matched_previous - previous_mean
    covariance = column_mean(previous_centered * current_centered)
    previous_var = column_mean(previous_centered**2)
    b_back = covariance / current_var
    if previous_var > 0:
        r = covariance / math.sqrt(previous_var * current_var)
        r = max(-_RHO_CLIP, min(_RHO_CLIP, r))
    else:
        r = 0.0
    if r * r < min_r_squared:
        return unrevised
    regression = previous_mean + b_back * (current_estimate - current_mean)
    var_regression = (
        sigma2 * (1.0 - r * r) / g + r * r * current_variance
    )
    if var_regression <= 0:
        return unrevised
    weight_original = (
        1.0 / previous_variance if previous_variance > 0 else float("inf")
    )
    weight_regression = 1.0 / var_regression
    if weight_original == float("inf"):
        return unrevised  # original is already exact
    total = weight_original + weight_regression
    revised = (
        weight_original * previous_estimate + weight_regression * regression
    ) / total
    return RevisedEstimate(
        original=previous_estimate,
        original_variance=previous_variance,
        revised=revised,
        revised_variance=1.0 / total,
    )
