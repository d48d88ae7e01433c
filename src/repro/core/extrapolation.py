"""Taylor-polynomial extrapolation of the running aggregate (Section IV-A).

The running aggregate ``X[t]`` is modeled as an analytic function; near the
latest update time ``t_u`` it is approximated by a degree-``d`` Taylor
polynomial ``P_d[t]`` with Lagrange remainder

    |X[t] - P_d[t]| <= |R_d[t]|,
    R_d[t] = (t - t_u)^{d+1} / (d+1)! * X^{(d+1)}(c),  c in [t_u, t].

``P_d`` is the linear least-squares fit (``np.polyfit``) over the ``2(d+1)``
most recent snapshot results. The paper fits it by Levenberg-Marquardt; a
polynomial's residual is linear in its coefficients, so LM converges to
exactly this solution, and the direct solve is the same estimator.

The paper leaves the ``(d+1)``-th derivative bound unspecified (its ``c_k``
assumes oracle knowledge of ``X``). We estimate the remainder *rate*
``M/(d+1)!`` as the leading coefficient of a least-squares degree-``d+1``
polynomial over the same window: widening the fit past the ``d+2`` points
that determine it averages out snapshot-estimation noise, which an
order-``d+1`` divided difference would amplify by ``~2^{d+1}``, making
high-degree predictors absurdly conservative. A configurable safety factor
scales the estimate.

The next update time is then the earliest ``t`` with (Eq. 4)

    |P_d[t] - P_d[t_u]| + |R_d[t]| > delta,

found by evaluating both terms at every offset up to the horizon at once.

``PRED-k`` in the experiments = :class:`TaylorExtrapolator` with ``k``
history points (degree ``k-1``); both fits read the last ``2k`` results, and
until that many exist the scheduler falls back to continuous querying (the
bootstrapping period).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class ExtrapolationResult:
    """Outcome of one extrapolation: the predicted next update time and
    the remainder rate used to derive it (for introspection)."""

    next_time: int
    remainder_rate: float  # estimated M / (d+1)!, times the safety factor
    capped: bool  # True when the horizon cap, not Eq. 4, chose next_time

    @property
    def trigger_reason(self) -> str:
        """Why the snapshot at ``next_time`` will run: the Eq. 4 drift
        bound (``"predicted_drift"``) or the liveness horizon cap
        (``"horizon_capped"``)."""
        return "horizon_capped" if self.capped else "predicted_drift"


class TaylorExtrapolator:
    """Predicts when the aggregate will have drifted by ``delta``.

    Parameters
    ----------
    n_points:
        Number of history points fit by the polynomial (the ``k`` of
        PRED-k); polynomial degree is ``n_points - 1``.
    max_horizon:
        Upper bound on how far ahead an update may be scheduled. A flat
        history would otherwise postpone re-evaluation forever; real
        deployments always keep a liveness probe.
    safety_factor:
        Multiplier on the estimated remainder rate (>= 1 makes the
        prediction more conservative, never less correct).
    """

    def __init__(
        self,
        n_points: int = 3,
        max_horizon: int = 64,
        safety_factor: float = 1.0,
    ) -> None:
        if n_points < 2:
            raise QueryError(f"extrapolation needs >= 2 points, got {n_points}")
        if max_horizon < 1:
            raise QueryError(f"max_horizon must be >= 1, got {max_horizon}")
        if safety_factor < 0:
            raise QueryError(f"safety_factor must be >= 0, got {safety_factor}")
        self.n_points = n_points
        self.max_horizon = max_horizon
        self.safety_factor = safety_factor

    @property
    def required_history(self) -> int:
        """History points needed before extrapolation can run: the ``2k``
        window both fits share."""
        return 2 * self.n_points

    def predict_next_update(
        self,
        history: list[tuple[int, float]],
        delta: float,
    ) -> ExtrapolationResult:
        """Earliest ``t > t_u`` where Eq. 4 predicts drift beyond ``delta``.

        ``history`` holds ``(time, aggregate)`` pairs in increasing time
        order; at least :attr:`required_history` points are needed.
        """
        if delta < 0:
            raise QueryError(f"delta must be >= 0, got {delta}")
        if len(history) < self.required_history:
            raise QueryError(
                f"need {self.required_history} history points, got {len(history)}"
            )
        window = history[-self.required_history :]
        times = np.array([t for t, _ in window], dtype=float)
        values = np.array([x for _, x in window], dtype=float)
        if np.any(np.diff(times) <= 0):
            raise QueryError("history times must be strictly increasing")

        # least-squares fits over the whole window: snapshot results carry
        # estimation noise ~epsilon, and exact interpolation of n_points
        # noisy values amplifies it exponentially in the degree. With
        # near-exact snapshots this coincides with interpolation (the
        # paper's "robust estimation ... via least squares"). Times are
        # shifted so t_u is 0, which conditions the Vandermonde geometry.
        shifted = times - times[-1]
        coefficients = np.polyfit(shifted, values, self.n_points - 1)
        # the leading coefficient of the degree-(d+1) fit is M / (d+1)!
        remainder_rate = self.safety_factor * abs(
            float(np.polyfit(shifted, values, self.n_points)[0])
        )
        offsets = np.arange(1, self.max_horizon + 1, dtype=float)
        drift = np.abs(np.polyval(coefficients, offsets) - coefficients[-1])
        remainder = remainder_rate * offsets**self.n_points
        exceeds = drift + remainder > delta
        t_u = int(times[-1])
        if not exceeds.any():
            return ExtrapolationResult(
                next_time=t_u + self.max_horizon,
                remainder_rate=remainder_rate,
                capped=True,
            )
        return ExtrapolationResult(
            next_time=t_u + 1 + int(np.argmax(exceeds)),
            remainder_rate=remainder_rate,
            capped=False,
        )
