"""Repeated sampling with regression estimation (Section IV-B2).

Across successive sampling occasions the values of the tuples are
autocorrelated, so the evaluator *retains* part of the previous occasion's
sample-set, re-evaluates it, and uses the regression of current values on
previous values to sharpen the estimate; the rest of the sample-set is
*replaced* with fresh draws that track insertions, deletions and
pathological updates. This is sampling on successive occasions with
partial replacement (Cochran, "Sampling Techniques", ch. 12), which the
paper specializes to P2P databases.

Estimators at occasion ``k`` with ``g`` retained (matched) and ``f = n-g``
fresh samples (Table 1, generalized to the k-th occasion):

* fresh (regular):      ``Y_f = mean(y_fresh)``,
  ``var = sigma^2 / f``;
* retained (regression): ``Y_g = mean(y_k,g) + b (Y_hat_{k-1} - mean(y_{k-1},g))``,
  ``var = sigma^2 (1 - rho^2) / g + rho^2 var(Y_hat_{k-1})``;
* combined: inverse-variance weighting (Eq. 7), whose variance is
  ``1 / (W_f + W_g)`` (Eq. 8 in its general form).

Every occasion is sized by the one stopping rule,
:func:`~repro.core.independent.sequential_sample`, against the same
variance target ``(eps / z_p)^2`` as independent sampling: the first
occasion with the sample mean as its fit, later occasions by topping up
the allocated fresh draw with the combined estimator as the fit (its
``sigma^2`` is the variance one fresh draw carries).

At the second occasion ``var(Y_hat_1) = sigma^2 / n`` and the combined
variance reduces exactly to the paper's Eq. 8; minimizing over the
partition yields the paper's minimum variance (Eq. 10)::

    var_min = sigma^2 / (2n) * (1 + sqrt(1 - rho^2))

**A note on Eq. 9.** Optimizing Eq. 8 over the partition puts
``n / (1 + sqrt(1-rho^2))`` samples in the *fresh* portion and
``n sqrt(1-rho^2) / (1 + sqrt(1-rho^2))`` in the *retained* portion (at
``rho -> 1`` a tiny matched set already carries full regression
information, so fresh samples are worth more). The paper's Eq. 9 attaches
those expressions to the opposite portions, which is inconsistent with its
own Eq. 8 and Eq. 10; we implement the optimum consistent with Eq. 8/10
(Cochran's classical result). The minimum variance — which is what every
experiment measures — is identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.estimators import (
    column_mean,
    sample_mean_and_variance,
    variance_target,
)
from repro.core.forward import RevisedEstimate, revise_previous
from repro.core.independent import (
    MAX_SAMPLE_SIZE,
    PILOT_SIZE,
    SIGMA_FLOOR,
    Fit,
    SnapshotEvaluator,
    mean_fit,
    sequential_sample,
)
from repro.core.query import Query
from repro.core.snapshot import SnapshotEstimate
from repro.db.aggregates import AggregateOp
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.sampling.operator import SampleSource

_RHO_CLIP = 0.999


def optimal_partition(n: int, rho: float) -> tuple[int, int]:
    """Optimal ``(g_retained, f_fresh)`` split of ``n`` samples (see Eq. 9 note).

    Retained fraction ``sqrt(1-rho^2) / (1 + sqrt(1-rho^2))``; at ``rho=0``
    the split is half-and-half (and immaterial), at ``|rho|=1`` everything
    is replaced because a single matched sample already carries the perfect
    regression information.
    """
    if n < 0:
        raise QueryError(f"n must be >= 0, got {n}")
    if not -1.0 <= rho <= 1.0:
        raise QueryError(f"rho must be in [-1, 1], got {rho}")
    s = math.sqrt(max(0.0, 1.0 - rho * rho))
    g = int(round(n * s / (1.0 + s)))
    g = min(max(g, 0), n)
    return g, n - g


def combined_variance(
    sigma2: float, n: int, g: int, rho: float, var_prev: float
) -> float:
    """Variance of the combined estimator for a given partition.

    General-occasion form; with ``var_prev = sigma2 / n`` it equals the
    paper's Eq. 8 (expressed in terms of the fresh count ``f = n - g``):
    ``sigma2 * (n - f rho^2) / (n^2 - f^2 rho^2)``.
    """
    if n < 1:
        raise QueryError(f"n must be >= 1, got {n}")
    if not 0 <= g <= n:
        raise QueryError(f"g must be in [0, {n}], got {g}")
    if sigma2 < 0 or var_prev < 0:
        raise QueryError("variances must be non-negative")
    f = n - g
    weight_fresh = f / sigma2 if sigma2 > 0 else float("inf")
    if g == 0:
        weight_matched = 0.0
    else:
        denominator = sigma2 * (1.0 - rho * rho) / g + rho * rho * var_prev
        weight_matched = float("inf") if denominator <= 0 else 1.0 / denominator
    total = weight_fresh + weight_matched
    if total == float("inf"):
        return 0.0
    if total <= 0:
        raise QueryError("degenerate allocation: zero total information")
    return 1.0 / total


def minimum_variance(sigma2: float, n: int, rho: float) -> float:
    """Eq. 10: best achievable second-occasion variance with ``n`` samples."""
    if n < 1:
        raise QueryError(f"n must be >= 1, got {n}")
    return sigma2 / (2.0 * n) * (1.0 + math.sqrt(max(0.0, 1.0 - rho * rho)))


def _best_partition(
    sigma2: float, n: int, rho: float, var_prev: float, retained_available: int
) -> tuple[int, float]:
    """Best feasible ``g`` (and its variance) for a fixed sample budget ``n``.

    Closed form: the matched weight ``g / (A + B g)`` with
    ``A = sigma2 (1-rho^2)``, ``B = rho^2 var_prev`` has marginal value
    ``A / (A + B g)^2``; equating to the fresh marginal ``1/sigma2`` gives
    ``g* = (sigma sqrt(A) - A) / B``. Degenerate cases (``B = 0``) are
    resolved by comparing marginals directly.
    """
    cap = min(n, max(0, retained_available))
    if cap == 0 or rho == 0.0:
        # no history, or regression worthless: all-fresh is optimal
        # (at rho=0 any split gives sigma2/n; choose g=0 for simplicity)
        return 0, combined_variance(sigma2, n, 0, rho, var_prev)
    a = sigma2 * (1.0 - rho * rho)
    b = rho * rho * var_prev
    if b == 0.0:
        # a perfect previous estimate: matched marginal 1/A beats 1/sigma2
        g_star = cap
    elif a == 0.0:
        # |rho| = 1: one matched sample carries everything
        g_star = 1
    else:
        g_star = (math.sqrt(sigma2 * a) - a) / b
    candidates = {0, cap}
    for candidate in (math.floor(g_star), math.ceil(g_star)):
        candidates.add(int(min(max(candidate, 0), cap)))
    best_g, best_var = 0, float("inf")
    for g in sorted(candidates):
        var = combined_variance(sigma2, n, g, rho, var_prev)
        if var < best_var:
            best_g, best_var = g, var
    return best_g, best_var


def solve_allocation(
    sigma2: float,
    rho: float,
    var_prev: float,
    v_target: float,
    retained_available: int,
    min_n: int = 2,
    max_n: int = 1_000_000,
) -> tuple[int, int]:
    """Smallest sample budget ``(n, g)`` whose best partition meets ``v_target``.

    Binary searches ``n`` (the variance of the best partition is
    non-increasing in ``n``) between two bounds. No partition of ``n``
    samples beats ``sigma2 (1 - rho^2) / n`` (each matched sample carries
    at most ``1 / (sigma2 (1 - rho^2))`` information, each fresh one
    ``1 / sigma2``), so no ``n`` below ``sigma2 (1 - rho^2) / v_target``
    meets the target; the all-fresh size ``sigma2 / v_target`` always
    does (its bound is doubled if float rounding leaves it a hair short).
    Raises when even ``max_n`` cannot meet the target.
    """
    if v_target <= 0:
        raise QueryError(f"variance target must be > 0, got {v_target}")
    if sigma2 == 0.0:
        return min_n, 0

    def best_var(n: int) -> float:
        return _best_partition(sigma2, n, rho, var_prev, retained_available)[1]

    if best_var(max_n) > v_target:
        raise QueryError(
            f"cannot reach variance target {v_target} with {max_n} samples "
            f"(sigma^2={sigma2}, rho={rho})"
        )
    high = max(min_n, math.ceil(min(sigma2 / v_target, max_n)))
    while high < max_n and best_var(high) > v_target:
        high = min(2 * high, max_n)
    floor = math.floor(min(sigma2 * (1.0 - rho * rho) / v_target, max_n))
    low = min(max(min_n, floor), high)
    while low < high:
        middle = (low + high) // 2
        if best_var(middle) <= v_target:
            high = middle
        else:
            low = middle + 1
    g, _ = _best_partition(sigma2, low, rho, var_prev, retained_available)
    return low, g


@dataclass(frozen=True)
class _MatchedPairs:
    """An occasion's matched (retained) portion, measured once.

    The regression slope, ``rho`` and the regression estimate depend on
    the matched pairs alone, so they hold while the stopping rule tops up
    the fresh portion; only ``sigma^2``, pooled over matched and fresh
    values, moves from round to round.
    """

    #: the matched tuples' values at this occasion
    current: np.ndarray
    #: the regression estimate, or the matched mean without a regression
    #: (nan when nothing is matched)
    estimate: float
    #: the squared correlation the regression variance uses (three
    #: pairs at least); None when the estimate is the matched mean, whose
    #: variance is sigma^2 / g
    r2: float | None
    #: measured correlation; None when the pairs cannot estimate one
    rho: float | None
    #: variance of the previous occasion's estimate
    prev_variance: float

    @classmethod
    def measure(
        cls,
        matched_prev: np.ndarray,
        matched_curr: np.ndarray,
        prev_estimate: float,
        prev_variance: float,
    ) -> "_MatchedPairs":
        """Regress current on previous values (three pairs at least)."""
        g = matched_curr.size
        if g >= 3:
            prev_mean = column_mean(matched_prev)
            prev_centered = matched_prev - prev_mean
            prev_var = column_mean(prev_centered**2)
            if prev_var > 0:
                curr_mean = column_mean(matched_curr)
                curr_centered = matched_curr - curr_mean
                covariance = column_mean(prev_centered * curr_centered)
                b = covariance / prev_var
                curr_var = column_mean(curr_centered**2)
                rho: float | None = None
                if curr_var > 0:
                    rho = covariance / math.sqrt(prev_var * curr_var)
                    rho = max(-_RHO_CLIP, min(_RHO_CLIP, rho))
                regression = curr_mean + b * (prev_estimate - prev_mean)
                r2 = rho**2 if rho is not None else 0.0
                return cls(matched_curr, regression, r2, rho, prev_variance)
        mean = column_mean(matched_curr) if g else math.nan
        return cls(matched_curr, mean, None, None, prev_variance)

    def combine(self, fresh_values: np.ndarray) -> Fit:
        """Inverse-variance combination of the regression and regular estimates.

        Returns the stopping rule's fit ``(estimate, variance,
        sigma2_estimate)``.
        """
        g = self.current.size
        f = fresh_values.size
        if g + f == 0:
            raise QueryError("cannot combine with zero samples")
        _, sigma2 = sample_mean_and_variance(
            np.concatenate([self.current, fresh_values])
        )
        sigma2 = max(sigma2, SIGMA_FLOOR**2)
        estimates: list[tuple[float, float]] = []  # (estimate, variance)
        if self.r2 is not None:
            var_regression = (
                sigma2 * (1.0 - self.r2) / g + self.r2 * self.prev_variance
            )
            estimates.append((self.estimate, max(var_regression, 1e-300)))
        elif g > 0:
            estimates.append((self.estimate, sigma2 / g))
        if f > 0:
            estimates.append((column_mean(fresh_values), sigma2 / f))

        weights = [1.0 / var for _, var in estimates]
        total_weight = sum(weights)
        combined = sum(w * est for w, (est, _) in zip(weights, estimates))
        combined /= total_weight
        return combined, 1.0 / total_weight, sigma2


@dataclass
class _OccasionState:
    """Sample-set and estimator state carried between occasions.

    ``tuple_ids`` (int64) and ``values`` (float64) are parallel arrays:
    the occasion's sample-set and each sample's value at that occasion.
    """

    tuple_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    estimate: float = 0.0
    variance: float = 0.0
    sigma2: float = 0.0
    rho: float | None = None

    @property
    def initialized(self) -> bool:
        return bool(self.tuple_ids.size)

    def retainable(self, database: P2PDatabase) -> tuple[np.ndarray, np.ndarray]:
        """``(tuple_ids, values)`` of the samples whose tuple is still live."""
        live = database.live_mask(self.tuple_ids)
        return self.tuple_ids[live], self.values[live]


class RepeatedEvaluator(SnapshotEvaluator):
    """Snapshot evaluation by repeated sampling with partial replacement.

    The first occasion bootstraps with independent sampling; every later
    occasion solves for the cheapest ``(n, g)`` allocation meeting the
    variance target, re-evaluates ``g`` retained tuples (negligible
    communication cost: they are already located), draws ``f`` fresh tuples
    through the sampling operator, and combines the regression and regular
    estimates by inverse-variance weighting. Deleted tuples and departed
    nodes shrink the retainable pool automatically (the paper's "a sample
    tuple that is deleted ... is always replaced").

    Constructed like :class:`~repro.core.independent.SnapshotEvaluator`
    plus ``rng``, which picks the retained subset.
    """

    def __init__(
        self,
        database: P2PDatabase,
        operator: SampleSource,
        origin: int,
        query: Query,
        rng: np.random.Generator,
        population_size_provider: Callable[[], float] | None = None,
    ) -> None:
        if query.op is AggregateOp.AVG and query.predicate is not None:
            raise QueryError(
                "repeated sampling does not support AVG with a predicate "
                "(the subpopulation mean is a ratio of two means, and the "
                "regression machinery of Section IV-B2 targets a single "
                "mean); use the independent evaluator for filtered AVG"
            )
        super().__init__(
            database, operator, origin, query, population_size_provider
        )
        self._rng = rng
        self._state = _OccasionState()
        #: the last solve_allocation inputs and their (n, g): plan_demand
        #: and the evaluate() after it solve the same ones per occasion
        self._last_allocation: tuple[object, tuple[int, int]] | None = None
        #: forward-regression revision of the *previous* occasion's mean,
        #: refreshed by every non-bootstrap evaluate() (None at bootstrap
        #: or when no regression was possible). See repro.core.forward.
        self.last_revision: RevisedEstimate | None = None

    @property
    def current_rho(self) -> float | None:
        """Most recent matched-pair correlation estimate (None before it exists)."""
        return self._state.rho

    def reset(self) -> None:
        """Forget all occasion state (next evaluate() bootstraps again)."""
        self._state = _OccasionState()
        self.last_revision = None

    def plan_demand(self, epsilon: float, confidence: float) -> int:
        """Forecast the *fresh* samples the next evaluate() will draw.

        Pure read: replays the allocation evaluate() will solve — the
        cheapest ``(n, g)`` partition meeting the variance target given
        the current sigma/rho state and the still-alive retainable pool —
        and returns its fresh portion ``n - g`` (retained samples cost no
        walks). Infeasible targets fall back to the pilot size; the
        forecast only sizes prefetch batches, evaluate() still tops up.
        """
        if not self._state.initialized:
            return PILOT_SIZE
        _, epsilon_mean = self._budget(epsilon)
        try:
            (n_needed, g_target), _ = self._size(epsilon_mean, confidence)
        except QueryError:
            return PILOT_SIZE
        return max(0, n_needed - g_target)

    def _size(
        self, epsilon_mean: float, confidence: float
    ) -> tuple[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """This occasion's ``(n, g)`` and the live retained ``(ids, values)``.

        An unbounded budget draws the pilot size; otherwise the cheapest
        allocation meeting the variance target. While the correlation is
        not yet measurable, half the set is retained instead (variance-
        neutral when rho is actually 0, and it seeds the rho estimate).
        """
        state = self._state
        alive_ids, alive_values = state.retainable(self._database)
        if epsilon_mean == float("inf"):
            n_needed = PILOT_SIZE
            g_target = min(alive_ids.size, PILOT_SIZE // 2)
        else:
            n_needed, g_target = self._allocation(
                max(state.sigma2, SIGMA_FLOOR**2),
                state.rho if state.rho is not None else 0.0,
                state.variance,
                variance_target(epsilon_mean, confidence),
                alive_ids.size,
            )
        if state.rho is None:
            g_target = min(alive_ids.size, n_needed // 2)
        return (n_needed, g_target), (alive_ids, alive_values)

    def _allocation(
        self,
        sigma2: float,
        rho: float,
        var_prev: float,
        v_target: float,
        retained_available: int,
    ) -> tuple[int, int]:
        """:func:`solve_allocation` within the evaluator's sample bounds.

        The solver is a pure function, so inputs equal to the last call's
        reuse its ``(n, g)``; a raised ``QueryError`` is not remembered.
        """
        inputs = (sigma2, rho, var_prev, v_target, retained_available)
        last = self._last_allocation
        if last is None or last[0] != inputs:
            allocation = solve_allocation(
                sigma2,
                rho,
                var_prev,
                v_target,
                retained_available=retained_available,
                min_n=PILOT_SIZE,
                max_n=MAX_SAMPLE_SIZE,
            )
            last = self._last_allocation = (inputs, allocation)
        return last[1]

    # ------------------------------------------------------------------
    # occasions
    # ------------------------------------------------------------------

    def _bootstrap(
        self, time: int, epsilon: float, confidence: float
    ) -> SnapshotEstimate:
        """First occasion: independent sequential sampling, state recorded."""
        (ids, values, _), (mean, variance, sigma2), estimate = (
            self._sample_from_scratch(time, epsilon, confidence, mean_fit)
        )
        self.last_revision = None
        self._state = _OccasionState(
            tuple_ids=ids,
            values=values,
            estimate=mean,
            variance=variance,
            sigma2=sigma2,
            rho=None,
        )
        return estimate

    def evaluate(
        self, time: int, epsilon: float, confidence: float
    ) -> SnapshotEstimate:
        """Evaluate the snapshot query at ``time`` to ``(epsilon, p)``."""
        if not self._state.initialized:
            return self._bootstrap(time, epsilon, confidence)
        population, epsilon_mean = self._budget(epsilon)
        state = self._state
        (n_needed, g_target), (alive_ids, alive_values) = self._size(
            epsilon_mean, confidence
        )
        v_target = variance_target(epsilon_mean, confidence)

        # retain a random subset of the alive previous samples
        picks = (
            self._rng.choice(alive_ids.size, size=g_target, replace=False)
            if g_target > 0
            else np.empty(0, dtype=np.int64)
        )
        matched_ids = alive_ids[picks]
        matched_prev = alive_values[picks]
        # re-evaluation: already located, negligible communication cost
        matched_curr = self._spec.values(self._database, matched_ids)[0]

        pairs = _MatchedPairs.measure(
            matched_prev, matched_curr, state.estimate, state.variance
        )
        # the allocated fresh draw, topped up while short of the target;
        # the final fit is the combined estimate of the final sample
        fresh, (estimate, variance, sigma2_new), degraded = sequential_sample(
            self._draw(n_needed - matched_ids.size),
            self._draw,
            lambda sample: pairs.combine(sample[1]),
            v_target,
        )
        fresh_ids, fresh_values = fresh[0], fresh[1]

        # forward regression: the matched pairs also support revising the
        # previous occasion's estimate with what occasion k learned
        if matched_curr.size >= 3:
            self.last_revision = revise_previous(
                state.estimate,
                state.variance,
                matched_prev,
                matched_curr,
                estimate,
                variance,
                sigma2_new,
            )
        else:
            self.last_revision = None

        g = matched_ids.size
        f = fresh_ids.size
        self._state = _OccasionState(
            tuple_ids=np.concatenate([matched_ids, fresh_ids]),
            values=np.concatenate([matched_curr, fresh_values]),
            estimate=estimate,
            variance=variance,
            sigma2=sigma2_new,
            rho=pairs.rho if pairs.rho is not None else state.rho,
        )
        return SnapshotEstimate.from_mean(
            self._query.op,
            epsilon,
            confidence,
            time=time,
            mean=estimate,
            variance=variance,
            n_fresh=f,
            n_retained=g,
            population_size=population,
            degraded=degraded,
        )
