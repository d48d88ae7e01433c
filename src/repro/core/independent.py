"""Independent sampling snapshot evaluation (Section IV-B1).

Each snapshot query is answered from scratch: draw uniformly random tuples
(with replacement, via two-stage sampling), estimate the mean by the sample
mean, and size the sample by the CLT (Eq. 6). Because the population
standard deviation is unknown, the evaluator samples *sequentially*: a
pilot of :data:`PILOT_SIZE` estimates ``sigma``, and top-ups follow until
the estimator's variance meets the ``(epsilon, p)`` target
``(epsilon / z_p)^2``. That loop, :func:`sequential_sample`, is the one
stopping rule: SUM/COUNT run it with the sample mean, AVG with the ratio
estimator, and the repeated evaluator with its combined estimator.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.estimators import (
    ratio_estimate,
    required_sample_size,
    sample_mean_and_variance,
    variance_target,
)
from repro.core.query import Query
from repro.core.snapshot import SnapshotEstimate
from repro.db.aggregates import AggregateOp, ValueSpec, mean_error_budget
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.sampling.operator import SampleSource

#: draws on the first round, which seed the sigma estimate
PILOT_SIZE = 30
#: top-up draws per occasion; a variance still short after them degrades
MAX_ROUNDS = 4
#: guards against infeasible precision requests
MAX_SAMPLE_SIZE = 1_000_000
#: keeps Eq. 6 sizing meaningful when a sample holds identical values
SIGMA_FLOOR = 1e-12

#: parallel arrays, one entry per drawn tuple (``(tuple_ids, y, indicator)``)
Sample = tuple[np.ndarray, ...]
#: ``(estimate, variance of the estimate, variance one fresh draw carries)``
Fit = tuple[float, float, float]


def sequential_sample(
    sample: Sample,
    draw: Callable[[int], Sample],
    fit: Callable[[Sample], Fit | None],
    target: float,
) -> tuple[Sample, Fit, bool]:
    """The one stopping rule: top ``sample`` up until its variance meets ``target``.

    ``fit(sample)`` returns ``(estimate, variance, rate)``, where ``rate``
    is the variance one fresh draw carries (``sigma^2`` for a mean), or
    None while no estimate exists yet (a filtered AVG before its first
    qualifying tuple): the sample then doubles. Each round draws
    ``k = ceil((1/target - 1/variance) * rate)`` more (at least one), the
    count that brings the variance to ``target`` at the current rate; for
    a plain mean that is Eq. 6's ``ceil(sigma^2 z_p^2 / eps^2) - n``.
    ``draw(k)`` returns up to ``k`` fresh entries; the rule stops after
    :data:`MAX_ROUNDS` draws or when a draw delivers nothing. Returns
    ``(sample, fit, degraded)``: ``degraded`` means the final variance
    still misses ``target``, so the promised precision does not hold (the
    estimate itself is still unbiased; only its interval widens).
    """
    limit = target * (1.0 + 1e-9)  # rounding slack, not a precision knob
    fitted = fit(sample)
    for _ in range(MAX_ROUNDS):
        if fitted is None:
            k = sample[0].size
        else:
            _, variance, rate = fitted
            if variance <= limit:
                break
            k = max(1, math.ceil((1.0 / target - 1.0 / variance) * rate))
        if sample[0].size + k > MAX_SAMPLE_SIZE:
            raise QueryError(
                f"required sample size {sample[0].size + k} exceeds the "
                f"maximum {MAX_SAMPLE_SIZE}; the precision request is "
                f"infeasible for this population"
            )
        extra = draw(k)
        if extra[0].size == 0:
            break  # the overlay is delivering nothing; degrade
        sample = tuple(np.concatenate(pair) for pair in zip(sample, extra))
        fitted = fit(sample)
    if fitted is None:
        raise QueryError(
            "no sampled tuple satisfies the predicate; cannot estimate AVG "
            "(selectivity may be too low for sampling)"
        )
    return sample, fitted, fitted[1] > limit


def mean_fit(sample: Sample) -> Fit:
    """The sample mean of the ``y`` column: ``(mean, sigma^2 / n, sigma^2)``."""
    values = sample[1]
    mean, sigma2 = sample_mean_and_variance(values)
    return mean, sigma2 / values.size, sigma2


def ratio_fit(sample: Sample) -> Fit | None:
    """The ratio estimator (AVG, maybe filtered); None before a tuple qualifies."""
    _, values, indicators = sample
    if not indicators.any():
        return None
    estimate, variance = ratio_estimate(values, indicators)
    return estimate, variance, variance * values.size


class SnapshotEvaluator:
    """What both snapshot evaluators share: samples, budget and transform.

    Parameters
    ----------
    database, operator, origin:
        Where samples come from: the operator's two-stage sampling against
        ``database``, walks originating at ``origin``.
    query:
        The aggregate query; its op defines the value transform and scale.
    population_size_provider:
        Callable returning the relation size ``N`` used to scale SUM/COUNT
        (oracle in experiments, estimator in deployments). AVG ignores it.
    """

    def __init__(
        self,
        database: P2PDatabase,
        operator: SampleSource,
        origin: int,
        query: Query,
        population_size_provider: Callable[[], float] | None = None,
    ) -> None:
        self._database = database
        self._operator = operator
        self._origin = origin
        self._query = query
        self._population_size_provider = (
            population_size_provider
            if population_size_provider is not None
            else lambda: database.n_tuples
        )
        #: what a draw reads of its tuple (equal queries read equal values)
        self._spec = ValueSpec(query.op, query.expression, query.predicate)

    def _budget(self, epsilon: float) -> tuple[int, float]:
        """``(N, epsilon_mean)``: the population and its mean-level budget."""
        population = int(round(self._population_size_provider()))
        return population, mean_error_budget(self._query.op, epsilon, population)

    def _draw(self, n: int) -> Sample:
        """Draw up to ``n`` fresh samples: ``(tuple_ids, y, indicator)``.

        Partial mode: under the failure model the overlay may lose walks,
        so fewer than ``n`` values can come back. The evaluator degrades
        (flagging the estimate) rather than aborting the query.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        return self._operator.sample_values(
            self._database, self._spec, n, self._origin, allow_partial=True
        )

    def _sample_from_scratch(
        self,
        time: int,
        epsilon: float,
        confidence: float,
        fit: Callable[[Sample], Fit | None],
    ) -> tuple[Sample, Fit, SnapshotEstimate]:
        """Answer the snapshot from a fresh sample, sized by the one rule.

        A pilot of :data:`PILOT_SIZE` is topped up by
        :func:`sequential_sample` to the ``(epsilon, p)`` variance target.
        Returns the final sample, its fit and the snapshot estimate.
        """
        population, epsilon_mean = self._budget(epsilon)
        target = variance_target(epsilon_mean, confidence)
        pilot = self._draw(PILOT_SIZE)
        if pilot[0].size == 0:
            raise QueryError(
                "the overlay returned no samples at all; cannot estimate"
            )
        sample, fitted, degraded = sequential_sample(
            pilot, self._draw, fit, target
        )
        estimate = SnapshotEstimate.from_mean(
            self._query.op,
            epsilon,
            confidence,
            time=time,
            mean=fitted[0],
            variance=fitted[1],
            n_fresh=int(sample[0].size),
            n_retained=0,
            population_size=population,
            degraded=degraded,
        )
        return sample, fitted, estimate


class IndependentEvaluator(SnapshotEvaluator):
    """Evaluates snapshot queries by classical independent sampling.

    Constructed like :class:`SnapshotEvaluator`.
    """

    _last_sigma: float | None = None

    def plan_demand(self, epsilon: float, confidence: float) -> int:
        """Forecast how many fresh samples the next evaluate() will draw.

        Pure read (no sampling, no state change): before the first
        occasion there is no sigma estimate, so the forecast is the pilot
        size; afterwards it is Eq. 6 sized from the last occasion's sigma.
        The session uses this to size coalesced prefetch batches — a wrong
        forecast only shifts the pool hit/miss split, never correctness,
        because evaluate() still tops up sequentially.
        """
        if self._last_sigma is None:
            return PILOT_SIZE
        _, epsilon_mean = self._budget(epsilon)
        if epsilon_mean == float("inf"):
            return PILOT_SIZE
        return required_sample_size(
            self._last_sigma,
            epsilon_mean,
            confidence,
            minimum=PILOT_SIZE,
            maximum=MAX_SAMPLE_SIZE,
        )

    def evaluate(
        self, time: int, epsilon: float, confidence: float
    ) -> SnapshotEstimate:
        """Evaluate the snapshot query at ``time`` to ``(epsilon, p)``.

        ``epsilon`` is in aggregate units; it is converted to the mean-level
        budget using the population size (AVG passes through). AVG uses the
        ratio estimator, which reduces to the plain sample mean when the
        query has no predicate; SUM/COUNT use the sample mean.
        """
        fit = ratio_fit if self._query.op is AggregateOp.AVG else mean_fit
        _, fitted, estimate = self._sample_from_scratch(
            time, epsilon, confidence, fit
        )
        # per-draw sigma from the fit's rate, so plan_demand can forecast
        # via Eq. 6
        self._last_sigma = max(math.sqrt(fitted[2]), SIGMA_FLOOR)
        return estimate
