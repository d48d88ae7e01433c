"""Independent sampling snapshot evaluation (Section IV-B1).

Each snapshot query is answered from scratch: draw uniformly random tuples
(with replacement, via two-stage sampling), estimate the mean by the sample
mean, and size the sample by the CLT (Eq. 6). Because the population
standard deviation is unknown, the evaluator samples *sequentially*: a
pilot round estimates ``sigma``, the required ``n`` is recomputed, and
extra samples are drawn until the drawn count covers the requirement
(bounded by ``max_rounds`` top-up rounds). That loop,
:func:`sequential_sample`, is the one Eq. 6 sizing rule: the repeated
evaluator's first occasion runs it too.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.db.aggregates import (
    AggregateOp,
    mean_error_budget,
    query_attributes,
    tuple_values,
)
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.sampling.operator import SampleSource


@dataclass(frozen=True)
class EvaluatorConfig:
    """Sequential-sampling knobs shared by both evaluators.

    ``pilot_size`` seeds the sigma estimate on the first round;
    ``max_rounds`` bounds the top-up iterations; ``max_sample_size`` guards
    against infeasible precision requests; ``sigma_floor`` keeps the size
    computation meaningful when the pilot happens to see identical values.
    """

    pilot_size: int = 30
    max_rounds: int = 4
    max_sample_size: int = 1_000_000
    sigma_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.pilot_size < 2:
            raise QueryError(f"pilot_size must be >= 2, got {self.pilot_size}")
        if self.max_rounds < 1:
            raise QueryError(f"max_rounds must be >= 1, got {self.max_rounds}")


def sequential_sample(
    draw: Callable[[int], tuple[np.ndarray, np.ndarray]],
    epsilon_mean: float,
    confidence: float,
    config: EvaluatorConfig,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eq. 6 sequential sizing: pilot, re-size from sigma-hat, top up.

    ``draw(n)`` returns up to ``n`` fresh ``(tuple_ids, values)``. A pilot
    of ``pilot_size`` estimates sigma, Eq. 6 sizes ``n`` from it, and at
    most ``max_rounds`` top-ups draw the shortfall, stopping early when the
    overlay delivers nothing. Returns ``(tuple_ids, values, degraded)``:
    ``degraded`` means fewer values came back than Eq. 6 required, so the
    promised precision does not hold (the estimate itself is still
    unbiased; only its interval widens).
    """
    ids, values = draw(config.pilot_size)
    if values.size == 0:
        raise QueryError("the overlay returned no samples at all; cannot estimate")
    needed = values.size
    if epsilon_mean == float("inf"):
        return ids, values, False
    for _ in range(config.max_rounds):
        _, variance = sample_mean_and_variance(values)
        needed = required_sample_size(
            max(float(np.sqrt(variance)), config.sigma_floor),
            epsilon_mean,
            confidence,
            minimum=config.pilot_size,
            maximum=config.max_sample_size,
        )
        if needed <= values.size:
            break
        extra_ids, extra = draw(needed - values.size)
        if extra.size == 0:
            break  # the overlay is delivering nothing; degrade
        ids = np.concatenate([ids, extra_ids])
        values = np.concatenate([values, extra])
    return ids, values, values.size < needed


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
        config: EvaluatorConfig | None = None,
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
        self._config = config if config is not None else EvaluatorConfig()
        self._attributes = query_attributes(query.expression, query.predicate)

    @property
    def config(self) -> EvaluatorConfig:
        return self._config

    def _budget(self, epsilon: float) -> tuple[int, float]:
        """``(N, epsilon_mean)``: the population and its mean-level budget."""
        population = int(round(self._population_size_provider()))
        return population, mean_error_budget(self._query.op, epsilon, population)

    def _values(self, tuple_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(y, indicator)`` arrays of live tuples under the query's transform."""
        query = self._query
        columns = self._database.gather(self._attributes, tuple_ids)
        return tuple_values(
            query.op, query.expression, query.predicate, columns, len(tuple_ids)
        )

    def _draw(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw up to ``n`` fresh samples: ``(tuple_ids, y, indicator)``.

        Partial mode: under the failure model the overlay may lose walks,
        so fewer than ``n`` values can come back. The evaluator degrades
        (flagging the estimate) rather than aborting the query.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        tuple_ids = self._operator.sample_tuples(
            self._database, n, self._origin, allow_partial=True
        )
        values, indicators = self._values(tuple_ids)
        return tuple_ids, values, indicators

    def _draw_values(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        ids, values, _ = self._draw(n)
        return ids, values


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
        config = self._config
        if self._last_sigma is None:
            return config.pilot_size
        _, epsilon_mean = self._budget(epsilon)
        if epsilon_mean == float("inf"):
            return config.pilot_size
        return required_sample_size(
            self._last_sigma,
            epsilon_mean,
            confidence,
            minimum=config.pilot_size,
            maximum=config.max_sample_size,
        )

    def evaluate(
        self, time: int, epsilon: float, confidence: float
    ) -> SnapshotEstimate:
        """Evaluate the snapshot query at ``time`` to ``(epsilon, p)``.

        ``epsilon`` is in aggregate units; it is converted to the mean-level
        budget using the population size (AVG passes through). AVG uses the
        ratio estimator, which reduces to the plain sample mean when the
        query has no predicate.
        """
        population, epsilon_mean = self._budget(epsilon)
        if self._query.op is AggregateOp.AVG:
            mean, variance, n, degraded = self._evaluate_ratio(
                epsilon_mean, confidence
            )
        else:
            mean, variance, n, degraded = self._evaluate_mean(
                epsilon_mean, confidence
            )
        return SnapshotEstimate.from_mean(
            self._query.op,
            epsilon,
            confidence,
            time=time,
            mean=mean,
            variance=variance,
            n_fresh=n,
            n_retained=0,
            population_size=population,
            degraded=degraded,
        )

    def _evaluate_mean(
        self, epsilon_mean: float, confidence: float
    ) -> tuple[float, float, int, bool]:
        """Eq. 6 sequential sizing on the (masked) per-tuple values.

        Returns ``(mean, variance-of-mean, n, degraded)``.
        """
        _, values, degraded = sequential_sample(
            self._draw_values, epsilon_mean, confidence, self._config
        )
        mean, variance = sample_mean_and_variance(values)
        self._last_sigma = max(
            float(np.sqrt(variance)), self._config.sigma_floor
        )
        return mean, variance / values.size, int(values.size), degraded

    def _evaluate_ratio(
        self, epsilon_mean: float, confidence: float
    ) -> tuple[float, float, int, bool]:
        """Sequential sizing of the ratio estimator (AVG, maybe filtered).

        Returns ``(estimate, variance, n, degraded)``; ``degraded`` means
        the final estimator variance still exceeds the ``(epsilon, p)``
        variance target after all top-up rounds.
        """
        config = self._config
        _, values, indicators = self._draw(config.pilot_size)
        if values.size == 0:
            raise QueryError(
                "the overlay returned no samples at all; cannot estimate"
            )
        estimate, variance = None, None
        for round_index in range(config.max_rounds + 1):
            try:
                estimate, variance = ratio_estimate(values, indicators)
            except QueryError:
                if round_index >= config.max_rounds:
                    raise
                # nothing qualified yet: widen the sample and retry
                _, extra_values, extra_indicators = self._draw(len(values))
                if extra_values.size == 0:
                    raise
                values = np.concatenate([values, extra_values])
                indicators = np.concatenate([indicators, extra_indicators])
                continue
            if epsilon_mean == float("inf") or round_index >= config.max_rounds:
                break
            target = variance_target(epsilon_mean, confidence)
            if variance <= target:
                break
            # per-sample variance rate; size the full requirement from it
            rate = variance * values.size
            needed = max(values.size + 1, int(np.ceil(rate / target)))
            if needed > config.max_sample_size:
                raise QueryError(
                    f"required sample size {needed} exceeds the configured "
                    f"maximum {config.max_sample_size}; the precision "
                    f"request is infeasible for this population"
                )
            _, extra_values, extra_indicators = self._draw(
                needed - values.size
            )
            if extra_values.size == 0:
                break  # the overlay is delivering nothing; degrade
            values = np.concatenate([values, extra_values])
            indicators = np.concatenate([indicators, extra_indicators])
        assert estimate is not None and variance is not None
        degraded = epsilon_mean != float("inf") and variance > variance_target(
            epsilon_mean, confidence
        )
        # per-sample sigma equivalent of the ratio estimator's variance
        # rate, so plan_demand can forecast via the same Eq. 6 sizing
        self._last_sigma = max(
            float(np.sqrt(variance * values.size)), config.sigma_floor
        )
        return estimate, variance, int(values.size), degraded
