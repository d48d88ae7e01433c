"""Shared snapshot-evaluation result type.

Both evaluators (independent and repeated sampling) produce a
:class:`SnapshotEstimate`: the mean estimate, the scaled aggregate
estimate, the estimator's variance (of the *mean* estimator), and the
sample accounting the experiments aggregate (total / fresh / retained).
Every estimate is built by :meth:`SnapshotEstimate.from_mean`, the one place
that scales the mean to the aggregate and writes the degraded Eq. 5
re-statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.estimators import (
    achieved_confidence,
    achieved_epsilon,
    confidence_quantile,
)
from repro.db.aggregates import AggregateOp, mean_error_budget, scale_factor


@dataclass(frozen=True)
class SnapshotEstimate:
    """Result of one snapshot-query evaluation.

    ``variance`` is the estimated variance of the mean estimator;
    ``aggregate`` is the mean scaled to the query's aggregate: ``scale`` is
    that multiplier (``N`` for SUM/COUNT, 1 for AVG). ``n_fresh`` counts
    samples drawn through the sampling operator this occasion;
    ``n_retained`` counts re-evaluated samples carried over from the
    previous occasion.

    Degradation contract (failure model): when the overlay lost samples
    and the evaluator could not reach the promised ``(epsilon, p)``, the
    estimate is still returned but flagged ``degraded=True`` with
    ``achieved_epsilon`` (half-width actually attained at the promised
    confidence) and ``achieved_confidence`` (confidence actually attained
    at the promised epsilon) filled in — the honest re-statement of Eq. 5
    for the samples that made it back. Both are ``None`` on non-degraded
    estimates.

    ``reachable_fraction`` extends the contract to *correlated* failures
    (overlay partitions): it is the fraction of live nodes the querying
    node could reach when the samples were drawn. While a partition is
    open it is ``< 1.0``, the estimate is flagged degraded, and
    ``population_size`` / ``aggregate`` are re-scoped to the reachable
    sub-population — the estimate answers the query *over the population
    that was actually sampleable*, stated honestly, instead of silently
    pretending to cover the whole relation.
    """

    time: int
    mean: float
    aggregate: float
    variance: float
    n_total: int
    n_fresh: int
    n_retained: int
    population_size: int
    scale: float = 1.0
    degraded: bool = False
    achieved_epsilon: float | None = None
    achieved_confidence: float | None = None
    reachable_fraction: float = 1.0

    @classmethod
    def from_mean(
        cls,
        op: AggregateOp,
        epsilon: float,
        confidence: float,
        *,
        time: int,
        mean: float,
        variance: float,
        n_fresh: int,
        n_retained: int,
        population_size: int,
        degraded: bool,
        reachable_fraction: float = 1.0,
    ) -> SnapshotEstimate:
        """Scale a mean estimate to ``op``'s aggregate over ``population_size``.

        ``epsilon`` is the promise in aggregate units. A degraded estimate
        also gets its honest Eq. 5 re-statement: the half-width attained at
        ``confidence`` and the confidence attained at ``epsilon``.
        """
        scale = scale_factor(op, population_size)
        ach_eps, ach_conf = None, None
        if degraded:
            ach_eps = achieved_epsilon(variance, confidence) * scale
            epsilon_mean = mean_error_budget(op, epsilon, population_size)
            if epsilon_mean != float("inf"):
                ach_conf = achieved_confidence(epsilon_mean, variance)
        return cls(
            time=time,
            mean=mean,
            aggregate=mean * scale,
            variance=variance,
            n_total=n_fresh + n_retained,
            n_fresh=n_fresh,
            n_retained=n_retained,
            population_size=population_size,
            scale=scale,
            degraded=degraded,
            achieved_epsilon=ach_eps,
            achieved_confidence=ach_conf,
            reachable_fraction=reachable_fraction,
        )

    def half_width(self, confidence: float) -> float:
        """Confidence-interval half width of the *aggregate* estimate."""
        return (
            confidence_quantile(confidence)
            * math.sqrt(max(0.0, self.variance))
            * self.scale
        )
