"""Metric collection for experiments.

:class:`MetricSeries` records ``(time, value)`` pairs for one named metric;
:class:`RunMetrics` groups the series of one experiment run together with
scalar counters (total samples, fresh samples, snapshot-query count, ...)
so every benchmark reports through the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MetricSeries:
    """Append-only time series of float observations."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[int] = []
        self._values: list[float] = []

    def record(self, time: int, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"series {self.name!r} requires non-decreasing times; "
                f"got {time} after {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=float)

    def last(self) -> float:
        if not self._values:
            raise ValueError(f"series {self.name!r} is empty")
        return self._values[-1]

    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"series {self.name!r} is empty")
        return float(np.mean(self._values))

    def total(self) -> float:
        # raises on empty like mean()/last(): an empty series is a
        # measurement that never happened, not a measurement of zero
        if not self._values:
            raise ValueError(f"series {self.name!r} is empty")
        return float(np.sum(self._values))



@dataclass
class RunMetrics:
    """All measurements from one experiment run.

    Counters
    --------
    snapshot_queries:
        Number of snapshot-query executions (Figure 4-a's y-axis).
    samples_total:
        All samples evaluated, retained + fresh (Figure 4-b / 5-a y-axes).
    samples_fresh:
        Samples that had to be located via the sampling operator (the ones
        that actually cost messages, Section VI-B2).
    samples_retained:
        Re-evaluated retained samples (negligible communication cost).
    walks_retried:
        Walk attempts beyond the first (failure-model supervision).
    walks_failed:
        Walks that exhausted their retry budget and delivered no sample.
    faults_injected:
        Fault events recorded during the run (losses, crashes, ...).
    degraded_estimates:
        Snapshot estimates returned with ``degraded=True``.
    pool_hits:
        Samples served to a query from the shared sample pool (walks the
        multi-query session did not have to pay for again).
    pool_misses:
        Pool requests that fell through to fresh walks (the marginal
        ``n_required - n_pooled`` draws).
    alerts_fired:
        Alert-rule transitions into the firing state (live guarantee
        auditing; see :mod:`repro.obs.alerts`).
    alerts_resolved:
        Firing alert rules that transitioned back to resolved.
    """

    snapshot_queries: int = 0
    samples_total: int = 0
    samples_fresh: int = 0
    samples_retained: int = 0
    walks_retried: int = 0
    walks_failed: int = 0
    faults_injected: int = 0
    degraded_estimates: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0
    _series: dict[str, MetricSeries] = field(default_factory=dict)

    def series(self, name: str) -> MetricSeries:
        """Get (or lazily create) the named series."""
        found = self._series.get(name)
        if found is None:
            found = MetricSeries(name)
            self._series[name] = found
        return found

    def has_series(self, name: str) -> bool:
        return name in self._series and len(self._series[name]) > 0

    def series_names(self) -> list[str]:
        return sorted(self._series)
