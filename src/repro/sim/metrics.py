"""Metric collection for experiments.

:class:`RunMetrics` holds the scalar counters of one experiment run
(total samples, fresh samples, snapshot-query count, ...) so every
benchmark reports through the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass


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
