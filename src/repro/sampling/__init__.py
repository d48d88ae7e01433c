"""Distributed random sampling from unstructured P2P databases (Section V).

The sampling operator ``S`` draws a random node with probability
proportional to an arbitrary weight function, by running a Metropolis
random walk over the overlay whose stationary distribution is the target
distribution. Two-stage sampling (weighted node, then uniform local tuple)
yields uniformly random tuples from the whole relation.

Modules
-------
* :mod:`repro.sampling.weights` — weight functions (uniform, content size,
  degree, custom).
* :mod:`repro.sampling.metropolis` — Metropolis forwarding probabilities
  (Eq. 12) and the full transition matrix for analysis.
* :mod:`repro.sampling.walker` — the walk snapshot (with its Metropolis
  edge table) and the batch random-walk kernel.
* :mod:`repro.sampling.native` — the kernel's walk rounds in C, compiled
  with the system compiler on first use (``None`` where that fails).
* :mod:`repro.sampling.mixing` — total-variation distance, eigengap,
  mixing-time bound (Theorems 1-4).
* :mod:`repro.sampling.operator` — the sampling operator ``S``: batch mode,
  continued walks with reset time, two-stage and cluster tuple sampling.
* :mod:`repro.sampling.pool` — the shared sample pool between queries and
  the operator: freshness epochs, per-consumer reuse cursors, coalesced
  prefetch batches (the multi-query amortization layer).
* :mod:`repro.sampling.size_estimation` — capture-recapture estimators for
  network and relation size (needed by SUM/COUNT without an oracle).
"""

from repro.sampling.metropolis import metropolis_matrix, stationary_distribution
from repro.sampling.mixing import (
    eigengap,
    empirical_mixing_time,
    mixing_time_bound,
    total_variation,
)
from repro.sampling.operator import SamplerConfig, SampleSource, SamplingOperator
from repro.sampling.pool import PoolLease, SamplePool
from repro.sampling.size_estimation import (
    estimate_network_size,
    estimate_relation_size,
)
from repro.sampling.weights import (
    content_size_weights,
    degree_weights,
    uniform_weights,
)

__all__ = [
    "PoolLease",
    "SamplePool",
    "SamplerConfig",
    "SampleSource",
    "SamplingOperator",
    "content_size_weights",
    "degree_weights",
    "eigengap",
    "empirical_mixing_time",
    "estimate_network_size",
    "estimate_relation_size",
    "metropolis_matrix",
    "mixing_time_bound",
    "stationary_distribution",
    "total_variation",
    "uniform_weights",
]
