"""The shared sample pool: one sampling substrate, many queries.

Section III packages sampling as a *database operator* precisely so its
cost can be amortized: a uniformly random tuple drawn by a Metropolis walk
is a valid sample for **every** query that needs uniform tuples at the
same occasion, not just the query that happened to request it. BlinkDB
makes the same observation for shared samples serving many bounded-error
queries; the "Sampling Algebra" line of work supplies the bookkeeping rule
that makes reuse sound: a query may reuse pooled samples as long as *it*
never sees the same draw twice, because then its own sample-set is still
i.i.d. and every variance formula (Eq. 6 CLT sizing, the Eq. 7/8
inverse-variance combination of the repeated evaluator) applies unchanged.
Estimates of co-resident queries become correlated with each other — the
harmless price of paying for each walk once instead of once per query;
each query's marginal ``(epsilon, p)`` contract is untouched.

:class:`SamplePool` implements that contract:

* it **owns** the :class:`~repro.sampling.operator.SamplingOperator`
  (digest-lint DGL008 forbids constructing one anywhere else outside
  :mod:`repro.sampling`) and is the only way queries reach it;
* every pooled sample carries a **freshness epoch** (the simulated time it
  was drawn at) and a monotonically increasing **serial**;
  :meth:`begin_epoch` evicts samples older than ``max_age`` epochs — the
  default ``max_age=0`` keeps only same-tick samples, the paper's
  static-during-occasion assumption;
* each consumer (query) holds a **cursor**: the highest serial it has
  consumed. :meth:`acquire` serves only samples *beyond* the cursor, so a
  query topping up sequentially never double-counts a draw, while two
  different queries overlap fully on the same pooled samples;
* only the marginal shortfall ``n_required - n_pooled`` is drawn fresh
  through the operator — the pool hit/miss split is counted
  (:attr:`pool_hits` / :attr:`pool_misses`), traced (``pool_serve``
  spans), and derived into
  :class:`~repro.sim.metrics.RunMetrics` by the standard sink;
* :meth:`prefetch` draws one **coalesced walk batch** on behalf of several
  queries at once (the session's demand coalescing), recording a
  ``shared_walk_batch`` span attributing the batch to every consuming
  query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.faults import FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.schema import (
    EVENT_POOL_INVALIDATE,
    SPAN_POOL_SERVE,
    SPAN_SHARED_WALK_BATCH,
)
from repro.obs.tracer import NO_TIME, NULL_TRACER, Tracer
from repro.sampling.operator import (
    SamplerConfig,
    SamplingOperator,
    TupleSample,
)
from repro.sampling.weights import WeightFunction


@dataclass(frozen=True)
class PoolConfig:
    """Freshness policy of the shared pool.

    ``max_age`` is the number of epochs a pooled sample stays servable
    after the epoch it was drawn in: ``0`` (default) restricts reuse to
    the same simulated tick — the paper's static-during-occasion model —
    while larger values let slowly-changing relations amortize walks
    across nearby occasions at the cost of serving slightly stale rows.
    """

    max_age: int = 0

    def __post_init__(self) -> None:
        if self.max_age < 0:
            raise SamplingError(f"max_age must be >= 0, got {self.max_age}")


@dataclass(frozen=True)
class PooledSample:
    """One pooled tuple sample with its freshness/ordering tags."""

    sample: TupleSample
    epoch: int
    serial: int


class SamplePool:
    """Shared tuple-sample cache between queries and the sampling operator.

    Parameters mirror :class:`~repro.sampling.operator.SamplingOperator`;
    the pool constructs and owns the operator.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        sampler_config: SamplerConfig | None = None,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
        config: PoolConfig | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._operator = SamplingOperator(
            graph,
            rng,
            ledger,
            sampler_config,
            faults=faults,
            tracer=self._tracer,
            partitions=partitions,
        )
        self._config = config if config is not None else PoolConfig()
        self._epoch: int = NO_TIME
        self._samples: list[PooledSample] = []
        self._cursors: dict[str, int] = {}
        self._next_serial = 0
        self.pool_hits = 0
        self.pool_misses = 0

    @property
    def operator(self) -> SamplingOperator:
        """The owned sampling operator (the leased raw substrate)."""
        return self._operator

    @property
    def config(self) -> PoolConfig:
        return self._config

    @property
    def epoch(self) -> int:
        """Current freshness epoch (``NO_TIME`` before the first one)."""
        return self._epoch

    @property
    def n_pooled(self) -> int:
        """Samples currently held (all epochs still within ``max_age``)."""
        return len(self._samples)

    @property
    def hit_rate(self) -> float:
        """Fraction of served demand satisfied from the pool."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def lease(self, consumer: str) -> "PoolLease":
        """A per-query handle; ``consumer`` keys the reuse cursor."""
        return PoolLease(self, consumer)

    # ------------------------------------------------------------------
    # freshness epochs
    # ------------------------------------------------------------------

    def begin_epoch(self, time: int) -> None:
        """Advance the freshness epoch to ``time`` and evict stale samples.

        Idempotent per tick. Serials keep increasing across epochs, so
        consumer cursors stay valid through evictions.
        """
        if time == self._epoch:
            return
        self._epoch = time
        horizon = time - self._config.max_age
        self._samples = [s for s in self._samples if s.epoch >= horizon]

    def reset(self) -> None:
        """Drop all pooled samples, cursors, and hit/miss counters."""
        self._samples = []
        self._cursors = {}
        self.pool_hits = 0
        self.pool_misses = 0

    def invalidate_scope(self, time: int, reason: str) -> int:
        """Evict *every* pooled sample after a reachability change.

        Called when the population a query can reach changes — a
        partition opening, growing, shrinking, or healing. Samples drawn
        under the old scope are biased for the new one in both
        directions (a heal makes pre-heal samples under-cover the
        returned region; a cut makes pre-cut samples leak the
        unreachable side), so the pool drops them all rather than trying
        to filter. Serials keep increasing, so consumer cursors stay
        valid. Returns the number of samples evicted.
        """
        n_evicted = len(self._samples)
        self._samples = []
        self._tracer.event(
            EVENT_POOL_INVALIDATE,
            time=time,
            n_evicted=n_evicted,
            reason=reason,
        )
        return n_evicted

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def _admit(self, fresh: list[TupleSample]) -> list[PooledSample]:
        admitted = []
        for sample in fresh:
            admitted.append(
                PooledSample(
                    sample=sample, epoch=self._epoch, serial=self._next_serial
                )
            )
            self._next_serial += 1
        self._samples.extend(admitted)
        return admitted

    def _servable(self, database: P2PDatabase, cursor: int) -> list[PooledSample]:
        """Live pooled samples beyond ``cursor`` (dead tuples evicted)."""
        if any(s.sample.tuple_id not in database for s in self._samples):
            self._samples = [
                s for s in self._samples if s.sample.tuple_id in database
            ]
        return [s for s in self._samples if s.serial > cursor]

    def acquire(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        consumer: str = "default",
        max_retries: int = 8,
        allow_partial: bool = False,
    ) -> list[TupleSample]:
        """Serve ``n`` uniform tuple samples to ``consumer``.

        Pooled samples the consumer has not seen are served first (hits);
        only the marginal shortfall is drawn fresh through the operator
        (misses), and the fresh draws are pooled for later consumers. The
        consumer's cursor advances past everything it was handed, so
        repeated calls within one epoch never serve it the same draw
        twice.
        """
        if n < 0:
            raise SamplingError(f"cannot serve {n} samples")
        if n == 0:
            return []
        cursor = self._cursors.get(consumer, -1)
        span = self._tracer.span(
            SPAN_POOL_SERVE,
            n_requested=n,
            consumer=consumer,
            origin=origin,
        )
        hits = self._servable(database, cursor)[:n]
        shortfall = n - len(hits)
        served = [pooled.sample for pooled in hits]
        drawn: list[PooledSample] = []
        if shortfall > 0:
            fresh = self._operator.sample_tuples(
                database, shortfall, origin, max_retries, allow_partial
            )
            drawn = self._admit(fresh)
            served.extend(fresh)
        self.pool_hits += len(hits)
        self.pool_misses += shortfall
        last_serial = max(
            (pooled.serial for pooled in (*hits, *drawn)), default=cursor
        )
        self._cursors[consumer] = max(cursor, last_serial)
        self._tracer.end(
            span,
            n_hit=len(hits),
            n_miss=shortfall,
            n_drawn=len(drawn),
        )
        return served

    def prefetch(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        consumers: tuple[str, ...] = (),
        max_retries: int = 8,
        allow_partial: bool = True,
    ) -> int:
        """Draw one coalesced walk batch covering ``n`` pooled samples.

        Tops the pool up to ``n`` servable samples without advancing any
        cursor — the batch that demand coalescing runs *before* the
        consuming queries evaluate. The ``shared_walk_batch`` span
        attributes the batch (and thus every walk under it) to each
        consuming query. Returns the number of fresh samples drawn.
        """
        if n < 0:
            raise SamplingError(f"cannot prefetch {n} samples")
        available = len(self._servable(database, -1))
        need = n - available
        if need <= 0:
            return 0
        span = self._tracer.span(
            SPAN_SHARED_WALK_BATCH,
            n_requested=n,
            n_pooled=available,
            consumers=",".join(consumers),
            n_consumers=len(consumers),
            origin=origin,
        )
        fresh = self._operator.sample_tuples(
            database, need, origin, max_retries, allow_partial
        )
        self._admit(fresh)
        self._tracer.end(span, n_drawn=len(fresh))
        return len(fresh)

    # ------------------------------------------------------------------
    # operator passthroughs
    # ------------------------------------------------------------------

    def sample_nodes(self, weight: WeightFunction, n: int, origin: int) -> list[int]:
        """Node sampling has no tuple-reuse semantics; straight through."""
        return self._operator.sample_nodes(weight, n, origin)


class PoolLease:
    """One query's handle on the shared pool.

    Duck-typed to the slice of :class:`SamplingOperator` the evaluators
    use (``sample_tuples`` / ``sample_nodes``), with the consumer identity
    bound in, so an evaluator cannot accidentally consume another query's
    cursor.
    """

    def __init__(self, pool: SamplePool, consumer: str) -> None:
        self._pool = pool
        self._consumer = consumer

    @property
    def pool(self) -> SamplePool:
        return self._pool

    @property
    def consumer(self) -> str:
        return self._consumer

    def sample_tuples(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        max_retries: int = 8,
        allow_partial: bool = False,
    ) -> list[TupleSample]:
        return self._pool.acquire(
            database,
            n,
            origin,
            consumer=self._consumer,
            max_retries=max_retries,
            allow_partial=allow_partial,
        )

    def sample_nodes(self, weight: WeightFunction, n: int, origin: int) -> list[int]:
        return self._pool.sample_nodes(weight, n, origin)
