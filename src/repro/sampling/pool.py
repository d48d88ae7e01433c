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
* the pool holds only the current **freshness epoch**'s draws: their
  tuple ids, in draw order, as one int64 array. The epoch is the
  simulated tick together with the partition plan's
  :attr:`~repro.network.partitions.PartitionPlan.epoch`, and
  :meth:`begin_epoch` drops the previous epoch's draws — the paper's
  static-during-occasion assumption. A cut or a heal therefore empties
  the pool as a new tick does: draws made over another reachable scope
  follow another stationary law;
* a write to the database ends the occasion as well: the pool holds its
  draws for one :attr:`~repro.db.relation.P2PDatabase.write_version`,
  and the first serve or prefetch after a write drops them, their
  cursors and their columns, so every pooled draw names a live tuple
  whose values are the ones it was drawn with;
* next to the ids the pool keeps, per
  :class:`~repro.db.aggregates.ValueSpec`, the ``(y, indicator)``
  columns, gathered once and sliced by every serve. Equal specs share one
  entry, so co-due queries that differ only in precision read one column.
  A column is read only at draws some serve returned, so a tuple whose
  expression cannot be evaluated fails the queries it is served to and
  no other;
* each consumer (query) holds a **cursor**: the position of the first
  draw it has not been served. :meth:`acquire` serves only draws at or
  beyond the cursor, so a query topping up sequentially never
  double-counts a draw, while two different queries overlap fully on the
  same pooled samples;
* only the marginal shortfall ``n_required - n_pooled`` is drawn fresh
  through the operator — the pool hit/miss split is counted
  (:attr:`pool_hits` / :attr:`pool_misses`); a session records each
  evaluation's share of it on that evaluation's ``snapshot_query`` span,
  from which the standard sink derives
  :class:`~repro.sim.metrics.RunMetrics`;
* :meth:`prefetch` draws one **coalesced walk batch** on behalf of several
  queries at once (the session's demand coalescing), recording a
  ``shared_walk_batch`` span attributing the batch to every consuming
  query.
"""

from __future__ import annotations

import numpy as np

from repro.db.aggregates import ValueSpec
from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.faults import FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.schema import SPAN_SHARED_WALK_BATCH
from repro.obs.tracer import NO_TIME, NULL_TRACER, Tracer
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.weights import WeightFunction

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)
_NO_VALUES = np.empty(0)
_NO_VALUES.setflags(write=False)


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
        #: the partition plan whose epoch is part of the freshness epoch
        self._partitions = partitions
        #: (tick, partition epoch) the held draws were made in
        self._epoch: tuple[int, int] = (NO_TIME, 0)
        #: the epoch's draws as tuple ids in draw order, and each
        #: consumer's cursor: the position of its first unserved draw
        self._ids = _NO_IDS
        self._cursors: dict[str, int] = {}
        #: the database and its write version the draws were made at, and
        #: per spec the position its columns start at and the
        #: ``(y, indicator)`` of the draws from that position on
        self._database: P2PDatabase | None = None
        self._version = -1
        self._columns: dict[ValueSpec, tuple[int, np.ndarray, np.ndarray]] = {}
        self.pool_hits = 0
        self.pool_misses = 0

    @property
    def operator(self) -> SamplingOperator:
        """The owned sampling operator (the leased raw substrate)."""
        return self._operator

    @property
    def n_pooled(self) -> int:
        """Draws held for the current epoch."""
        return len(self._ids)

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
        """Advance the freshness epoch to ``time``, dropping older draws.

        The epoch is ``time`` together with the partition plan's epoch, so
        a cut or a heal within a tick drops the draws as well. Idempotent
        while both hold. Every cursor restarts with the empty pool.
        """
        partitions = self._partitions
        epoch = (time, partitions.epoch if partitions is not None else 0)
        if epoch == self._epoch:
            return
        self._epoch = epoch
        self._clear()

    def _clear(self) -> None:
        self._ids = _NO_IDS
        self._cursors = {}
        self._columns = {}

    def reset(self) -> None:
        """Drop all pooled samples, cursors, and hit/miss counters."""
        self._clear()
        self.pool_hits = 0
        self.pool_misses = 0

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def _sync(self, database: P2PDatabase) -> None:
        """End the occasion after a write: drop draws, cursors and columns."""
        version = database.write_version
        if database is self._database and version == self._version:
            return
        self._database, self._version = database, version
        self._clear()

    def _spec_values(
        self,
        database: P2PDatabase,
        spec: ValueSpec,
        first: int,
        end: int,
        tuple_ids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(y, indicator)`` of the draws at positions ``first`` to ``end - 1``.

        ``tuple_ids`` are those draws' ids: the serve. Only the ones the
        spec's columns lack are read, so only tuples the serve returns are
        read. A serve from before the columns' start or past their end (a
        consumer that switched spec skipped draws the columns lack)
        restarts them at its own first position.
        """
        start, y, indicator = self._columns.get(
            spec, (first, _NO_VALUES, _NO_VALUES)
        )
        stop = start + y.size
        if not start <= first <= stop:
            start, stop, y, indicator = first, first, _NO_VALUES, _NO_VALUES
        if end > stop:
            more_y, more_indicator = spec.values(database, tuple_ids[stop - first :])
            y = np.concatenate([y, more_y])
            indicator = np.concatenate([indicator, more_indicator])
            self._columns[spec] = (start, y, indicator)
        served = slice(first - start, end - start)
        return y[served].copy(), indicator[served].copy()

    def acquire(
        self,
        database: P2PDatabase,
        spec: ValueSpec,
        n: int,
        origin: int,
        consumer: str = "default",
        allow_partial: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Serve ``n`` uniform tuple samples to ``consumer``, with their values.

        Pooled samples the consumer has not seen are served first (hits);
        only the marginal shortfall is drawn fresh through the operator
        (misses), and the fresh draws are pooled for later consumers. The
        consumer's cursor advances past everything it was handed, so
        repeated calls within one epoch never serve it the same draw
        twice. The serve is three new arrays, hits first: the int64 ids
        and their values under ``spec``, copied from the pool's columns.
        Writing into them touches neither the pool nor another consumer's
        batch.
        """
        if n < 0:
            raise SamplingError(f"cannot serve {n} samples")
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        self._sync(database)
        # the serve is the draws from the cursor on, topped up by fresh ones
        first = self._cursors.get(consumer, 0)
        end = min(first + n, self._ids.size)
        n_hit = end - first
        shortfall = n - n_hit
        if shortfall > 0:
            fresh = self._operator.sample_tuples(
                database, shortfall, origin, allow_partial
            )
            self._ids = np.concatenate([self._ids, fresh])
            end = self._ids.size
        self._cursors[consumer] = end
        self.pool_hits += n_hit
        self.pool_misses += shortfall
        tuple_ids = self._ids[first:end].copy()
        y, indicator = self._spec_values(database, spec, first, end, tuple_ids)
        return tuple_ids, y, indicator

    def prefetch(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        consumers: tuple[str, ...] = (),
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
        self._sync(database)
        available = self._ids.size
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
        fresh = self._operator.sample_tuples(database, need, origin, allow_partial)
        self._ids = np.concatenate([self._ids, fresh])
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

    A :class:`~repro.sampling.operator.SampleSource` (``sample_values`` /
    ``sample_nodes``) with the consumer identity bound in, so an evaluator
    cannot accidentally consume another query's cursor.
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

    def sample_values(
        self,
        database: P2PDatabase,
        spec: ValueSpec,
        n: int,
        origin: int,
        allow_partial: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._pool.acquire(
            database, spec, n, origin, self._consumer, allow_partial
        )

    def sample_nodes(self, weight: WeightFunction, n: int, origin: int) -> list[int]:
        return self._pool.sample_nodes(weight, n, origin)
