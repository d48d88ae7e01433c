"""A Digest peer running multiple continuous queries.

The paper's architecture (Section III, Figure 2) has each node operate its
own Digest instance answering "the continuous queries received from the
local user" — plural. :class:`DigestNode` is that per-peer instance:

* one shared :class:`~repro.sampling.pool.SamplePool` (owning the
  :class:`~repro.sampling.operator.SamplingOperator`) serves all
  registered queries, so the continued-walk pool and the spectral
  walk-length cache amortize across them;
* with ``share_samples=True``, queries evaluated at the same time step
  additionally *reuse tuple samples* through the pool's per-consumer
  cursors: samples are i.i.d. uniform tuples, so a sample drawn for one
  query is a perfectly valid sample for another query at the same
  occasion — and the cursor guarantees no query is ever served the same
  draw twice, keeping each query's own sample i.i.d. Each query's
  ``(epsilon, p)`` guarantee holds marginally; estimates of co-scheduled
  queries become correlated with each other, which is harmless for the
  per-query semantics and is the price of paying for each sample once
  instead of once per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import DigestEngine, EngineConfig
from repro.core.query import ContinuousQuery
from repro.core.result import RunningResult
from repro.core.snapshot import SnapshotEstimate
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.pool import SamplePool
from repro.sim.engine import PRIORITY_QUERY, SimulationEngine


@dataclass
class _RegisteredQuery:
    engine: DigestEngine
    continuous_query: ContinuousQuery


class DigestNode:
    """One peer's Digest instance, multiplexing continuous queries."""

    def __init__(
        self,
        graph: OverlayGraph,
        database: P2PDatabase,
        origin: int,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        sampler_config: SamplerConfig | None = None,
        share_samples: bool = True,
    ) -> None:
        if origin not in graph:
            raise QueryError(f"node {origin} is not in the overlay")
        self._graph = graph
        self._database = database
        self._origin = origin
        self._rng = rng
        self.ledger = ledger if ledger is not None else MessageLedger()
        self.pool = SamplePool(graph, rng, self.ledger, sampler_config)
        self._share_samples = share_samples
        self._queries: dict[int, _RegisteredQuery] = {}
        self._next_id = 0

    @property
    def origin(self) -> int:
        return self._origin

    @property
    def operator(self) -> SamplingOperator:
        return self.pool.operator

    def query_ids(self) -> list[int]:
        return sorted(self._queries)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        continuous_query: ContinuousQuery,
        config: EngineConfig | None = None,
    ) -> int:
        """Register a continuous query; returns its query id."""
        query_id = self._next_id
        operator = (
            self.pool.lease(f"q{query_id}")
            if self._share_samples
            else self.pool.operator
        )
        engine = DigestEngine(
            self._graph,
            self._database,
            continuous_query,
            self._origin,
            self._rng,
            ledger=self.ledger,
            config=config,
            operator=operator,
        )
        self._next_id += 1
        self._queries[query_id] = _RegisteredQuery(engine, continuous_query)
        return query_id

    def deregister(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise QueryError(f"no query registered under id {query_id}")
        del self._queries[query_id]

    def engine(self, query_id: int) -> DigestEngine:
        try:
            return self._queries[query_id].engine
        except KeyError:
            raise QueryError(f"no query registered under id {query_id}") from None

    def result(self, query_id: int) -> RunningResult:
        return self.engine(query_id).result

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self, time: int) -> dict[int, SnapshotEstimate]:
        """Advance every registered query to ``time``.

        Returns the snapshot estimates of the queries that executed a
        snapshot this step (queries whose scheduler skipped the step are
        absent).
        """
        self.pool.begin_epoch(time)
        executed: dict[int, SnapshotEstimate] = {}
        for query_id in sorted(self._queries):
            estimate = self._queries[query_id].engine.step(time)
            if estimate is not None:
                executed[query_id] = estimate
        return executed

    def attach(self, simulation: SimulationEngine, until: int) -> None:
        """Schedule this node's stepping on a simulation engine."""
        simulation.schedule_every(
            1, lambda t: self.step(t), PRIORITY_QUERY, until=until
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def total_samples(self) -> int:
        return sum(q.engine.metrics.samples_total for q in self._queries.values())

    def total_fresh_samples(self) -> int:
        return sum(q.engine.metrics.samples_fresh for q in self._queries.values())

    def samples_saved_by_sharing(self) -> int:
        """Samples served from the shared pool instead of drawn fresh."""
        return self.pool.pool_hits
