"""The multi-query Digest session: many queries, one sampling substrate.

The paper packages sampling as a database operator (Section III) exactly
so its cost — Metropolis walks over the overlay — can be amortized across
queries. :class:`DigestSession` is the layer that does the amortizing:

* it owns the overlay-facing substrate once per querying node — one
  :class:`~repro.network.messaging.MessageLedger`, one tracer, one
  :class:`~repro.sampling.pool.SamplePool` (which in turn owns the
  :class:`~repro.sampling.operator.SamplingOperator`);
* each registered :class:`~repro.core.query.ContinuousQuery` becomes a
  :class:`QueryRuntime` — its evaluator, scheduler, running result,
  history, and subscriptions — whose evaluator draws through a
  :class:`~repro.sampling.pool.PoolLease` so co-resident queries reuse
  each other's same-occasion samples (each query's ``(epsilon, p)``
  contract holds marginally; see :mod:`repro.sampling.pool`);
* when two or more queries come due at the same tick, the session asks
  each evaluator to *plan* its fresh-sample demand (``plan_demand``) and,
  if at least two forecast fresh samples, prefetches one shared walk
  batch of the **maximum** forecast (not the sum) into the pool before
  any query evaluates. The batch's ``shared_walk_batch`` span attributes
  it to every consuming query.

A single query is the one-entry case: register it with :meth:`add_query`
and read its estimate from the dict :meth:`DigestSession.step` returns.
Every algorithm combination of the paper's evaluation is an
:class:`EngineConfig`:

=============  ======================  =========================
Paper name     scheduler               evaluator
=============  ======================  =========================
ALL + INDEP    ``"all"``               ``"independent"``
ALL + RPT      ``"all"``               ``"repeated"``
PRED-k + INDEP ``"pred"`` (k points)   ``"independent"``
PRED-k + RPT   ``"pred"`` (k points)   ``"repeated"``  (= Digest)
=============  ======================  =========================

Determinism: queries evaluate in sorted query-id order against one shared
RNG, so a run is reproducible from its seed. A one-query session draws
exactly what the pre-session single-query engine drew (pinned by
``tests/core/test_engine_compat.py``): prefetching only engages at two or
more co-due queries, and a cold pool passes single-query requests
straight through to the operator. Under a partition plan the session
keeps no scope state: the plan's epoch keys the pool's freshness and the
operator's walk length, and while a cut is open each estimate is
re-scoped to the origin's reachable region. A plan that never opens
therefore draws exactly what a plan-less session draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterator

import numpy as np

from repro.core.independent import IndependentEvaluator
from repro.core.query import ContinuousQuery
from repro.core.repeated import RepeatedEvaluator
from repro.core.result import NotificationFilter, RunningResult, UpdateRecord
from repro.core.scheduler import (
    ContinuousScheduler,
    ExtrapolationScheduler,
    SnapshotScheduler,
)
from repro.core.snapshot import SnapshotEstimate
from repro.db.relation import P2PDatabase
from repro.errors import QueryError
from repro.network.faults import FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.audit import META_PROMISES, GuaranteeAuditor
from repro.obs.live import META_FINISHED_AT, LivePipeline, WindowConfig
from repro.obs.schema import SPAN_SNAPSHOT_QUERY
from repro.obs.tracer import RunMetricsSink, SinkTracer
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool
from repro.sim.engine import PRIORITY_QUERY, SimulationEngine
from repro.sim.metrics import RunMetrics

#: maps a query id to the query's true aggregate at the step's time
Oracle = Callable[[str], float]


@dataclass(frozen=True)
class EngineConfig:
    """Algorithm selection and tuning for one continuous query.

    ``scheduler`` is ``"all"`` or ``"pred"``; ``pred_points`` is the ``k``
    of PRED-k. ``evaluator`` is ``"independent"`` or ``"repeated"``.
    ``oracle_population=True`` uses the database's true tuple count to
    scale SUM/COUNT (the experiments' setting); ``False`` estimates it by
    capture-recapture sampling each occasion.

    ``forward_revision=True`` (repeated evaluator only) retrospectively
    amends each result update once the next occasion's data allows a
    forward-regression revision (the paper's Section VIII extension; see
    :mod:`repro.core.forward`).
    """

    scheduler: str = "pred"
    evaluator: str = "repeated"
    pred_points: int = 3
    period: int = 1
    max_horizon: int = 64
    safety_factor: float = 1.0
    oracle_population: bool = True
    forward_revision: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in ("all", "pred"):
            raise QueryError(
                f"scheduler must be 'all' or 'pred', got {self.scheduler!r}"
            )
        if self.evaluator not in ("independent", "repeated"):
            raise QueryError(
                f"evaluator must be 'independent' or 'repeated', "
                f"got {self.evaluator!r}"
            )


def _free_id(n: int, taken: Container[str]) -> str:
    """The first ``q<m>`` with ``m >= n`` that is not in ``taken``."""
    while f"q{n}" in taken:
        n += 1
    return f"q{n}"


@dataclass(frozen=True)
class QuerySpec:
    """One entry of a :class:`QuerySet`: the query plus its algorithms."""

    query_id: str
    continuous_query: ContinuousQuery
    config: EngineConfig


class QuerySet:
    """An ordered, uniquely-keyed collection of continuous queries.

    The declarative input of a multi-query session: build one (by hand or
    from a spec file via :func:`repro.cli.load_query_set`), then hand it
    to :meth:`DigestSession.add_query_set`.
    """

    def __init__(self) -> None:
        self._specs: list[QuerySpec] = []

    def add(
        self,
        continuous_query: ContinuousQuery,
        config: EngineConfig | None = None,
        query_id: str | None = None,
    ) -> str:
        """Append a query; returns its (possibly auto-assigned) id.

        Auto-assigned ids are ``q<n>`` with ``n`` the set's size, skipping
        any id already taken explicitly.
        """
        taken = {spec.query_id for spec in self._specs}
        assigned = query_id if query_id is not None else _free_id(
            len(self._specs), taken
        )
        if assigned in taken:
            raise QueryError(f"duplicate query id {assigned!r}")
        self._specs.append(
            QuerySpec(
                query_id=assigned,
                continuous_query=continuous_query,
                config=config if config is not None else EngineConfig(),
            )
        )
        return assigned

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self._specs)


class QueryRuntime:
    """One query's live state inside a session (created by the session)."""

    def __init__(
        self,
        query_id: str,
        continuous_query: ContinuousQuery,
        config: EngineConfig,
        evaluator: IndependentEvaluator | RepeatedEvaluator,
        scheduler: SnapshotScheduler,
    ) -> None:
        self.query_id = query_id
        self.continuous_query = continuous_query
        self.config = config
        self.evaluator = evaluator
        self.scheduler = scheduler
        self.result = RunningResult()
        self.metrics = RunMetrics()
        self.history: list[tuple[int, float]] = []
        self.subscriptions: list[NotificationFilter] = []
        self.next_due = continuous_query.start_time
        self.next_trigger = "bootstrap"
        #: derives :attr:`metrics` from this query's ``snapshot_query``
        #: spans, which the session hands it as each one ends
        self.metrics_sink = RunMetricsSink(self.metrics)

    def due_at(self, time: int) -> bool:
        """Is a snapshot query due for this runtime at ``time``?"""
        return self.continuous_query.active_at(time) and time >= self.next_due

    def finished(self) -> bool:
        """No further snapshot will ever run (the query's window closed)."""
        end = self.continuous_query.end_time
        return end is not None and self.next_due > end


class DigestSession:
    """Many continuous queries answered at one querying node.

    ``faults`` injects the failure model into the shared operator;
    ``partitions`` scopes every step to the origin's reachable region.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        database: P2PDatabase,
        origin: int,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        sampler_config: SamplerConfig | None = None,
        faults: FaultPlan | None = None,
        tracer: SinkTracer | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        if origin not in graph:
            raise QueryError(f"querying node {origin} is not in the overlay")
        self._graph = graph
        self._database = database
        self._origin = origin
        self._rng = rng
        self.ledger = ledger if ledger is not None else MessageLedger()
        self.metrics = RunMetrics()
        self.tracer = tracer if tracer is not None else SinkTracer()
        self.tracer.add_sink(RunMetricsSink(self.metrics))
        #: guarantee auditor of every ended snapshot span; it sits before
        #: any live pipeline, so a window's burn-rate signals include the
        #: snapshot that closed the window
        self.auditor = GuaranteeAuditor()
        self.tracer.add_sink(self.auditor)
        #: simulated time of the step in progress; wired into the tracer
        #: (unless the caller supplied its own clock) so untimed records
        #: deep inside the sampling stack are stamped with real sim time
        #: — the live pipeline can only window timed records
        self._sim_now = 0
        if not self.tracer.has_clock:
            self.tracer.set_clock(lambda: self._sim_now)
        #: correlated-failure plan; while it is active, estimates are
        #: re-scoped to the origin's reachable region
        self._partitions = partitions
        self.pool = SamplePool(
            graph,
            rng,
            self.ledger,
            sampler_config,
            faults=faults,
            tracer=self.tracer,
            partitions=partitions,
        )
        self._runtimes: dict[str, QueryRuntime] = {}
        self._next_auto_id = 0
        #: coalesced prefetch batches issued (>= 2 co-due queries)
        self.batches_coalesced = 0
        self.live_pipeline: LivePipeline | None = None
        self.alert_engine: AlertEngine | None = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    @property
    def origin(self) -> int:
        return self._origin

    @property
    def database(self) -> P2PDatabase:
        return self._database

    def query_ids(self) -> list[str]:
        return sorted(self._runtimes)

    def runtime(self, query_id: str) -> QueryRuntime:
        try:
            return self._runtimes[query_id]
        except KeyError:
            raise QueryError(
                f"no query registered under id {query_id!r}"
            ) from None

    def add_query(
        self,
        continuous_query: ContinuousQuery,
        config: EngineConfig | None = None,
        query_id: str | None = None,
    ) -> str:
        """Register a continuous query; returns its query id.

        The query's evaluator draws through a pool lease keyed by the
        query id. Auto-assigned ids are ``q<n>`` with ``n`` counting
        registrations, skipping any id already taken explicitly.
        """
        if query_id is None:
            query_id = _free_id(self._next_auto_id, self._runtimes)
        self._validate(continuous_query, query_id, self._runtimes)
        self._next_auto_id += 1
        database = self._database
        resolved = config if config is not None else EngineConfig()
        source = self.pool.lease(query_id)

        population_provider = None
        if not resolved.oracle_population:
            from repro.sampling.size_estimation import estimate_relation_size

            def population_provider() -> float:
                return estimate_relation_size(source, database, self._origin)

        evaluator: IndependentEvaluator | RepeatedEvaluator
        if resolved.evaluator == "independent":
            evaluator = IndependentEvaluator(
                database,
                source,
                self._origin,
                continuous_query.query,
                population_size_provider=population_provider,
            )
        else:
            evaluator = RepeatedEvaluator(
                database,
                source,
                self._origin,
                continuous_query.query,
                self._rng,
                population_size_provider=population_provider,
            )

        scheduler: SnapshotScheduler
        if resolved.scheduler == "all":
            scheduler = ContinuousScheduler(period=resolved.period)
        else:
            scheduler = ExtrapolationScheduler(
                delta=continuous_query.precision.delta,
                n_points=resolved.pred_points,
                period=resolved.period,
                max_horizon=resolved.max_horizon,
                safety_factor=resolved.safety_factor,
            )
        runtime = QueryRuntime(
            query_id=query_id,
            continuous_query=continuous_query,
            config=resolved,
            evaluator=evaluator,
            scheduler=scheduler,
        )
        self.auditor.register(
            query_id,
            continuous_query.precision.epsilon,
            continuous_query.precision.confidence,
        )
        # recorded so a replayed trace can rebuild the auditor (and hence
        # the audit_* burn-rate signals) without this session
        promises = self.tracer.meta.setdefault(META_PROMISES, {})
        promises[query_id] = {
            "epsilon": continuous_query.precision.epsilon,
            "confidence": continuous_query.precision.confidence,
        }
        self._runtimes[query_id] = runtime
        return query_id

    def _validate(
        self,
        continuous_query: ContinuousQuery,
        query_id: str,
        taken: Container[str],
    ) -> None:
        """Raise unless the query fits the schema and ``query_id`` is free."""
        schema = self._database.schema
        schema.validate_expression(continuous_query.query.expression)
        if continuous_query.query.predicate is not None:
            schema.validate_predicate(continuous_query.query.predicate)
        if query_id in taken:
            raise QueryError(f"duplicate query id {query_id!r}")
        if "," in query_id:
            raise QueryError(
                f"query id {query_id!r} may not contain ',' (reserved for "
                f"trace attribution lists)"
            )

    def add_query_set(self, query_set: QuerySet) -> list[str]:
        """Register every query of a :class:`QuerySet`, in order.

        All-or-nothing: every entry is validated (schema, id rules,
        duplicates within the set and against the session) before the
        first one registers, so a bad set leaves the session unchanged.
        """
        taken = set(self._runtimes)
        for spec in query_set:
            self._validate(spec.continuous_query, spec.query_id, taken)
            taken.add(spec.query_id)
        return [
            self.add_query(
                spec.continuous_query,
                config=spec.config,
                query_id=spec.query_id,
            )
            for spec in query_set
        ]

    def subscribe(
        self,
        query_id: str,
        callback: Callable[[UpdateRecord], None],
        delta: float | None = None,
    ) -> NotificationFilter:
        """Register a change-notification callback on one query.

        ``delta`` defaults to that query's own resolution parameter — the
        paper's intended user experience. The filter fires on the first
        result and then only when the estimate has moved by >= delta.
        """
        runtime = self.runtime(query_id)
        threshold = (
            delta
            if delta is not None
            else runtime.continuous_query.precision.delta
        )
        subscription = NotificationFilter(threshold, callback)
        runtime.subscriptions.append(subscription)
        return subscription

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(
        self, time: int, truth: Oracle | None = None
    ) -> dict[str, SnapshotEstimate]:
        """Advance every registered query to ``time``.

        Opens a fresh pool epoch (honoring the static-during-occasion
        assumption), coalesces the fresh-sample demands of co-due queries
        into one prefetched walk batch when at least two are due, then
        evaluates the due queries in sorted query-id order. Returns the
        snapshot estimates of the queries that executed this step.

        ``truth``, when given, is called once per answered query and its
        value recorded on the query's ``snapshot_query`` span, where
        :attr:`auditor` judges the answer against it.
        """
        self._sim_now = time
        self.pool.begin_epoch(time)
        partitions = self._partitions
        fraction = (
            partitions.reachable_fraction(self._graph, self._origin)
            if partitions is not None and partitions.active
            else 1.0
        )
        due = [
            self._runtimes[qid]
            for qid in sorted(self._runtimes)
            if self._runtimes[qid].due_at(time)
        ]
        if len(due) >= 2:
            self._prefetch_for(due)
        executed: dict[str, SnapshotEstimate] = {}
        for runtime in due:
            executed[runtime.query_id] = self._run_snapshot(
                runtime, time, fraction, truth
            )
        return executed

    def _prefetch_for(self, due: list[QueryRuntime]) -> None:
        """Draw the coalesced walk batch covering the due queries' demands.

        Walks are fungible, so the batch needs the maximum forecast, not
        the sum; its consumers are the queries forecasting any fresh
        samples, in query-id order, and with fewer than two there is
        nothing to share. Demands are forecasts — a low forecast is topped
        up by the evaluator itself, a high one leaves pooled samples other
        queries may still consume within the epoch.
        """
        forecasts = {
            runtime.query_id: runtime.evaluator.plan_demand(
                runtime.continuous_query.precision.epsilon,
                runtime.continuous_query.precision.confidence,
            )
            for runtime in due
        }
        consumers = tuple(qid for qid, n in forecasts.items() if n > 0)
        if len(consumers) < 2:
            return
        self.batches_coalesced += 1
        self.pool.prefetch(
            self._database,
            max(forecasts.values()),
            self._origin,
            consumers=consumers,
            allow_partial=True,
        )

    def _run_snapshot(
        self, runtime: QueryRuntime, time: int, fraction: float, truth: Oracle | None
    ) -> SnapshotEstimate:
        """Execute one query's snapshot at ``time`` (the engine core)."""
        precision = runtime.continuous_query.precision
        span = self.tracer.span(
            SPAN_SNAPSHOT_QUERY,
            time=time,
            trigger=runtime.next_trigger,
            query=runtime.query_id,
        )
        pool = self.pool
        hits, misses = pool.pool_hits, pool.pool_misses
        with self.tracer.profile("snapshot_evaluate"):
            estimate = runtime.evaluator.evaluate(
                time, precision.epsilon, precision.confidence
            )
        if fraction < 1.0:
            estimate = self._rescope_estimate(runtime, estimate, fraction)
        if (
            runtime.config.forward_revision
            and isinstance(runtime.evaluator, RepeatedEvaluator)
            and runtime.evaluator.last_revision is not None
            and runtime.history
        ):
            revision = runtime.evaluator.last_revision
            previous_time = runtime.history[-1][0]
            runtime.result.amend(previous_time, revision.revised * estimate.scale)
        record = UpdateRecord(
            time=time,
            estimate=estimate.aggregate,
            n_samples=estimate.n_total,
            n_fresh=estimate.n_fresh,
        )
        runtime.result.update(record)
        for subscription in runtime.subscriptions:
            subscription.offer(record)
        runtime.history.append((time, estimate.aggregate))
        # counters (snapshot_queries, samples_*, degraded_estimates and
        # the pool's hit/miss split of this evaluation) are derived from
        # this span by a RunMetricsSink — session-wide as a tracer sink,
        # query-scoped by the runtime's own; the auditor judges the same
        # span.
        if estimate.reachable_fraction < 1.0:
            # only set on actually-partitioned snapshots so partition-free
            # traces stay byte-identical to the pre-partition format
            span.set(reachable_fraction=estimate.reachable_fraction)
        if estimate.achieved_epsilon is not None:
            # likewise: the honest re-statements exist only on degraded
            # estimates, so clean traces keep the historical byte layout
            span.set(achieved_epsilon=estimate.achieved_epsilon)
        if estimate.achieved_confidence is not None:
            span.set(achieved_confidence=estimate.achieved_confidence)
        if truth is not None:
            span.set(truth=float(truth(runtime.query_id)))
        self.tracer.end(
            span,
            time=time,
            aggregate=estimate.aggregate,
            n_total=estimate.n_total,
            n_fresh=estimate.n_fresh,
            n_retained=estimate.n_retained,
            degraded=estimate.degraded,
            n_hit=pool.pool_hits - hits,
            n_miss=pool.pool_misses - misses,
        )
        runtime.metrics_sink.on_span_end(span)
        runtime.next_due = runtime.scheduler.next_time(runtime.history, time)
        runtime.next_trigger = runtime.scheduler.last_decision
        return estimate

    def _rescope_estimate(
        self,
        runtime: QueryRuntime,
        estimate: SnapshotEstimate,
        fraction: float,
    ) -> SnapshotEstimate:
        """Restate an estimate over the reachable sub-population.

        During a partition the walk mixes over the origin's reachable
        region only, so the mean estimates the *reachable* population's
        mean. Scaling it by the full-relation tuple count would silently
        fabricate coverage of nodes no message can reach; instead the
        aggregate, population size, and Eq. 5 re-statements
        (``achieved_epsilon`` / ``achieved_confidence``) are re-derived
        against the reachable tuple count and the estimate is flagged
        degraded with ``reachable_fraction`` recorded.
        """
        assert self._partitions is not None, "only partitioned steps re-scope"
        reachable_population = self._database.tuples_held(
            self._partitions.reachable(self._graph, self._origin)
        )
        precision = runtime.continuous_query.precision
        return SnapshotEstimate.from_mean(
            runtime.continuous_query.query.op,
            precision.epsilon,
            precision.confidence,
            time=estimate.time,
            mean=estimate.mean,
            variance=estimate.variance,
            n_fresh=estimate.n_fresh,
            n_retained=estimate.n_retained,
            population_size=reachable_population,
            degraded=True,
            reachable_fraction=fraction,
        )

    # ------------------------------------------------------------------
    # live observability
    # ------------------------------------------------------------------

    def attach_live(
        self,
        rules: list[AlertRule] | tuple[AlertRule, ...] = (),
        window_config: WindowConfig | None = None,
    ) -> tuple[LivePipeline, AlertEngine]:
        """Attach the live analytics pipeline and alert engine.

        The pipeline becomes one more sink on the session's tracer (no
        JSONL round-trip); the guarantee auditor contributes its
        ``audit_burn_rate`` / ``audit_violation_fraction`` signals to
        every window, and the engine emits alert transitions back
        through the same tracer — so they land in the recorded trace and
        in the :class:`~repro.obs.tracer.RunMetricsSink` counters. Call
        :meth:`finish_live` at end of run to close the final window.
        """
        if self.live_pipeline is not None:
            raise QueryError("live pipeline already attached")
        pipeline = LivePipeline(window_config)
        pipeline.add_contributor(self.auditor.signals)
        engine = AlertEngine(pipeline, list(rules), tracer=self.tracer)
        self.tracer.add_sink(pipeline)
        self.live_pipeline = pipeline
        self.alert_engine = engine
        return pipeline, engine

    def finish_live(self, time: int) -> None:
        """Close the live pipeline's final window at the run's last tick.

        Also stamps the finish time into the tracer's metadata
        (:data:`~repro.obs.live.META_FINISHED_AT`) so a replayed trace
        closes its final window — and fires any resulting transitions —
        at the same simulated time.
        """
        if self.live_pipeline is None:
            return
        self.tracer.meta[META_FINISHED_AT] = time
        self.live_pipeline.finish(time)

    def next_due(self) -> int | None:
        """Earliest upcoming snapshot time across still-active queries."""
        upcoming = [
            runtime.next_due
            for runtime in self._runtimes.values()
            if not runtime.finished()
        ]
        return min(upcoming) if upcoming else None

    def attach(self, simulation: SimulationEngine) -> None:
        """Schedule the session's stepping on a simulation engine.

        Steps sparsely: one callback at the earliest due time across
        queries, rescheduled after each step. Runs at
        :data:`~repro.sim.engine.PRIORITY_QUERY` (after data updates and
        churn), honoring the static-during-occasion assumption.
        """

        def run(time: int) -> None:
            self.step(time)
            upcoming = self.next_due()
            if upcoming is not None:
                simulation.schedule_at(upcoming, run, PRIORITY_QUERY)

        starts = [
            max(runtime.continuous_query.start_time, simulation.now)
            for runtime in self._runtimes.values()
        ]
        if starts:
            simulation.schedule_at(min(starts), run, PRIORITY_QUERY)
