"""Tests for the multi-query Digest session (pool + coalesced batches)."""

import numpy as np
import pytest

from repro.core.independent import PILOT_SIZE
from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig, QuerySet
from repro.db.aggregates import exact_aggregate
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.analysis import (
    counter_dict,
    shared_walk_attribution,
    verify_trace_consistency,
)
from repro.obs.tracer import RunMetricsSink, SinkTracer
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics


def _world(seed=0, n_nodes=36):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("mem", "cpu")), graph.nodes())
    for node in graph.nodes():
        for _ in range(5):
            database.insert(
                node,
                {"mem": float(rng.normal(50, 8)), "cpu": float(rng.uniform(0, 4))},
            )
    return graph, database


def _query(text="SELECT AVG(mem) FROM R", delta=4.0, epsilon=2.0, duration=10):
    return ContinuousQuery(
        parse_query(text), Precision(delta, epsilon, 0.95), duration=duration
    )


_ALL_INDEP = EngineConfig(scheduler="all", evaluator="independent")


class TestRegistration:
    def test_auto_ids_and_lookup(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        assert session.add_query(_query(), _ALL_INDEP) == "q0"
        assert session.add_query(_query(), _ALL_INDEP) == "q1"
        assert session.query_ids() == ["q0", "q1"]
        precision = session.runtime("q0").continuous_query.precision
        assert precision.epsilon == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(QueryError):
            session.runtime("nope")

    def test_duplicate_and_comma_ids_rejected(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        session.add_query(_query(), query_id="load")
        with pytest.raises(QueryError):
            session.add_query(_query(), query_id="load")
        with pytest.raises(QueryError):
            session.add_query(_query(), query_id="a,b")

    def test_unknown_origin_rejected(self):
        graph, database = _world()
        with pytest.raises(QueryError):
            DigestSession(graph, database, 10**6, np.random.default_rng(0))

    def test_query_set_registration(self):
        queries = QuerySet()
        assert queries.add(_query()) == "q0"
        assert queries.add(_query(), query_id="sum") == "sum"
        with pytest.raises(QueryError):
            queries.add(_query(), query_id="sum")
        assert len(queries) == 2

        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        assert session.add_query_set(queries) == ["q0", "sum"]
        assert session.query_ids() == ["q0", "sum"]


class TestSharedSampling:
    def test_coalesced_session_is_cheaper_than_solo_engines(self):
        """Co-resident overlapping queries share walks: >=30% fewer messages.

        Summed over ten fixed world/rng seed pairs: one pair's ratio
        ranges from about 0.38 to 0.70, so a single pinned pair only
        tests the draw; the sum tests the mechanism (about 0.5).
        """
        epsilons = (1.5, 2.0, 2.5, 3.0)
        shared_cost = solo_cost = 0
        for seed in range(10):
            graph, database = _world(seed=seed)
            session = DigestSession(
                graph, database, 0, np.random.default_rng([seed, 0])
            )
            for eps in epsilons:
                session.add_query(_query(epsilon=eps, duration=5), _ALL_INDEP)
            for t in range(5):
                session.step(t)
            shared_cost += session.ledger.total
            assert session.batches_coalesced > 0
            assert session.pool.pool_hits > 0

            for i, eps in enumerate(epsilons):
                graph, database = _world(seed=seed)
                solo = DigestSession(
                    graph, database, 0, np.random.default_rng([seed, 1 + i])
                )
                solo.add_query(_query(epsilon=eps, duration=5), _ALL_INDEP)
                for t in range(5):
                    solo.step(t)
                solo_cost += solo.ledger.total

        assert shared_cost < 0.7 * solo_cost

    def test_every_query_stays_accurate(self):
        graph, database = _world(seed=5)
        session = DigestSession(graph, database, 0, np.random.default_rng(6))
        for eps in (1.5, 2.0, 2.5):
            session.add_query(_query(epsilon=eps, duration=6), _ALL_INDEP)
        truth = float(database.exact_values(Expression("mem")).mean())
        for t in range(6):
            executed = session.step(t)
            assert len(executed) == 3
            for estimate in executed.values():
                assert abs(estimate.aggregate - truth) < 4.0

    def test_mixed_aggregates_share_the_pool(self):
        """Uniform tuple samples are query-agnostic: AVG and SUM share."""
        graph, database = _world(seed=7)
        session = DigestSession(graph, database, 0, np.random.default_rng(8))
        session.add_query(_query(duration=3), _ALL_INDEP)
        session.add_query(
            _query("SELECT SUM(mem) FROM R", epsilon=400.0, duration=3),
            _ALL_INDEP,
        )
        for t in range(3):
            session.step(t)
        assert session.pool.pool_hits > 0

    @pytest.mark.parametrize("evaluator", ["independent", "repeated"])
    def test_constant_expressions_get_one_value_per_sample(self, evaluator):
        """COUNT(1) and SUM(2) read no attribute, yet every sample counts."""
        graph, database = _world(seed=4)
        session = DigestSession(graph, database, 0, np.random.default_rng(5))
        config = EngineConfig(scheduler="all", evaluator=evaluator)
        queries = {}
        for text in ("SELECT COUNT(1) FROM R", "SELECT SUM(2) FROM R"):
            qid = session.add_query(_query(text, epsilon=5.0, duration=3), config)
            queries[qid] = parse_query(text)
        fresh = dict.fromkeys(queries, 0)
        for t in range(3):
            for qid, estimate in session.step(t).items():
                query = queries[qid]
                truth = exact_aggregate(database, query.op, query.expression)
                assert abs(estimate.aggregate - truth) <= 5.0
                assert estimate.n_total >= PILOT_SIZE
                fresh[qid] += estimate.n_fresh
        for qid, n_fresh in fresh.items():
            metrics = session.runtime(qid).metrics
            assert n_fresh == metrics.pool_hits + metrics.pool_misses

    def test_single_query_session_never_coalesces(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        session.add_query(_query(duration=5), _ALL_INDEP)
        for t in range(5):
            session.step(t)
        assert session.batches_coalesced == 0

    def test_notifications_are_per_query(self):
        graph, database = _world(seed=9)
        session = DigestSession(graph, database, 0, np.random.default_rng(10))
        qid = session.add_query(_query(duration=3), _ALL_INDEP)
        session.add_query(_query(duration=3), _ALL_INDEP)
        fired = []
        session.subscribe(qid, fired.append)
        session.step(0)
        assert len(fired) == 1
        assert fired[0].time == 0


class TestTruthAudit:
    def test_clean_answers_missing_the_truth_burn_nothing_but_cover_nothing(self):
        # the burn rate judges the evaluator's own flags; only the truth
        # on the span shows that every one of these answers missed
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        for _ in range(2):
            session.add_query(_query(), _ALL_INDEP)
        for t in range(10):
            session.step(t, truth=lambda _query_id: 1e9)
        assert session.metrics.degraded_estimates == 0
        for verdict in session.auditor.verdicts().values():
            assert (verdict.snapshots, verdict.violations) == (10, 0)
            assert verdict.burn_rate == 0.0
            assert verdict.ok
            assert (verdict.coverage.within, verdict.coverage.answers) == (0, 10)
            assert verdict.coverage.upper_bound < verdict.promised_confidence
        # two co-due queries per tick are one trial, not two
        overall = session.auditor.coverage()
        assert (overall.answers, overall.within, overall.trials) == (20, 0, 10)


class TestCoalescing:
    """The co-due rule: one batch of the maximum forecast, not the sum."""

    def _first_tick(self, monkeypatch, forecasts):
        graph, database = _world(seed=3)
        tracer = SinkTracer(record=True)
        session = DigestSession(
            graph, database, 0, np.random.default_rng(4), tracer=tracer
        )
        for forecast in forecasts:
            qid = session.add_query(_query(duration=2), _ALL_INDEP)
            monkeypatch.setattr(
                session.runtime(qid).evaluator,
                "plan_demand",
                lambda epsilon, confidence, n=forecast: n,
            )
        session.step(0)
        batches = list(tracer.trace().spans_named("shared_walk_batch"))
        return session, batches

    def test_batch_is_the_maximum_forecast(self, monkeypatch):
        session, batches = self._first_tick(monkeypatch, (30, 50, 20))
        assert session.batches_coalesced == 1
        [batch] = batches
        assert batch.attrs["n_requested"] == 50
        assert batch.attrs["consumers"] == "q0,q1,q2"

    def test_consumers_are_the_positive_forecasts(self, monkeypatch):
        session, batches = self._first_tick(monkeypatch, (0, 40, 25))
        [batch] = batches
        assert batch.attrs["n_requested"] == 40
        assert batch.attrs["consumers"] == "q1,q2"
        assert batch.attrs["n_consumers"] == 2

    def test_fewer_than_two_positive_forecasts_share_nothing(
        self, monkeypatch
    ):
        session, batches = self._first_tick(monkeypatch, (0, 40, 0))
        assert batches == []
        assert session.batches_coalesced == 0


class TestPerQueryMetrics:
    def test_snapshot_counts_are_scoped(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        q_all = session.add_query(_query(duration=20), _ALL_INDEP)
        q_pred = session.add_query(
            _query(duration=20, delta=8.0),
            EngineConfig(scheduler="pred", evaluator="independent"),
        )
        for t in range(20):
            session.step(t)
        all_runs = session.runtime(q_all).metrics.snapshot_queries
        pred_runs = session.runtime(q_pred).metrics.snapshot_queries
        assert all_runs == 20
        assert pred_runs < 20
        assert session.metrics.snapshot_queries == all_runs + pred_runs

    def test_pool_counters_decompose_across_queries(self):
        graph, database = _world(seed=2)
        session = DigestSession(graph, database, 0, np.random.default_rng(3))
        qids = [
            session.add_query(_query(epsilon=eps, duration=4), _ALL_INDEP)
            for eps in (1.5, 2.0, 2.5)
        ]
        for t in range(4):
            session.step(t)
        per_query_hits = sum(
            session.runtime(qid).metrics.pool_hits for qid in qids
        )
        per_query_misses = sum(
            session.runtime(qid).metrics.pool_misses for qid in qids
        )
        assert per_query_hits == session.metrics.pool_hits
        assert per_query_misses == session.metrics.pool_misses
        assert session.metrics.pool_hits == session.pool.pool_hits
        assert session.metrics.pool_misses == session.pool.pool_misses


class TestTraceAttribution:
    def _faulted_traced_run(self):
        graph, database = _world(seed=4)
        tracer = SinkTracer(record=True, meta={"experiment": "multi-query-faults"})
        faults = FaultPlan(
            FaultConfig(message_loss=0.01), np.random.default_rng(99)
        )
        session = DigestSession(
            graph,
            database,
            0,
            np.random.default_rng(5),
            faults=faults,
            tracer=tracer,
        )
        qids = [
            session.add_query(_query(epsilon=eps, duration=4), _ALL_INDEP)
            for eps in (1.5, 2.5)
        ]
        for t in range(4):
            session.step(t)
        return session, tracer, qids

    def test_trace_accounts_for_faulted_multi_query_run(self):
        """The ISSUE acceptance gate: trace == live, exactly, under faults."""
        session, tracer, _ = self._faulted_traced_run()
        assert verify_trace_consistency(tracer.trace(), session.metrics) == []

    def test_one_sink_matches_the_per_query_filter(self):
        """Every query's metrics are what a filter of its own would derive.

        Sixteen queries share the session's one metrics sink; each query's
        counters must equal those of a per-query filter applied to the
        recorded trace: its ``snapshot_query`` spans.
        """
        graph, database = _world(seed=6)
        tracer = SinkTracer(record=True)
        faults = FaultPlan(
            FaultConfig(message_loss=0.01), np.random.default_rng(7)
        )
        session = DigestSession(
            graph,
            database,
            0,
            np.random.default_rng(8),
            faults=faults,
            tracer=tracer,
        )
        configs = (_ALL_INDEP, EngineConfig(scheduler="all", evaluator="repeated"))
        qids = [
            session.add_query(
                _query(epsilon=1.5 + 0.1 * (i % 4), duration=4), configs[i % 2]
            )
            for i in range(16)
        ]
        for t in range(4):
            session.step(t)
        trace = tracer.trace()
        assert verify_trace_consistency(trace, session.metrics) == []

        for qid in qids:
            expected = RunMetrics()
            sink = RunMetricsSink(expected)
            for span in trace.spans_named("snapshot_query"):
                if span.attrs.get("query") == qid:
                    sink.on_span_end(span)
            live = counter_dict(session.runtime(qid).metrics)
            assert live == counter_dict(expected)
            assert live["snapshot_queries"] == 4

    def test_snapshot_spans_carry_pool_split(self):
        """Each snapshot span holds its evaluation's pool hits and misses.

        Summed per query they are the query's own counters, and summed
        over all queries they are the pool's.
        """
        session, tracer, qids = self._faulted_traced_run()
        snapshots = tracer.trace().spans_named("snapshot_query")
        assert snapshots
        for span in snapshots:
            assert {"n_hit", "n_miss"} <= span.attrs.keys()
        for qid in qids:
            own = [s for s in snapshots if s.attrs["query"] == qid]
            metrics = session.runtime(qid).metrics
            assert sum(s.attrs["n_hit"] for s in own) == metrics.pool_hits
            assert sum(s.attrs["n_miss"] for s in own) == metrics.pool_misses
        pool = session.pool
        assert pool.pool_hits > 0 and pool.pool_misses > 0
        assert sum(s.attrs["n_hit"] for s in snapshots) == pool.pool_hits
        assert sum(s.attrs["n_miss"] for s in snapshots) == pool.pool_misses

    def test_shared_batches_attribute_every_consumer(self):
        session, tracer, qids = self._faulted_traced_run()
        trace = tracer.trace()
        batches = [s for s in trace.spans if s.name == "shared_walk_batch"]
        assert batches
        for span in batches:
            consumers = str(span.attrs["consumers"]).split(",")
            assert set(consumers) == set(qids)
        attribution = shared_walk_attribution(trace)
        for qid in qids:
            assert attribution[qid]["shared_batches"] == len(batches)
            assert attribution[qid]["pool_hits"] > 0


class TestSimulationAttachment:
    def test_attach_steps_all_queries(self):
        graph, database = _world()
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        qid = session.add_query(_query(duration=5), _ALL_INDEP)
        late = session.add_query(
            ContinuousQuery(
                parse_query("SELECT AVG(mem) FROM R"),
                Precision(4.0, 2.0, 0.95),
                start_time=2,
                duration=3,
            ),
            _ALL_INDEP,
        )
        simulation = SimulationEngine()
        session.attach(simulation)
        simulation.run_until(10)
        assert session.runtime(qid).metrics.snapshot_queries == 5
        assert session.runtime(late).metrics.snapshot_queries == 3

