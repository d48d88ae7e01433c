"""DigestSession honesty under overlay partitions (PR 7 tentpole)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.datasets.memory import MemoryConfig, MemoryInstance
from repro.db.aggregates import AggregateOp, scale_factor
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.network.graph import OverlayGraph
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology
from repro.obs.analysis import verify_trace_consistency
from repro.obs.schema import (
    EVENT_PARTITION_HEAL,
    EVENT_PARTITION_OPEN,
    SPAN_SNAPSHOT_QUERY,
)
from repro.obs.tracer import SinkTracer
from repro.sampling import mixing

START, DURATION, HORIZON = 4, 8, 24


def _world(n=25, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        database.insert(node, {"v": float(rng.normal(5.0, 1.0))})
    return graph, database


def _partitioned_session(seed=0, ops=(AggregateOp.AVG,), tracer=None):
    graph, database = _world(seed=seed)
    plan = PartitionPlan(
        PartitionSchedule(
            episodes=(PartitionEpisode(start=START, duration=DURATION),)
        ),
        rng=seed + 3,
        tracer=tracer,
    )
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(seed + 2),
        tracer=tracer,
        partitions=plan,
    )
    n = len(graph)
    for op in ops:
        epsilon = 0.5 if op is AggregateOp.AVG else 0.5 * n
        session.add_query(
            ContinuousQuery(
                Query(op, Expression("v")),
                Precision(delta=epsilon, epsilon=epsilon, confidence=0.95),
                duration=HORIZON,
            ),
            config=EngineConfig(
                scheduler="all", evaluator="independent", period=1
            ),
        )
    return graph, database, plan, session


def _drive(graph, plan, session):
    """Step plan+session over the horizon; returns [(time, qid, estimate)]."""
    out = []
    for time in range(HORIZON):
        plan.step(time, graph)
        for qid, estimate in session.step(time).items():
            out.append((time, qid, estimate))
    return out


class TestHonestyDuringPartition:
    def test_partitioned_estimates_are_flagged_and_rescoped(self):
        graph, database, plan, session = _partitioned_session()
        results = _drive(graph, plan, session)
        partitioned = [
            (time, est)
            for time, _qid, est in results
            if START <= time < START + DURATION
        ]
        assert partitioned
        for _time, est in partitioned:
            assert est.degraded
            assert 0.0 < est.reachable_fraction < 1.0
            assert est.achieved_epsilon is not None
            assert est.achieved_confidence is not None
            # population re-scoped to the reachable side (one tuple/node)
            assert est.population_size < len(graph)

    def test_population_matches_reachable_content(self):
        graph, database, plan, session = _partitioned_session()
        for time in range(START + 1):
            plan.step(time, graph)
            executed = session.step(time)
        scope = plan.reachable(graph, 0)
        sizes = database.content_sizes()
        expected = sum(sizes[node] for node in scope)
        (estimate,) = executed.values()
        assert estimate.population_size == expected
        assert estimate.reachable_fraction == pytest.approx(
            len(scope) / len(graph)
        )

    def test_sum_aggregate_scaled_to_reachable_population(self):
        graph, database, plan, session = _partitioned_session(
            ops=(AggregateOp.SUM,)
        )
        results = _drive(graph, plan, session)
        for time, _qid, est in results:
            if START <= time < START + DURATION:
                scale = scale_factor(AggregateOp.SUM, est.population_size)
                assert est.aggregate == pytest.approx(est.mean * scale)

    def test_clean_estimates_stay_undegraded(self):
        graph, database, plan, session = _partitioned_session()
        results = _drive(graph, plan, session)
        for time, _qid, est in results:
            if time < START or time >= START + DURATION:
                assert not est.degraded
                # exact sentinel: the clean path reports literal 1.0
                assert est.reachable_fraction == 1.0  # dgl: disable=DGL004


class TestRecovery:
    def test_estimates_recover_right_after_heal(self):
        graph, database, plan, session = _partitioned_session()
        results = _drive(graph, plan, session)
        post_heal = [
            est for time, _qid, est in results if time >= START + DURATION
        ]
        assert post_heal
        assert not post_heal[0].degraded  # first post-heal occasion

    def test_pool_invalidated_on_cut_and_heal(self):
        tracer = SinkTracer(record=True)
        graph, database, plan, session = _partitioned_session(tracer=tracer)
        acquire = session.pool.acquire
        served = []

        def recording(*args, **kwargs):
            # a lease's serve is (tuple_ids, y, indicator); spy on the ids
            serve = acquire(*args, **kwargs)
            served.append(serve[0])
            return serve

        session.pool.acquire = recording
        for time in range(HORIZON):
            plan.step(time, graph)
            served.clear()
            session.step(time)
            if START <= time < START + DURATION:
                # no draw from before the cut is served while it is open
                scope = plan.reachable(graph, 0)
                assert len(scope) < len(graph)
                held = {
                    database.locate(tuple_id)
                    for ids in served
                    for tuple_id in ids.tolist()
                }
                assert held and held <= scope.keys()
        changes = [
            (event.name, event.time)
            for event in tracer.trace().events
            if event.name in (EVENT_PARTITION_OPEN, EVENT_PARTITION_HEAL)
        ]
        assert changes == [
            (EVENT_PARTITION_OPEN, START),
            (EVENT_PARTITION_HEAL, START + DURATION),
        ]


class TestTracing:
    def test_reachable_fraction_only_on_partitioned_spans(self):
        tracer = SinkTracer(record=True)
        graph, database, plan, session = _partitioned_session(tracer=tracer)
        _drive(graph, plan, session)
        for span in tracer.trace().spans:
            if span.name != SPAN_SNAPSHOT_QUERY:
                continue
            partitioned = START <= span.start < START + DURATION
            assert ("reachable_fraction" in span.attrs) == partitioned
            if partitioned:
                assert span.attrs["reachable_fraction"] < 1.0

    def test_trace_verifies_exactly_on_partitioned_multi_query_run(self):
        tracer = SinkTracer(record=True)
        graph, database, plan, session = _partitioned_session(
            ops=(AggregateOp.AVG, AggregateOp.SUM), tracer=tracer
        )
        results = _drive(graph, plan, session)
        assert {qid for _t, qid, _e in results} == {"q0", "q1"}
        assert verify_trace_consistency(tracer.trace(), session.metrics) == []


class TestNoPlanUnchanged:
    def test_sessions_without_plan_report_full_reach(self):
        graph, database = _world()
        session = DigestSession(
            graph, database, origin=0, rng=np.random.default_rng(2)
        )
        session.add_query(
            ContinuousQuery(
                Query(AggregateOp.AVG, Expression("v")),
                Precision(delta=0.5, epsilon=0.5, confidence=0.95),
                duration=4,
            ),
            config=EngineConfig(
                scheduler="all", evaluator="independent", period=1
            ),
        )
        for time in range(4):
            for estimate in session.step(time).values():
                # exact sentinel: the clean path reports literal 1.0
                assert estimate.reachable_fraction == 1.0  # dgl: disable=DGL004
                assert not estimate.degraded


class TestIdlePlanUnderChurn:
    """A plan that never opens must not perturb a churning session."""

    TICKS = 30

    def _run(self, monkeypatch, with_plan):
        instance = MemoryInstance(
            MemoryConfig(
                n_nodes=400,
                n_units=480,
                n_steps=self.TICKS,
                leave_probability=0.002,
            ),
            np.random.default_rng(7),
        )
        graph = instance.graph
        origin = max(graph.nodes(), key=graph.degree)
        instance.churn.protect(origin)
        plan = (
            PartitionPlan(
                PartitionSchedule(
                    episodes=(PartitionEpisode(start=self.TICKS, duration=4),)
                ),
                rng=1,
            )
            if with_plan
            else None
        )
        session = DigestSession(
            graph,
            instance.database,
            origin,
            np.random.default_rng(8),
            partitions=plan,
        )
        session.add_query(
            ContinuousQuery(
                Query(AggregateOp.AVG, instance.expression),
                Precision(delta=1.0, epsilon=1.0, confidence=0.95),
                duration=self.TICKS,
            ),
            config=EngineConfig(
                scheduler="all", evaluator="independent", period=1
            ),
        )
        compute = mixing.eigengap_sparse
        gaps = []

        def counting(matrix):
            gaps.append(compute(matrix))
            return gaps[-1]

        monkeypatch.setattr(mixing, "eigengap_sparse", counting)
        estimates = []
        for time in range(self.TICKS):
            instance.step(time)
            if plan is not None:
                plan.step(time, graph)
            estimates.extend(
                estimate.aggregate for estimate in session.step(time).values()
            )
        assert instance.nodes_joined + instance.nodes_left > 0
        return session.ledger.total, estimates, len(gaps)

    def test_idle_plan_draws_what_a_planless_session_draws(self, monkeypatch):
        total, estimates, n_gaps = self._run(monkeypatch, with_plan=False)
        assert self._run(monkeypatch, with_plan=True) == (
            total,
            estimates,
            n_gaps,
        )
        assert n_gaps == 1
