"""Tests for forward regression (retrospective revision)."""

import numpy as np
import pytest

from repro.core.forward import RevisedEstimate, revise_previous
from repro.core.result import RunningResult, UpdateRecord
from repro.errors import QueryError
from repro.experiments import forward as forward_experiment


def _correlated_pairs(rng, g, rho, sigma=1.0):
    prev = rng.normal(0, sigma, g)
    curr = rho * prev + np.sqrt(1 - rho**2) * rng.normal(0, sigma, g)
    return prev, curr


class TestReviseP:
    def test_high_correlation_moves_estimate(self):
        rng = np.random.default_rng(0)
        prev, curr = _correlated_pairs(rng, 50, 0.95)
        revision = revise_previous(
            previous_estimate=0.1,
            previous_variance=0.01,
            matched_previous=prev,
            matched_current=curr,
            current_estimate=0.0,
            current_variance=0.005,
            sigma2=1.0,
        )
        assert revision.revised != revision.original
        assert revision.revised_variance < revision.original_variance
        assert 0.0 < revision.variance_reduction < 1.0

    def test_weak_correlation_gated_off(self):
        rng = np.random.default_rng(1)
        prev = rng.normal(0, 1, 50)
        curr = rng.normal(0, 1, 50)  # ~independent
        revision = revise_previous(0.1, 0.01, prev, curr, 0.0, 0.005, 1.0)
        assert revision.revised == revision.original
        assert revision.variance_reduction == 0.0

    def test_tiny_matched_set_unrevised(self):
        revision = revise_previous(
            0.1, 0.01, np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0, 0.005, 1.0
        )
        assert revision.revised == revision.original

    def test_degenerate_current_unrevised(self):
        revision = revise_previous(
            0.1, 0.01, np.arange(5.0), np.ones(5), 0.0, 0.005, 1.0
        )
        assert revision.revised == revision.original

    def test_exact_previous_unrevised(self):
        rng = np.random.default_rng(2)
        prev, curr = _correlated_pairs(rng, 50, 0.95)
        revision = revise_previous(0.1, 0.0, prev, curr, 0.0, 0.005, 1.0)
        assert revision.revised == revision.original

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QueryError):
            revise_previous(0.0, 0.1, np.zeros(3), np.zeros(4), 0.0, 0.1, 1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(QueryError):
            revise_previous(0.0, -0.1, np.zeros(5), np.zeros(5), 0.0, 0.1, 1.0)

    def test_monte_carlo_never_hurts_and_helps_at_high_rho(self):
        low = forward_experiment.simulate(rho=0.5, trials=800, seed=3)
        high = forward_experiment.simulate(rho=0.95, trials=800, seed=3)
        assert low.improvement >= 0.98  # gate keeps it ~neutral
        assert high.improvement > 1.1


class TestResultAmend:
    def test_amend_preserves_original(self):
        result = RunningResult()
        result.update(UpdateRecord(time=1, estimate=10.0))
        result.update(UpdateRecord(time=3, estimate=20.0))
        result.amend(1, 11.5)
        record = result.updates[0]
        assert record.estimate == pytest.approx(11.5, rel=1e-12)
        assert record.original_estimate == pytest.approx(10.0, rel=1e-12)
        assert record.was_revised
        # hold serves the revised value
        assert result.value_at(2) == pytest.approx(11.5, rel=1e-12)

    def test_amend_twice_keeps_first_original(self):
        result = RunningResult()
        result.update(UpdateRecord(time=1, estimate=10.0))
        result.amend(1, 11.0)
        result.amend(1, 12.0)
        assert result.updates[0].original_estimate == pytest.approx(10.0, rel=1e-12)
        assert result.updates[0].estimate == pytest.approx(12.0, rel=1e-12)

    def test_amend_unknown_time_rejected(self):
        result = RunningResult()
        result.update(UpdateRecord(time=1, estimate=10.0))
        with pytest.raises(QueryError):
            result.amend(2, 5.0)


class TestEngineIntegration:
    def test_forward_revision_amends_history(self):
        from repro.core.query import ContinuousQuery, Precision, parse_query
        from repro.core.session import DigestSession, EngineConfig
        from repro.db.relation import P2PDatabase, Schema
        from repro.network.graph import OverlayGraph
        from repro.network.topology import mesh_topology

        rng = np.random.default_rng(0)
        graph = OverlayGraph(mesh_topology(36), n_nodes=36)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        tids = []
        for node in graph.nodes():
            for _ in range(6):
                tids.append(database.insert(node, {"v": float(rng.normal(50, 10))}))
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(v) FROM R"),
            Precision(delta=4.0, epsilon=1.0, confidence=0.95),
            duration=6,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        query_id = session.add_query(
            continuous,
            config=EngineConfig(
                scheduler="all", evaluator="repeated", forward_revision=True
            ),
        )
        walk = np.random.default_rng(2)
        for t in range(6):
            for tid in tids:  # highly correlated evolution
                current = database.read(tid)["v"]
                database.update(tid, {"v": 0.98 * current + 1.0 + walk.normal(0, 0.5)})
            session.step(t)
        result = session.runtime(query_id).result
        revised = [r for r in result.updates if r.was_revised]
        assert revised  # at least one retrospective amendment happened

    def test_zero_mean_sum_amends_in_aggregate_units(self):
        """A SUM answer of exactly 0 still scales the revised mean by N."""
        from repro.core.query import ContinuousQuery, Precision, parse_query
        from repro.core.session import DigestSession, EngineConfig
        from repro.db.relation import P2PDatabase, Schema
        from repro.network.graph import OverlayGraph
        from repro.network.topology import mesh_topology

        rng = np.random.default_rng(0)
        graph = OverlayGraph(mesh_topology(36), n_nodes=36)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        tids = []
        for node in graph.nodes():
            for _ in range(6):
                tids.append(database.insert(node, {"v": float(rng.normal(50, 10))}))
        continuous = ContinuousQuery(
            parse_query("SELECT SUM(v) FROM R"),
            Precision(delta=1000.0, epsilon=300.0, confidence=0.95),
            duration=2,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        query_id = session.add_query(
            continuous,
            config=EngineConfig(
                scheduler="all", evaluator="repeated", forward_revision=True
            ),
        )
        first = session.step(0)[query_id]
        for tid in tids:
            database.update(tid, {"v": 0.0})
        second = session.step(1)[query_id]
        assert first.mean != 0.0
        assert second.mean == 0.0 and second.aggregate == 0.0
        amended = session.runtime(query_id).result.updates[0]
        assert amended.original_estimate == first.aggregate  # amend() ran
        # zero matched variance leaves the revision at the original mean,
        # so the amendment restates the original aggregate, not its mean
        assert amended.estimate == pytest.approx(first.aggregate)
