"""Tests for the delta-threshold notification semantics."""

import numpy as np
import pytest

from repro.core.result import NotificationFilter, UpdateRecord
from repro.errors import QueryError


def _record(time, estimate):
    return UpdateRecord(time=time, estimate=estimate)


class TestNotificationFilter:
    def test_first_update_always_fires(self):
        fired = []
        filter_ = NotificationFilter(5.0, fired.append)
        assert filter_.offer(_record(0, 10.0))
        assert len(fired) == 1

    def test_small_changes_suppressed(self):
        fired = []
        filter_ = NotificationFilter(5.0, fired.append)
        filter_.offer(_record(0, 10.0))
        assert not filter_.offer(_record(1, 12.0))
        assert not filter_.offer(_record(2, 14.9))
        assert len(fired) == 1
        assert filter_.updates_seen == 3
        assert filter_.notifications_fired == 1

    def test_threshold_crossing_fires(self):
        fired = []
        filter_ = NotificationFilter(5.0, fired.append)
        filter_.offer(_record(0, 10.0))
        assert filter_.offer(_record(1, 15.0))  # exactly delta
        assert fired[-1].estimate == pytest.approx(15.0, rel=1e-12)

    def test_reference_is_last_notified_not_last_update(self):
        """Drift accumulates across suppressed updates (no re-anchoring)."""
        fired = []
        filter_ = NotificationFilter(5.0, fired.append)
        filter_.offer(_record(0, 10.0))
        filter_.offer(_record(1, 13.0))  # suppressed
        assert filter_.offer(_record(2, 15.5))  # 5.5 from 10.0 -> fires
        assert len(fired) == 2

    def test_zero_delta_fires_always(self):
        fired = []
        filter_ = NotificationFilter(0.0, fired.append)
        for t in range(3):
            assert filter_.offer(_record(t, 1.0))
        assert len(fired) == 3

    def test_negative_delta_rejected(self):
        with pytest.raises(QueryError):
            NotificationFilter(-1.0, lambda record: None)


class TestEngineSubscription:
    def _session(self):
        from repro.core.query import ContinuousQuery, Precision, parse_query
        from repro.core.session import DigestSession, EngineConfig
        from repro.db.relation import P2PDatabase, Schema
        from repro.network.graph import OverlayGraph
        from repro.network.topology import mesh_topology

        rng = np.random.default_rng(0)
        graph = OverlayGraph(mesh_topology(25), n_nodes=25)
        database = P2PDatabase(Schema(("v",)), graph.nodes())
        tids = []
        for node in graph.nodes():
            for _ in range(4):
                tids.append(database.insert(node, {"v": float(rng.normal(50, 5))}))
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(v) FROM R"),
            Precision(delta=3.0, epsilon=1.0, confidence=0.95),
            duration=12,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        query_id = session.add_query(
            continuous,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        return session, query_id, database, tids

    def test_subscription_uses_query_delta(self):
        session, query_id, database, tids = self._session()
        notified = []
        subscription = session.subscribe(query_id, notified.append)
        for t in range(12):
            if t == 6:  # one large shift mid-run
                for tid in tids:
                    database.update(tid, {"v": database.read(tid)["v"] + 20.0})
            session.step(t)
        # first snapshot + the shift: small sampling noise stays quiet
        assert subscription.notifications_fired == 2
        assert notified[1].estimate - notified[0].estimate > 10.0

    def test_custom_delta_override(self):
        session, query_id, _, _ = self._session()
        hair_trigger = session.subscribe(
            query_id, lambda record: None, delta=0.0
        )
        for t in range(5):
            session.step(t)
        assert hair_trigger.notifications_fired == 5
