"""Registration edge cases: auto-assigned ids and all-or-nothing sets."""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, QuerySet
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError, StoreError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.obs.audit import META_PROMISES


def _session():
    graph = OverlayGraph(mesh_topology(9), n_nodes=9)
    database = P2PDatabase(Schema(("mem",)), graph.nodes())
    for node in graph.nodes():
        database.insert(node, {"mem": float(node)})
    return DigestSession(graph, database, 0, np.random.default_rng(0))


def _query(text="SELECT AVG(mem) FROM R"):
    return ContinuousQuery(parse_query(text), Precision(4.0, 2.0, 0.95))


def _assert_empty(session):
    assert session.query_ids() == []
    assert session.auditor.query_ids() == []
    assert not session.tracer.meta.get(META_PROMISES)


class TestAutoIds:
    def test_unchanged_without_collisions(self):
        session = _session()
        assert session.add_query(_query()) == "q0"
        assert session.add_query(_query(), query_id="load") == "load"
        assert session.add_query(_query()) == "q2"

    def test_session_skips_explicit_ids(self):
        session = _session()
        assert session.add_query(_query(), query_id="q1") == "q1"
        assert session.add_query(_query()) == "q2"
        assert session.add_query(_query(), query_id="q3") == "q3"
        assert session.add_query(_query()) == "q4"
        assert session.query_ids() == ["q1", "q2", "q3", "q4"]

    def test_query_set_skips_explicit_ids(self):
        queries = QuerySet()
        assert queries.add(_query(), query_id="q1") == "q1"
        assert queries.add(_query()) == "q2"
        assert queries.add(_query()) == "q3"
        assert [spec.query_id for spec in queries] == ["q1", "q2", "q3"]


class TestQuerySetIsAllOrNothing:
    def test_bad_id_registers_nothing(self):
        queries = QuerySet()
        queries.add(_query(), query_id="a")
        queries.add(_query(), query_id="b,c")
        session = _session()
        with pytest.raises(QueryError):
            session.add_query_set(queries)
        _assert_empty(session)

    def test_clash_with_session_registers_nothing(self):
        session = _session()
        session.add_query(_query(), query_id="b")
        queries = QuerySet()
        queries.add(_query(), query_id="a")
        queries.add(_query(), query_id="b")
        with pytest.raises(QueryError):
            session.add_query_set(queries)
        assert session.query_ids() == ["b"]

    def test_bad_schema_registers_nothing(self):
        queries = QuerySet()
        queries.add(_query(), query_id="a")
        queries.add(_query("SELECT AVG(nope) FROM R"), query_id="b")
        session = _session()
        with pytest.raises(StoreError):
            session.add_query_set(queries)
        _assert_empty(session)
