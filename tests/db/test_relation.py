"""Tests for the distributed relation."""

import numpy as np
import pytest

from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import StoreError
from repro.network.churn import ChurnEvent


@pytest.fixture
def db():
    database = P2PDatabase(Schema(("v",)), nodes=[0, 1, 2])
    database.insert(0, {"v": 1.0})
    database.insert(0, {"v": 2.0})
    database.insert(1, {"v": 3.0})
    return database


class TestSchema:
    def test_validate_expression(self):
        schema = Schema(("a", "b"))
        schema.validate_expression(Expression("a + b"))
        with pytest.raises(StoreError, match="unknown attributes"):
            schema.validate_expression(Expression("a + missing"))

    def test_rejects_empty(self):
        with pytest.raises(StoreError):
            Schema(())


class TestNodes:
    def test_add_remove_node(self, db):
        db.add_node(3)
        assert 3 in db.nodes()
        lost = db.remove_node(0)
        assert sorted(lost) == [0, 1]
        assert db.n_tuples == 1

    def test_add_duplicate_node(self, db):
        with pytest.raises(StoreError):
            db.add_node(0)

    def test_remove_unknown_node(self, db):
        with pytest.raises(StoreError):
            db.remove_node(99)

    def test_content_sizes(self, db):
        assert db.content_sizes() == {0: 2, 1: 1, 2: 0}

    def test_handle_churn(self, db):
        lost = db.handle_churn(ChurnEvent(joined=[5], left=[0]))
        assert len(lost) == 2
        assert 5 in db.nodes()
        assert 0 not in db.nodes()
        assert db.n_tuples == 1


class TestLayoutVersion:
    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.insert(2, {"v": 9.0}),
            lambda db: db.delete(0),
            lambda db: db.add_node(3),
            lambda db: db.remove_node(2),
            lambda db: db.handle_churn(ChurnEvent(joined=[5])),
            lambda db: db.handle_churn(ChurnEvent(left=[1])),
        ],
        ids=["insert", "delete", "add_node", "remove_node", "join", "leave"],
    )
    def test_layout_changes_bump(self, db, change):
        before = db.layout_version
        change(db)
        assert db.layout_version > before

    def test_update_does_not_bump(self, db):
        before = db.layout_version
        db.update(0, {"v": 42.0})
        assert db.layout_version == before

    def test_failed_changes_do_not_bump(self, db):
        before = db.layout_version
        with pytest.raises(StoreError):
            db.add_node(0)
        with pytest.raises(StoreError):
            db.delete(99)
        with pytest.raises(StoreError):
            db.insert(99, {"v": 1.0})
        assert db.layout_version == before

    def test_read_only(self, db):
        with pytest.raises(AttributeError):
            db.layout_version = 0


class TestTuples:
    def test_global_ids_unique(self, db):
        tid = db.insert(2, {"v": 9.0})
        assert tid == 3
        assert db.locate(tid) == 2

    def test_read_update_delete(self, db):
        db.update(0, {"v": 42.0})
        assert db.read(0)["v"] == 42.0
        db.delete(0)
        assert db.locate(0) is None
        assert 0 not in db
        with pytest.raises(StoreError):
            db.read(0)
        with pytest.raises(StoreError):
            db.update(0, {"v": 1.0})
        with pytest.raises(StoreError):
            db.delete(0)

    def test_iter_tuples(self, db):
        triples = list(db.iter_tuples())
        assert len(triples) == 3
        assert {t[0] for t in triples} == {0, 1, 2}

    def test_exact_values(self, db):
        values = db.exact_values(Expression("v"))
        assert sorted(values.tolist()) == [1.0, 2.0, 3.0]

    def test_exact_values_empty(self):
        database = P2PDatabase(Schema(("v",)), nodes=[0])
        assert database.exact_values(Expression("v")).size == 0

    def test_exact_values_validates_schema(self, db):
        with pytest.raises(StoreError):
            db.exact_values(Expression("other"))

    def test_ids_not_reused_after_delete(self, db):
        db.delete(2)
        new = db.insert(1, {"v": 7.0})
        assert new == 3
