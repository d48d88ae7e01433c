"""Tests for the distributed relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestUpdateMany:
    def test_writes_every_value(self, db):
        db.update_many("v", [2, 0], np.array([30.0, 10.0]))
        assert db.read(0)["v"] == 10.0
        assert db.read(1)["v"] == 2.0
        assert db.read(2)["v"] == 30.0

    def test_values_read_back_as_float64(self):
        database = P2PDatabase(Schema(("v", "w")), nodes=[0, 1])
        ids = [database.insert(i % 2, {"v": 0.0, "w": float(i)}) for i in range(4)]
        database.update_many("v", ids, [1, 2, 3, 4])  # ints are stored as floats
        row = database.read(ids[2])
        assert row == {"v": 3.0, "w": 2.0}
        assert type(row["v"]) is float
        for node in (0, 1):
            store = database.store(node)
            column = store.column("v")
            assert column.dtype == np.float64
            assert column.tolist() == [
                database.read(tid)["v"] for tid in store.tuple_ids()
            ]
            assert store.get(store.tuple_ids()[0])["v"] == column[0]
        assert database.exact_columns(["v"])["v"].dtype == np.float64

    def test_empty_is_a_no_op(self, db):
        db.update_many("v", [], [])
        assert sorted(db.exact_values(Expression("v")).tolist()) == [1.0, 2.0, 3.0]

    def test_does_not_bump_layout_version(self, db):
        before = db.layout_version
        db.update_many("v", [0, 1, 2], [7.0, 8.0, 9.0])
        assert db.layout_version == before

    @pytest.mark.parametrize(
        ("attribute", "tuple_ids", "values", "match"),
        [
            ("w", [0, 1], [5.0, 5.0], "unknown attribute"),
            ("v", [0, 3], [5.0, 5.0], "outside the allocated range"),
            ("v", [-1, 0], [5.0, 5.0], "outside the allocated range"),
            ("v", [0, 1], [5.0, 5.0], "deleted"),
            ("v", [2, 0, 2], [5.0, 5.0, 5.0], "repeated"),
            ("v", [2, 3, 0], [5.0, 5.0, 5.0], "outside the allocated range"),
            ("v", [2, -1, 0], [5.0, 5.0, 5.0], "outside the allocated range"),
            ("v", [2, 1, 0], [5.0, 5.0, 5.0], "deleted"),
            ("v", [0, 2], [5.0], "equal-length"),
            ("v", [0.0, 2.0], [5.0, 5.0], "integers"),
        ],
        ids=[
            "unknown-attribute",
            "unknown-id",
            "negative-id",
            "deleted-id",
            "duplicate-ids",
            "unsorted-unknown-id",
            "unsorted-negative-id",
            "unsorted-deleted-id",
            "length-mismatch",
            "float-ids",
        ],
    )
    def test_rejection_writes_nothing(self, db, attribute, tuple_ids, values, match):
        db.delete(1)
        before = db.exact_values(Expression("v")).tolist()
        version = db.layout_version
        with pytest.raises(StoreError, match=match):
            db.update_many(attribute, tuple_ids, values)
        assert db.exact_values(Expression("v")).tolist() == before
        assert db.layout_version == version


class TestOracleOrder:
    def _churned(self):
        rng = np.random.default_rng(4)
        database = P2PDatabase(Schema(("v", "w")), nodes=range(6))
        next_node = 6
        for step in range(30):
            for _ in range(4):
                node = database.nodes()[int(rng.integers(len(database.nodes())))]
                database.insert(node, {"v": float(rng.normal()), "w": float(step)})
            live = [tid for tid, _, _ in database.iter_tuples()]
            database.delete(live[int(rng.integers(len(live)))])
            if step % 7 == 6:
                database.handle_churn(
                    ChurnEvent(joined=[next_node], left=[database.nodes()[0]])
                )
                next_node += 1
        return database

    def test_matches_iter_tuples_after_churn(self):
        database = self._churned()
        triples = list(database.iter_tuples())
        assert [node for _, node, _ in triples] == sorted(
            node for _, node, _ in triples
        )
        values = database.exact_values(Expression("v + w"))
        columns = database.exact_columns(["w", "v"])
        assert values.tolist() == [row["v"] + row["w"] for _, _, row in triples]
        assert columns["v"].tolist() == [row["v"] for _, _, row in triples]
        assert columns["w"].tolist() == [row["w"] for _, _, row in triples]

    def test_cached_order_follows_value_writes_and_layout_changes(self):
        database = self._churned()
        ids = [tid for tid, _, _ in database.iter_tuples()]
        database.exact_values(Expression("v"))
        database.update_many("v", ids, np.arange(len(ids), dtype=float))
        assert database.exact_values(Expression("v")).tolist() == list(
            range(len(ids))
        )
        database.delete(ids[0])
        database.insert(database.nodes()[-1], {"v": -1.0, "w": 0.0})
        expected = [row["v"] for _, _, row in database.iter_tuples()]
        assert database.exact_values(Expression("v")).tolist() == expected

    def test_constant_expression_has_one_value_per_tuple(self, db):
        assert db.exact_values(Expression("2")).tolist() == [2.0, 2.0, 2.0]

    def test_rows_are_fresh_dicts(self, db):
        for _, _, row in db.iter_tuples():
            row["v"] = -5.0
        assert sorted(db.exact_values(Expression("v")).tolist()) == [1.0, 2.0, 3.0]


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "remove_node", "churn"]),
            st.integers(0, 7),
            st.integers(-2, 40),
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_liveness_views_agree(operations):
    """``live_mask``, ``in`` and ``locate`` tell one story through churn.

    A dict model tracks the live tuples and their nodes across
    ``insert``, ``delete``, ``remove_node`` and ``handle_churn``; after
    every step all three views agree with it on every id, including
    negative, deleted and never-allocated ones.
    """
    database = P2PDatabase(Schema(("v",)), nodes=range(4))
    model: dict[int, int] = {}  # live tuple id -> hosting node
    next_node = 4
    for op, node, tuple_id in operations:
        hosted = node in database.nodes()
        if op == "insert" and hosted:
            model[database.insert(node, {"v": float(tuple_id)})] = node
        elif op == "delete":
            if tuple_id in model:
                database.delete(tuple_id)
                del model[tuple_id]
            else:
                with pytest.raises(StoreError):
                    database.delete(tuple_id)
        elif op == "remove_node" and hosted:
            expected = sorted(t for t, n in model.items() if n == node)
            assert sorted(database.remove_node(node)) == expected
            model = {t: n for t, n in model.items() if n != node}
        elif op == "churn":
            left = [node] if hosted else []
            lost = database.handle_churn(ChurnEvent(joined=[next_node], left=left))
            assert sorted(lost) == sorted(t for t, n in model.items() if n in left)
            model = {t: n for t, n in model.items() if n not in left}
            next_node += 1
        ids = list(range(-2, 45))
        assert database.live_mask(ids).tolist() == [i in model for i in ids]
        assert [i in database for i in ids] == [i in model for i in ids]
        assert [database.locate(i) for i in ids] == [model.get(i) for i in ids]
        assert database.n_tuples == len(model)
