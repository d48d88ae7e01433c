"""Tests for node weight functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.relation import P2PDatabase, Schema
from repro.errors import SamplingError, StoreError
from repro.network.churn import ChurnEvent
from repro.network.graph import OverlayGraph
from repro.network.topology import ring_topology
from repro.sampling.weights import (
    content_size_weights,
    degree_weights,
    table_weights,
    uniform_weights,
    validate_weights,
)


def test_uniform():
    weight = uniform_weights()
    assert weight(0) == weight(999) == 1.0


def test_content_size_tracks_database():
    database = P2PDatabase(Schema(("v",)), nodes=[0, 1])
    weight = content_size_weights(database)
    assert weight(0) == 0.0
    tid = database.insert(0, {"v": 1.0})
    assert weight(0) == 1.0  # live view, not a snapshot
    database.delete(tid)
    assert weight(0) == 0.0


def test_content_size_floor():
    database = P2PDatabase(Schema(("v",)), nodes=[0])
    weight = content_size_weights(database, floor=0.1)
    assert weight(0) == 0.1
    with pytest.raises(SamplingError):
        content_size_weights(database, floor=-1.0)


def test_degree_weights():
    graph = OverlayGraph(ring_topology(5), n_nodes=5)
    weight = degree_weights(graph)
    assert weight(0) == 2.0


def test_table_weights():
    weight = table_weights({0: 2.0, 1: 3.0})
    assert weight(1) == 3.0
    with pytest.raises(SamplingError):
        weight(7)
    with pytest.raises(SamplingError):
        table_weights({0: -1.0})


def test_validate_weights():
    validate_weights(uniform_weights(), [0, 1, 2])
    with pytest.raises(SamplingError, match="all node weights are zero"):
        validate_weights(lambda node: 0.0, [0, 1])
    with pytest.raises(SamplingError, match="invalid"):
        validate_weights(lambda node: float("nan"), [0])


_DB_HISTORY = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "add", "remove", "churn"]),
        st.integers(0, 30),
        st.integers(0, 30),
    ),
    max_size=60,
)


def _apply(database, op, a, b):
    """Apply one random database write (skipped when it does not apply)."""
    nodes = database.nodes()
    if op == "add":
        if a not in nodes:
            database.add_node(a)
    elif op == "churn":
        joined = [b] if b not in nodes else []
        left = [nodes[a % len(nodes)]] if nodes else []
        database.handle_churn(ChurnEvent(joined=joined, left=left))
    elif not nodes:
        return
    elif op == "insert":
        database.insert(nodes[a % len(nodes)], {"v": float(b)})
    elif op == "remove":
        database.remove_node(nodes[a % len(nodes)])
    else:
        ids = database.store(nodes[a % len(nodes)]).tuple_ids()
        if ids:
            database.delete(ids[b % len(ids)])


@given(operations=_DB_HISTORY)
@settings(max_examples=150, deadline=None)
def test_property_size_array_tracks_fragments(operations):
    """After any write history the size array is ``len(store(n))`` per node."""
    database = P2PDatabase(Schema(("v",)), nodes=[0, 1, 2])
    for op, a, b in operations:
        _apply(database, op, a, b)
    nodes = database.nodes()
    sizes = {node: len(database.store(node)) for node in nodes}
    assert database.content_sizes() == sizes
    assert database.content_size_array(nodes).tolist() == list(sizes.values())
    assert database.tuples_held(range(-2, 40)) == database.n_tuples
    weight = content_size_weights(database, floor=0.5)
    assert weight.gather(np.array(nodes, dtype=np.int64)).tolist() == [
        weight(node) for node in nodes
    ]


def test_size_array_rejects_nodes_without_a_store():
    database = P2PDatabase(Schema(("v",)), nodes=[0, 2])
    database.remove_node(2)
    for node in (1, 2, 7, -1):
        with pytest.raises(StoreError, match=f"node {node} has no store"):
            database.content_size_array([0, node])
        with pytest.raises(StoreError, match=f"node {node} has no store"):
            content_size_weights(database).gather(np.array([0, node]))
    with pytest.raises(StoreError, match="non-negative"):
        database.add_node(-1)
