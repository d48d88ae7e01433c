"""The distributed relation: placement, churn, and oracle evaluation.

``R`` is a single relation horizontally partitioned across overlay nodes
(Section II). :class:`P2PDatabase` owns one :class:`~repro.db.store.LocalStore`
per live node, a global tuple-location index, and global id allocation. It
is the ground truth the simulator maintains; query engines never read it
wholesale — they interact only through the sampling operator (plus the
per-tuple ``read`` used to re-evaluate retained samples) — but experiments
use :meth:`exact_values` as the oracle for error measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.store import LocalStore
from repro.errors import StoreError
from repro.network.churn import ChurnEvent


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names of the relation."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise StoreError("schema needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise StoreError(f"duplicate attribute names in {self.attributes}")

    def validate_expression(self, expression: Expression) -> None:
        """Raise when ``expression`` references attributes not in the schema."""
        unknown = expression.attributes - set(self.attributes)
        if unknown:
            raise StoreError(
                f"expression {expression.text!r} references unknown attributes "
                f"{sorted(unknown)}; schema is {self.attributes}"
            )

    def validate_predicate(self, predicate: Predicate) -> None:
        """Raise when ``predicate`` references attributes not in the schema."""
        unknown = predicate.attributes - set(self.attributes)
        if unknown:
            raise StoreError(
                f"predicate {predicate.text!r} references unknown attributes "
                f"{sorted(unknown)}; schema is {self.attributes}"
            )


class P2PDatabase:
    """Horizontally partitioned relation over overlay nodes.

    Parameters
    ----------
    schema:
        Relation schema shared by every fragment.
    nodes:
        Initial node ids; each gets an empty local store.
    """

    def __init__(self, schema: Schema, nodes: Iterable[int] = ()) -> None:
        self._schema = schema
        self._stores: dict[int, LocalStore] = {}
        self._location: dict[int, int] = {}
        self._next_tuple_id = 0
        self._layout_version = 0
        for node in nodes:
            self.add_node(node)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def layout_version(self) -> int:
        """Monotone counter bumped whenever any node's tuple count may change.

        ``insert``, ``delete``, ``add_node`` and ``remove_node`` (hence
        ``handle_churn``) bump it; ``update`` rewrites values in place and
        does not. While it is unchanged, every ``m_v`` — the content-size
        sampling weight — is unchanged, provided writes go through the
        database rather than straight into a fragment from :meth:`store`.
        """
        return self._layout_version

    # ------------------------------------------------------------------
    # node membership
    # ------------------------------------------------------------------

    def add_node(self, node: int) -> None:
        """Register a (new) node with an empty fragment."""
        if node in self._stores:
            raise StoreError(f"node {node} already has a store")
        self._stores[node] = LocalStore(self._schema.attributes)
        self._layout_version += 1

    def remove_node(self, node: int) -> list[int]:
        """Drop a node and its entire fragment; returns the lost tuple ids.

        Matches the paper's model: a departing node removes its content, as
        if deleting those tuples.
        """
        store = self._stores.get(node)
        if store is None:
            raise StoreError(f"node {node} has no store")
        lost = store.tuple_ids()
        for tuple_id in lost:
            del self._location[tuple_id]
        del self._stores[node]
        self._layout_version += 1
        return lost

    def handle_churn(self, event: ChurnEvent) -> list[int]:
        """Apply an overlay churn event; returns tuple ids lost to departures."""
        lost: list[int] = []
        for node in event.left:
            lost.extend(self.remove_node(node))
        for node in event.joined:
            self.add_node(node)
        return lost

    def nodes(self) -> list[int]:
        return sorted(self._stores)

    def store(self, node: int) -> LocalStore:
        store = self._stores.get(node)
        if store is None:
            raise StoreError(f"node {node} has no store")
        return store

    def content_sizes(self) -> dict[int, int]:
        """``m_v`` per node — the weight function for uniform tuple sampling."""
        return {node: len(store) for node, store in self._stores.items()}

    # ------------------------------------------------------------------
    # tuple operations
    # ------------------------------------------------------------------

    @property
    def n_tuples(self) -> int:
        """Total relation size ``N`` across all fragments."""
        return len(self._location)

    def insert(self, node: int, values: Mapping[str, float]) -> int:
        """Insert a row at ``node``; returns the new global tuple id."""
        store = self.store(node)
        tuple_id = self._next_tuple_id
        self._next_tuple_id += 1
        store.insert(tuple_id, values)
        self._location[tuple_id] = node
        self._layout_version += 1
        return tuple_id

    def update(self, tuple_id: int, values: Mapping[str, float]) -> None:
        """Update attributes of an existing tuple wherever it lives."""
        node = self._location.get(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        self._stores[node].update(tuple_id, values)

    def delete(self, tuple_id: int) -> None:
        node = self._location.get(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        self._stores[node].delete(tuple_id)
        del self._location[tuple_id]
        self._layout_version += 1

    def locate(self, tuple_id: int) -> int | None:
        """Node currently hosting ``tuple_id``, or None if it was deleted."""
        return self._location.get(tuple_id)

    def read(self, tuple_id: int) -> dict[str, float]:
        """Current attribute values of a tuple (copy)."""
        node = self._location.get(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        return self._stores[node].get(tuple_id)

    def __contains__(self, tuple_id: int) -> bool:
        return tuple_id in self._location

    def iter_tuples(self) -> Iterator[tuple[int, int, dict[str, float]]]:
        """Iterate ``(tuple_id, node, row)`` across the whole relation."""
        for node in sorted(self._stores):
            for tuple_id, row in self._stores[node].iter_rows():
                yield tuple_id, node, row

    # ------------------------------------------------------------------
    # oracle evaluation (for experiments / error measurement)
    # ------------------------------------------------------------------

    def exact_values(self, expression: Expression) -> np.ndarray:
        """``expression`` evaluated over every tuple (oracle access)."""
        self._schema.validate_expression(expression)
        parts = []
        for node in sorted(self._stores):
            store = self._stores[node]
            if len(store):
                parts.append(expression.evaluate_columns(store.columns()))
        if not parts:
            return np.empty(0, dtype=float)
        return np.concatenate(parts)

    def exact_columns(self, attributes: Iterable[str]) -> dict[str, np.ndarray]:
        """Whole-relation column arrays, row-aligned with :meth:`exact_values`.

        Both iterate fragments in sorted-node order, so row ``i`` of the
        returned columns is the tuple behind ``exact_values(...)[i]``.
        """
        names = list(attributes)
        unknown = set(names) - set(self._schema.attributes)
        if unknown:
            raise StoreError(
                f"unknown attributes {sorted(unknown)}; "
                f"schema is {self._schema.attributes}"
            )
        parts: dict[str, list[np.ndarray]] = {name: [] for name in names}
        for node in sorted(self._stores):
            store = self._stores[node]
            if len(store):
                for name in names:
                    parts[name].append(store.column(name))
        return {
            name: (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=float)
            )
            for name, chunks in parts.items()
        }
