"""The distributed relation: placement, churn, and oracle evaluation.

``R`` is a single relation horizontally partitioned across overlay nodes
(Section II). :class:`P2PDatabase` owns the relation's value columns
(:class:`~repro.db.store.Columns`), one :class:`~repro.db.store.LocalStore`
per live node over them, the hosting node of every tuple and the per-node
tuple counts ``m_v`` as two arrays (indexed by tuple id and by node id),
and global id allocation. It is the ground truth the simulator maintains;
query engines never read it wholesale — they draw tuple ids through the
sampling operator and read those tuples' values with one :meth:`gather` —
but experiments use :meth:`exact_values` as the oracle for error
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.store import Columns, LocalStore, grown
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
        self._columns = Columns(schema.attributes)
        self._stores: dict[int, LocalStore] = {}
        # hosting node by tuple id, -1 for a deleted (or unallocated) id:
        # the one record of which tuples are live, and how many
        self._node_of = np.zeros(0, dtype=np.int64)
        self._n_live = 0
        # m_v by node id, and which node ids have a store; 0 / False for
        # ids without one
        self._sizes = np.zeros(0, dtype=np.int64)
        self._has_store = np.zeros(0, dtype=bool)
        self._next_tuple_id = 0
        self._layout_version = 0
        self._write_version = 0
        self._order: tuple[int, np.ndarray] | None = None
        for node in nodes:
            self.add_node(node)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def layout_version(self) -> int:
        """Monotone counter bumped whenever any node's tuple count may change.

        ``insert``, ``delete``, ``add_node`` and ``remove_node`` (hence
        ``handle_churn``) bump it; ``update`` and ``update_many`` rewrite
        values in place and do not. While it is unchanged, every ``m_v`` —
        the content-size sampling weight — is unchanged. The database is
        the only writer of its fragments: a fragment from :meth:`store` is
        for reading, and a write straight into it would leave ``m_v`` and
        this counter behind.
        """
        return self._layout_version

    @property
    def write_version(self) -> int:
        """Monotone counter bumped by every write to the relation.

        ``insert``, ``update``, ``update_many``, ``delete``, ``add_node``
        and ``remove_node`` bump it. While it is unchanged, every tuple's
        liveness and values are unchanged, so whatever was read of a set of
        tuple ids still holds. A move ends the sample pool's occasion: the
        pool drops its draws, cursors and gathered columns, as it does at a
        new tick.
        """
        return self._write_version

    # ------------------------------------------------------------------
    # node membership
    # ------------------------------------------------------------------

    def add_node(self, node: int) -> None:
        """Register a (new) node with an empty fragment."""
        if node in self._stores:
            raise StoreError(f"node {node} already has a store")
        if node < 0:
            raise StoreError(f"node ids must be non-negative, got {node}")
        self._stores[node] = LocalStore(self._columns)
        if node >= len(self._has_store):
            self._sizes = grown(self._sizes, node + 1, 0)
            self._has_store = grown(self._has_store, node + 1, False)
        self._has_store[node] = True
        self._layout_version += 1
        self._write_version += 1

    def remove_node(self, node: int) -> list[int]:
        """Drop a node and its entire fragment; returns the lost tuple ids.

        Matches the paper's model: a departing node removes its content, as
        if deleting those tuples.
        """
        store = self._stores.get(node)
        if store is None:
            raise StoreError(f"node {node} has no store")
        lost = store.tuple_ids()
        self._node_of[lost] = -1
        self._n_live -= len(lost)
        del self._stores[node]
        self._sizes[node] = 0
        self._has_store[node] = False
        self._layout_version += 1
        self._write_version += 1
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
        """``m_v`` per node, in node order: a dict view of the size array."""
        nodes = np.flatnonzero(self._has_store)
        return dict(zip(nodes.tolist(), self._sizes[nodes].tolist()))

    def content_size_array(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """``m_v`` of each of ``nodes`` as one int64 array (one gather).

        The first stage of uniform tuple sampling weighs a walk snapshot's
        nodes with it. A node without a store raises :class:`StoreError`,
        as :meth:`store` does.
        """
        ids = np.asarray(nodes, dtype=np.int64)
        known = (ids >= 0) & (ids < len(self._has_store))
        known[known] = self._has_store[ids[known]]
        if not known.all():
            raise StoreError(f"node {int(ids[~known][0])} has no store")
        return self._sizes[ids]

    def tuples_held(self, nodes: Iterable[int]) -> int:
        """Tuples ``nodes`` hold together (a node without a store holds none)."""
        ids = np.fromiter(nodes, dtype=np.int64)
        ids = ids[(ids >= 0) & (ids < len(self._sizes))]
        return int(self._sizes[ids].sum())

    # ------------------------------------------------------------------
    # tuple operations
    # ------------------------------------------------------------------

    @property
    def n_tuples(self) -> int:
        """Total relation size ``N`` across all fragments."""
        return self._n_live

    def insert(self, node: int, values: Mapping[str, float]) -> int:
        """Insert a row at ``node``; returns the new global tuple id."""
        store = self.store(node)
        tuple_id = self._next_tuple_id
        store.insert(tuple_id, values)
        self._next_tuple_id += 1
        if tuple_id >= len(self._node_of):
            self._node_of = grown(self._node_of, tuple_id + 1, -1)
        self._node_of[tuple_id] = node
        self._n_live += 1
        self._sizes[node] = len(store)
        self._layout_version += 1
        self._write_version += 1
        return tuple_id

    def update(self, tuple_id: int, values: Mapping[str, float]) -> None:
        """Update attributes of an existing tuple wherever it lives."""
        node = self.locate(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        self._stores[node].update(tuple_id, values)
        self._write_version += 1

    def update_many(
        self,
        attribute: str,
        tuple_ids: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Overwrite ``attribute`` of many live tuples in one checked scatter.

        ``values[i]`` becomes the value of ``tuple_ids[i]``. The call is
        all or nothing: an unknown attribute, an unknown or deleted id, a
        repeated id or a length mismatch raises :class:`StoreError` before
        anything is written. Like :meth:`update`, it leaves
        :attr:`layout_version` alone and bumps :attr:`write_version`.
        """
        column = self._columns.array(attribute)
        ids = np.asarray(tuple_ids)
        new = np.asarray(values, dtype=np.float64)
        if ids.ndim != 1 or new.shape != ids.shape:
            raise StoreError(
                f"{ids.shape} tuple ids against {new.shape} values; "
                "need two equal-length 1-d sequences"
            )
        if ids.size == 0:
            return
        if ids.dtype.kind not in "iu":
            raise StoreError(f"tuple ids must be integers, got {ids.dtype}")
        if ids.min() < 0 or ids.max() >= self._next_tuple_id:
            raise StoreError("tuple ids outside the allocated range")
        if self._node_of[ids].min() < 0:
            raise StoreError("tuple ids of deleted tuples")
        # mark every written id: fewer marks than ids means one repeated
        written = np.zeros(self._next_tuple_id, dtype=bool)
        written[ids] = True
        if np.count_nonzero(written) != ids.size:
            raise StoreError("repeated tuple ids")
        column[ids] = new
        self._write_version += 1

    def delete(self, tuple_id: int) -> None:
        node = self.locate(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        store = self._stores[node]
        store.delete(tuple_id)
        self._node_of[tuple_id] = -1
        self._n_live -= 1
        self._sizes[node] = len(store)
        self._layout_version += 1
        self._write_version += 1

    def locate(self, tuple_id: int) -> int | None:
        """Node currently hosting ``tuple_id``; None for a deleted or unknown id."""
        if 0 <= tuple_id < self._next_tuple_id:
            node = self._node_of.item(tuple_id)
            if node >= 0:
                return node
        return None

    def read(self, tuple_id: int) -> dict[str, float]:
        """Current attribute values of a tuple (copy)."""
        node = self.locate(tuple_id)
        if node is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        return self._stores[node].get(tuple_id)

    def __contains__(self, tuple_id: int) -> bool:
        return self.locate(tuple_id) is not None

    def live_mask(self, tuple_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Which of ``tuple_ids`` name live tuples, as one boolean array."""
        ids = np.asarray(tuple_ids, dtype=np.int64)
        mask = np.zeros(ids.shape, dtype=bool)
        allocated = (ids >= 0) & (ids < self._next_tuple_id)
        mask[allocated] = self._node_of[ids[allocated]] >= 0
        return mask

    def gather(
        self, attributes: Iterable[str], tuple_ids: Sequence[int] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """The values of ``attributes`` at ``tuple_ids``, one column each.

        Column ``a`` holds attribute ``a`` of ``tuple_ids[i]`` at row ``i``;
        ids may repeat, as samples drawn with replacement do. An unknown
        attribute, or an id that is not an integer or names no live
        tuple, raises :class:`StoreError`.
        """
        ids = np.asarray(tuple_ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise StoreError(f"tuple ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64, copy=False)
        if not self.live_mask(ids).all():
            raise StoreError("tuple ids of unknown or deleted tuples")
        return {name: self._columns.array(name)[ids] for name in attributes}

    def iter_tuples(self) -> Iterator[tuple[int, int, dict[str, float]]]:
        """Iterate ``(tuple_id, node, row)`` across the whole relation.

        Nodes come in sorted order, the tuples of a node in its local
        order — the row order of :meth:`exact_values`. Each row is a fresh
        dict; writing to it does not touch the relation.
        """
        for node in sorted(self._stores):
            for tuple_id, row in self._stores[node].iter_rows():
                yield tuple_id, node, row

    # ------------------------------------------------------------------
    # oracle evaluation (for experiments / error measurement)
    # ------------------------------------------------------------------

    def _tuple_order(self) -> np.ndarray:
        """Every live tuple id in :meth:`iter_tuples` order.

        Rebuilt only when :attr:`layout_version` moves; value writes keep
        it valid.
        """
        if self._order is None or self._order[0] != self._layout_version:
            order = np.fromiter(
                chain.from_iterable(
                    self._stores[node].tuple_ids() for node in sorted(self._stores)
                ),
                dtype=np.int64,
                count=self._n_live,
            )
            self._order = (self._layout_version, order)
        return self._order[1]

    def exact_values(self, expression: Expression) -> np.ndarray:
        """``expression`` evaluated over every tuple (oracle access)."""
        self._schema.validate_expression(expression)
        # every attribute, so a constant expression still gets one value
        # per tuple
        columns = self.exact_columns(self._schema.attributes)
        return expression.evaluate_columns(columns)

    def exact_columns(self, attributes: Iterable[str]) -> dict[str, np.ndarray]:
        """:meth:`gather` over every live tuple, in :meth:`exact_values` order.

        Both read through one tuple order — fragments in sorted-node
        order, each in its local order — so row ``i`` of the returned
        columns is the tuple behind ``exact_values(...)[i]``.
        """
        return self.gather(attributes, self._tuple_order())
