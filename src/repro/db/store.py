"""Per-node local tuple store over shared value columns.

Each overlay node holds a disjoint horizontal fragment of the relation
``R``. The store supports the operations the system needs at tuple
granularity:

* autonomous local modification (insert / update / delete, Section II);
* uniform local sampling in O(1) — the second stage of the two-stage
  sampling scheme (Section III);
* content-size queries ``m_v`` used as the node weight for the first stage.

Tuple ids are globally unique integers assigned by the database layer.
Values live column-wise in :class:`Columns`: one float64 array per
attribute, indexed by tuple id, which every fragment of a relation
shares. A fragment keeps only which ids it holds — an id list plus a
position map, so delete and uniform choice are both constant time
(swap-pop).
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.errors import StoreError

#: initial column capacity; columns double whenever an id outgrows them
_INITIAL_CAPACITY = 64


def grown(array: np.ndarray, size: int, fill: float | int) -> np.ndarray:
    """``array`` doubled until it holds ``size`` entries, new tail ``fill``."""
    capacity = max(len(array), 1)
    while capacity < size:
        capacity *= 2
    if capacity == len(array):
        return array
    bigger = np.full(capacity, fill, dtype=array.dtype)
    bigger[: len(array)] = array
    return bigger


class Columns:
    """One float64 array per attribute, indexed by tuple id.

    The arrays are replaced (not resized in place) when they grow, so
    holders read them through :meth:`array` rather than keeping them.
    Slots of ids that were never written, or whose tuple is gone, hold
    stale values; the fragments know which ids are live.
    """

    def __init__(self, attributes: tuple[str, ...]) -> None:
        if not attributes:
            raise StoreError("schema needs at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise StoreError(f"duplicate attribute names in {attributes}")
        self.attributes = tuple(attributes)
        self._arrays = {
            name: np.zeros(_INITIAL_CAPACITY) for name in self.attributes
        }

    def array(self, attribute: str) -> np.ndarray:
        """The live column of ``attribute`` (writes go straight through)."""
        column = self._arrays.get(attribute)
        if column is None:
            raise StoreError(
                f"unknown attribute {attribute!r}; schema is {self.attributes}"
            )
        return column

    def write(self, tuple_id: int, values: Mapping[str, float]) -> None:
        """Store ``values`` (already checked against the schema) at ``tuple_id``."""
        if tuple_id < 0:
            raise StoreError(f"tuple ids must be non-negative, got {tuple_id}")
        for name in values:
            column = self._arrays[name]
            if tuple_id >= len(column):
                column = self._arrays[name] = grown(column, tuple_id + 1, 0.0)
            column[tuple_id] = values[name]

    def row(self, tuple_id: int) -> dict[str, float]:
        """A fresh ``{attribute: value}`` dict of the values at ``tuple_id``."""
        row: dict[str, float] = {}
        for name, column in self._arrays.items():
            row[name] = column.item(tuple_id)
        return row


class LocalStore:
    """Mutable fragment of the relation held by a single node.

    Parameters
    ----------
    attributes:
        The relation's shared :class:`Columns`, or the schema's attribute
        names for a standalone store with columns of its own. Unknown keys
        are rejected so a schema mismatch fails loudly at the write site.
    """

    def __init__(self, attributes: tuple[str, ...] | Columns) -> None:
        self._columns = (
            attributes if isinstance(attributes, Columns) else Columns(attributes)
        )
        self._names = frozenset(self._columns.attributes)
        self._ids: list[int] = []
        self._positions: dict[int, int] = {}

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._columns.attributes

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, tuple_id: int) -> bool:
        return tuple_id in self._positions

    def tuple_ids(self) -> list[int]:
        """All tuple ids currently stored, in local order (a copy)."""
        return list(self._ids)

    def iter_rows(self) -> Iterator[tuple[int, dict[str, float]]]:
        """Iterate ``(tuple_id, row)`` pairs; each row is a fresh dict."""
        for tuple_id in self._ids:
            yield tuple_id, self._columns.row(tuple_id)

    # ------------------------------------------------------------------
    # modification
    # ------------------------------------------------------------------

    def _check_attributes(self, values: Mapping[str, float], complete: bool) -> None:
        names = values.keys()
        if names == self._names:
            return
        unknown = names - self._names
        if unknown:
            raise StoreError(
                f"unknown attributes {sorted(unknown)}; schema is {self.attributes}"
            )
        if complete:
            missing = self._names - names
            raise StoreError(f"missing attributes {sorted(missing)} in row")

    def insert(self, tuple_id: int, values: Mapping[str, float]) -> None:
        """Insert a complete new row under ``tuple_id``."""
        if tuple_id in self._positions:
            raise StoreError(f"tuple {tuple_id} already exists")
        self._check_attributes(values, complete=True)
        self._columns.write(tuple_id, {name: float(values[name]) for name in values})
        self._positions[tuple_id] = len(self._ids)
        self._ids.append(tuple_id)

    def update(self, tuple_id: int, values: Mapping[str, float]) -> None:
        """Overwrite a subset of attributes of an existing row."""
        if tuple_id not in self._positions:
            raise StoreError(f"tuple {tuple_id} does not exist")
        self._check_attributes(values, complete=False)
        self._columns.write(tuple_id, {name: float(values[name]) for name in values})

    def delete(self, tuple_id: int) -> None:
        """Remove a row in O(1) (swap-pop on the id list)."""
        position = self._positions.get(tuple_id)
        if position is None:
            raise StoreError(f"tuple {tuple_id} does not exist")
        last_id = self._ids[-1]
        self._ids[position] = last_id
        self._positions[last_id] = position
        self._ids.pop()
        del self._positions[tuple_id]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, tuple_id: int) -> dict[str, float]:
        """A copy of the row stored under ``tuple_id``."""
        if tuple_id not in self._positions:
            raise StoreError(f"tuple {tuple_id} does not exist")
        return self._columns.row(tuple_id)

    def tuple_id_at(self, position: int) -> int:
        """The id at ``position`` of the local order (``0 <= position < len``).

        A uniform ``position`` is a uniform local tuple: drawing the
        positions of many fragments in one vector call and reading the ids
        here is :meth:`sample_uniform` for each of them.
        """
        return self._ids[position]

    def sample_uniform(self, rng: np.random.Generator) -> int:
        """Uniformly random tuple id — the local stage of two-stage sampling."""
        if not self._ids:
            raise StoreError("cannot sample from an empty store")
        return self._ids[int(rng.integers(len(self._ids)))]

    def column(self, attribute: str) -> np.ndarray:
        """All values of one attribute, ordered by the internal id list."""
        return self._columns.array(attribute)[self._ids]

    def columns(self) -> dict[str, np.ndarray]:
        """All attributes as parallel column arrays."""
        return {name: self.column(name) for name in self.attributes}
