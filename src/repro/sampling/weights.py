"""Node weight functions for the sampling operator.

A weight function assigns each node ``v`` a non-negative weight ``w_v``;
the sampling operator draws node ``v`` with probability
``p_v = w_v / sum_u w_u`` (Section III). Weights depend only on *local*
node properties, so a node can report its own weight to a probing walker —
no global normalization is ever computed.

Weight functions here are plain callables ``node_id -> float``. The two
the paper names explicitly:

* ``uniform_weights()`` — ``w_v = 1`` (uniform node sampling);
* ``content_size_weights(db)`` — ``w_v = m_v`` (first stage of uniform
  tuple sampling). It is also a :class:`ContentSizeWeights`, which a walk
  snapshot weighs with one gather from the database's size array instead
  of one call per node.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.graph import OverlayGraph

WeightFunction = Callable[[int], float]


def uniform_weights() -> WeightFunction:
    """``w_v = 1`` for every node: sample nodes uniformly."""

    def weight(node: int) -> float:
        return 1.0

    return weight


class ContentSizeWeights:
    """``w_v = max(m_v, floor)``, per node or for many nodes at once.

    Calling it weighs one node, like any :data:`WeightFunction`;
    :meth:`gather` weighs an array of nodes with one read of
    :meth:`P2PDatabase.content_size_array`, with the same values. Either
    way a node without a store raises :class:`~repro.errors.StoreError`.
    """

    def __init__(self, database: P2PDatabase, floor: float) -> None:
        self.database = database
        self.floor = floor

    def __call__(self, node: int) -> float:
        return max(float(len(self.database.store(node))), self.floor)

    def gather(self, nodes: np.ndarray) -> np.ndarray:
        sizes = self.database.content_size_array(nodes).astype(np.float64)
        return np.maximum(sizes, self.floor)


def content_size_weights(
    database: P2PDatabase, floor: float = 0.0
) -> ContentSizeWeights:
    """``w_v = m_v``: node weight equals its current tuple count.

    Combined with a uniform local tuple draw this makes every tuple of the
    relation equally likely (two-stage sampling, Section III). ``floor``
    optionally lifts empty nodes to a tiny positive weight so the chain
    stays irreducible when fragments can be empty; tuples are still drawn
    only from non-empty nodes (the operator rejects and re-walks).
    """
    if floor < 0:
        raise SamplingError(f"weight floor must be >= 0, got {floor}")
    return ContentSizeWeights(database, floor)


def degree_weights(graph: OverlayGraph) -> WeightFunction:
    """``w_v = deg(v)``: the stationary law of an *unbiased* random walk.

    Provided for ablations — it is the distribution naive random-walk
    sampling converges to, and is generally biased for tuple sampling.
    """

    def weight(node: int) -> float:
        return float(graph.degree(node))

    return weight


def table_weights(weights: dict[int, float]) -> WeightFunction:
    """Fixed per-node weights from a dict (missing nodes are an error)."""
    for node, value in weights.items():
        if value < 0:
            raise SamplingError(f"weight of node {node} is negative ({value})")

    def weight(node: int) -> float:
        try:
            return float(weights[node])
        except KeyError:
            raise SamplingError(f"no weight for node {node}") from None

    return weight


def validate_weights(
    weight: WeightFunction, nodes: Iterable[int]
) -> None:
    """Check all ``nodes`` have finite non-negative weight, at least one > 0."""
    any_positive = False
    for node in nodes:
        value = weight(node)
        if not value >= 0.0:  # also catches NaN
            raise SamplingError(f"weight of node {node} is invalid ({value})")
        any_positive = any_positive or value > 0.0
    if not any_positive:
        raise SamplingError("all node weights are zero")
