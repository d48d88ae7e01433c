"""Random-walk sampling agents.

A sampling agent starts at the originating node and is forwarded from node
to node with the Metropolis probabilities until the walk has mixed; the
node it then sits on is the sample (Section V). Two implementations share
one immutable :class:`WalkContext` snapshot of the overlay:

* :class:`MetropolisWalker` — a single agent, stepped one transition at a
  time. Used by tests and by callers that need per-step introspection.
* :func:`batch_walk` — many agents advanced in lock-step with vectorized
  numpy operations. This is the paper's "batch mode" (Section VI-A): to
  derive ``n`` samples, ``n`` walks run with overlapping convergence time.

Cost model: every *proposal* costs one message (the agent, carrying the
weight probe, crosses one overlay link; a rejected proposal still crossed
the link and must hop back, which we conservatively count as the same one
message the paper's per-step accounting uses). Lazy self-loops are decided
locally and are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import SamplingError, TopologyError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.sampling.weights import WeightFunction


@dataclass(frozen=True)
class WalkContext:
    """Immutable snapshot of the overlay for one sampling occasion.

    The paper assumes the network is effectively static within a sampling
    occasion (Section II); the context freezes topology and weights so all
    walks of the occasion see one consistent graph. ``graph_version``
    records which overlay version was frozen, letting the operator detect
    staleness. A full-overlay context shares the graph's cached, read-only
    :meth:`OverlayGraph.csr` arrays with every other context of the same
    version.
    """

    node_ids: np.ndarray  # compact index -> node id
    offsets: np.ndarray  # CSR row offsets
    targets: np.ndarray  # CSR neighbor compact indices
    degrees: np.ndarray  # degree per compact index
    weights: np.ndarray  # weight per compact index
    graph_version: int

    @classmethod
    def from_graph(
        cls, graph: OverlayGraph, weight: WeightFunction
    ) -> "WalkContext":
        node_ids, offsets, targets = graph.csr()
        degrees = np.diff(offsets)
        if np.any(degrees == 0) and node_ids.size > 1:
            isolated = node_ids[degrees == 0]
            raise TopologyError(
                f"overlay has isolated nodes {isolated[:5].tolist()}; "
                "the sampling walk cannot reach or leave them"
            )
        weights = np.array([weight(int(node)) for node in node_ids], dtype=float)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise SamplingError("weights must be finite and non-negative")
        if weights.sum() <= 0:
            raise SamplingError("all node weights are zero")
        return cls(
            node_ids=node_ids,
            offsets=offsets,
            targets=targets,
            degrees=degrees.astype(np.int64),
            weights=weights,
            graph_version=graph.version,
        )

    @classmethod
    def from_subgraph(
        cls,
        graph: OverlayGraph,
        weight: WeightFunction,
        nodes: Iterable[int],
    ) -> "WalkContext":
        """Snapshot of the subgraph induced by ``nodes``.

        Used when a partition confines sampling to the origin's reachable
        region: the walk must mix over the population it can actually
        touch, not the full (momentarily fictional) overlay. The scope is
        cut out of the graph's cached :meth:`OverlayGraph.csr` snapshot:
        edges whose far endpoint falls outside ``nodes`` are dropped and
        neighbor order is kept. The remaining subgraph must leave no
        member isolated (a reachable-set scope is connected by
        construction, so this only trips on bad callers).
        """
        all_ids, all_offsets, all_targets = graph.csr()
        node_ids = np.unique(np.fromiter(nodes, dtype=np.int64))
        if node_ids.size == 0:
            raise SamplingError("cannot build a walk context over no nodes")
        unknown = np.setdiff1d(node_ids, all_ids)
        if unknown.size:
            raise TopologyError(
                f"scope names nodes {unknown[:5].tolist()} that are not in "
                "the overlay"
            )
        rows = np.searchsorted(all_ids, node_ids)
        member = np.zeros(all_ids.size, dtype=bool)
        member[rows] = True
        # keep each member row's in-scope neighbors, in CSR order; the
        # running member count renumbers full-graph rows to scope rows
        source = np.repeat(np.arange(all_ids.size), np.diff(all_offsets))
        kept = member[source] & member[all_targets]
        targets = (np.cumsum(member) - 1)[all_targets[kept]]
        offsets = np.zeros(node_ids.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(source[kept], minlength=all_ids.size)[rows],
            out=offsets[1:],
        )
        degrees = np.diff(offsets)
        if np.any(degrees == 0) and node_ids.size > 1:
            isolated = node_ids[degrees == 0]
            raise TopologyError(
                f"scope leaves nodes {isolated[:5].tolist()} isolated; "
                "a sampling scope must be internally connected"
            )
        weights = np.array([weight(int(node)) for node in node_ids], dtype=float)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise SamplingError("weights must be finite and non-negative")
        if weights.sum() <= 0:
            raise SamplingError("all node weights are zero")
        return cls(
            node_ids=node_ids,
            offsets=offsets,
            targets=targets,
            degrees=degrees.astype(np.int64),
            weights=weights,
            graph_version=graph.version,
        )

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.size)

    def compact_index(self, node: int) -> int:
        """Compact index of overlay node id ``node``."""
        position = int(np.searchsorted(self.node_ids, node))
        if position >= self.node_ids.size or self.node_ids[position] != node:
            raise SamplingError(f"node {node} is not in this walk context")
        return position

    def target_distribution(self) -> np.ndarray:
        """The normalized stationary law ``p_v`` over compact indices."""
        return self.weights / self.weights.sum()


class MetropolisWalker:
    """A single Metropolis sampling agent over a :class:`WalkContext`."""

    def __init__(
        self,
        context: WalkContext,
        start_node: int,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        laziness: float = 0.5,
    ) -> None:
        if not 0.0 <= laziness < 1.0:
            raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
        self._context = context
        self._rng = rng
        self._ledger = ledger
        self._laziness = laziness
        self._position = context.compact_index(start_node)
        self.steps_taken = 0
        self.proposals_sent = 0

    @property
    def position(self) -> int:
        """Current node id the agent sits on."""
        return int(self._context.node_ids[self._position])

    def step(self) -> int:
        """One chain transition; returns the (possibly unchanged) node id."""
        context = self._context
        self.steps_taken += 1
        if self._laziness > 0.0 and self._rng.random() < self._laziness:
            return self.position
        i = self._position
        degree_i = int(context.degrees[i])
        offset = int(context.offsets[i])
        j = int(context.targets[offset + int(self._rng.integers(degree_i))])
        self.proposals_sent += 1
        if self._ledger is not None:
            self._ledger.record_walk_steps(1)
        weight_i = context.weights[i]
        weight_j = context.weights[j]
        degree_j = int(context.degrees[j])
        if weight_i == 0.0:
            accept = 1.0
        else:
            accept = min(1.0, (weight_j * degree_i) / (weight_i * degree_j))
        if self._rng.random() < accept:
            self._position = j
        return self.position

    def walk(self, steps: int) -> int:
        """Advance ``steps`` transitions; returns the final node id."""
        if steps < 0:
            raise SamplingError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()
        return self.position


def batch_walk(
    context: WalkContext,
    start_positions: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    ledger: MessageLedger | None = None,
    laziness: float = 0.5,
) -> np.ndarray:
    """Advance many agents ``steps`` transitions in lock-step.

    ``start_positions`` holds *compact indices* (see
    :meth:`WalkContext.compact_index`); the return value is the final
    compact indices. All agents share the frozen context, so this is
    exactly ``k`` independent chains, vectorized per transition.
    """
    if steps < 0:
        raise SamplingError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= laziness < 1.0:
        raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
    positions = np.array(start_positions, dtype=np.int64, copy=True)
    if positions.size == 0 or steps == 0:
        return positions
    n_walkers = positions.size
    proposals_sent = 0
    weights = context.weights
    degrees = context.degrees
    offsets = context.offsets
    targets = context.targets
    for _ in range(steps):
        if laziness > 0.0:
            active = rng.random(n_walkers) >= laziness
            if not np.any(active):
                continue
        else:
            active = np.ones(n_walkers, dtype=bool)
        current = positions[active]
        degree_i = degrees[current]
        picks = (rng.random(current.size) * degree_i).astype(np.int64)
        proposed = targets[offsets[current] + picks]
        proposals_sent += int(current.size)
        weight_i = weights[current]
        weight_j = weights[proposed]
        ratio = np.empty(current.size, dtype=float)
        zero_mask = weight_i == 0.0
        ratio[zero_mask] = 1.0
        safe = ~zero_mask
        ratio[safe] = (weight_j[safe] * degree_i[safe]) / (
            weight_i[safe] * degrees[proposed[safe]]
        )
        accepted = rng.random(current.size) < np.minimum(1.0, ratio)
        moved = current.copy()
        moved[accepted] = proposed[accepted]
        positions[active] = moved
    if ledger is not None:
        ledger.record_walk_steps(proposals_sent)
    return positions
