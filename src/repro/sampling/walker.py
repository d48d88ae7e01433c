"""The random-walk sampling kernel.

A sampling agent starts at the originating node and is forwarded from node
to node with the Metropolis probabilities until the walk has mixed; the
node it then sits on is the sample (Section V). Every walk of an occasion
runs on one immutable :class:`WalkContext` snapshot of the overlay, which
carries the Metropolis acceptance probability of every directed edge
(``WalkContext.accept``, Eq. 12) next to the CSR adjacency.

:func:`batch_walk` is the one kernel: many agents advanced in lock-step,
each proposal a table lookup. This is the paper's "batch mode" (Section
VI-A): to derive ``n`` samples, ``n`` walks run with overlapping
convergence time. The sparse forwarding matrix
(:func:`repro.sampling.mixing.sparse_transition_matrix`) reads the same
table, and :func:`repro.sampling.metropolis.acceptance_probability` is the
scalar reference both agree with.

The rounds run in C (:mod:`repro.sampling.native`), compiled with the
system compiler on the first call of a process, so a proposal costs a
few nanoseconds. Where no compiler is found, a call runs the Python
kernel in two phases. While more than :data:`_TAIL_MOVERS` agents move,
a round is a few vectorized numpy operations over the movers, whose
fixed dispatch cost does not depend on how many move. The rounds after
that move few agents and are stepped one agent at a time in plain
Python, which costs per proposal instead. The Python kernel is also the
reference the C kernel is tested against.

Cost model: every *proposal* costs one message (the agent, carrying the
weight probe, crosses one overlay link; a rejected proposal still crossed
the link and must hop back, which we conservatively count as the same one
message the paper's per-step accounting uses). Lazy self-loops are decided
locally and are free, so the kernel does not walk them either: ``L`` lazy
steps are ``Binomial(L, 1 - laziness)`` proposals of the non-lazy chain
(``P_lazy^L = sum_k Bin(L, 1 - laziness)(k) P^k``), drawn once per agent
as its step *budget*. The budgets are what the agent sent, so they are
what the ledger books and what a lossy network can drop.

Randomness: a call draws the budgets, then one stream of uniforms: per
round, the moving agents' neighbor picks, then their acceptance coins.
The C kernel and the vector phase draw the stream in blocks of whole
rounds, and the scalar tail draws all its rounds with one more
``rng.random`` call; each tail agent reads its own pick and coin slots
of every round, so it sees the doubles the vector phase would have
handed it. Since ``Generator.random`` is chunk-invariant, the doubles
(and the generator state after the call) are the ones one call per
round would give, and the ends are those of the all-vector kernel bit
for bit, on either kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.errors import SamplingError, TopologyError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.sampling import native
from repro.sampling.weights import ContentSizeWeights, WeightFunction

#: uniforms per ``rng.random`` call of :func:`batch_walk`, about: a block
#: holds the whole rounds that start within one window of this many
#: values, which keeps memory flat for long calls with many agents
_BLOCK_VALUES = 1 << 16

#: in the Python kernel (where the C kernel did not build), a round that
#: moves at most this many agents, and every round after it, is stepped
#: one agent at a time in Python. A vector round is a dozen numpy
#: dispatches, about 3.5 us however few agents move; a scalar step is
#: about 0.35 us. They cross near 10 movers (10^4-node power-law overlay,
#: 2-core x86 host); 8 leaves room for the tail's fixed set-up
_TAIL_MOVERS = 8


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

    ``accept`` is the read-only Metropolis edge table, aligned with
    ``targets``: for the edge ``e`` from ``i`` to ``j``,
    ``accept[e] = min(1, (w_j * d_i) / (w_i * d_j))``, and 1 where
    ``w_i = 0`` (the walk leaves a state the target gives no mass).
    """

    node_ids: np.ndarray  # compact index -> node id
    offsets: np.ndarray  # CSR row offsets
    targets: np.ndarray  # CSR neighbor compact indices
    accept: np.ndarray  # Metropolis acceptance per CSR edge
    degrees: np.ndarray  # degree per compact index
    weights: np.ndarray  # weight per compact index
    graph_version: int

    @classmethod
    def _build(
        cls,
        graph: OverlayGraph,
        weight: WeightFunction,
        node_ids: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
    ) -> "WalkContext":
        """Validate a CSR snapshot, weigh its nodes and tabulate acceptance.

        Content-size weights are read with one gather from the database's
        size array; any other weight function is called once per node.
        ``offsets``, ``targets`` and ``degrees`` come out C-contiguous
        int64 and ``accept`` C-contiguous float64, the layout the compiled
        kernel reads through raw pointers (no copy when already so).
        """
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        degrees = np.diff(offsets)
        if np.any(degrees == 0) and node_ids.size > 1:
            isolated = node_ids[degrees == 0]
            raise TopologyError(
                f"walk context leaves nodes {isolated[:5].tolist()} isolated; "
                "the sampling walk cannot reach or leave them"
            )
        if isinstance(weight, ContentSizeWeights):
            weights = weight.gather(node_ids)
        else:
            weights = np.array(
                [weight(int(node)) for node in node_ids], dtype=float
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise SamplingError("weights must be finite and non-negative")
        if weights.sum() <= 0:
            raise SamplingError("all node weights are zero")
        source = np.repeat(np.arange(node_ids.size), degrees)
        weight_i = weights[source]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (weights[targets] * degrees[source]) / (
                weight_i * degrees[targets]
            )
        ratio[weight_i == 0.0] = 1.0
        accept = np.minimum(1.0, ratio, dtype=np.float64)
        accept.flags.writeable = False
        return cls(
            node_ids=node_ids,
            offsets=offsets,
            targets=targets,
            accept=accept,
            degrees=degrees,
            weights=weights,
            graph_version=graph.version,
        )

    @classmethod
    def from_graph(
        cls, graph: OverlayGraph, weight: WeightFunction
    ) -> "WalkContext":
        return cls._build(graph, weight, *graph.csr())

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
        return cls._build(graph, weight, node_ids, offsets, targets)

    @cached_property
    def addresses(self) -> tuple[int, int, int, int]:
        """Addresses of ``offsets``, ``degrees``, ``targets`` and ``accept``.

        The compiled kernel's first four arguments, read once per context:
        a numpy address lookup costs about a microsecond, and the arrays
        never move.
        """
        return (
            self.offsets.ctypes.data,
            self.degrees.ctypes.data,
            self.targets.ctypes.data,
            self.accept.ctypes.data,
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


def batch_walk(
    context: WalkContext,
    start_positions: np.ndarray,
    lengths: int | np.ndarray,
    rng: np.random.Generator,
    ledger: MessageLedger | None = None,
    laziness: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance many agents along lazy walks of ``lengths`` transitions.

    ``start_positions`` holds *compact indices* (see
    :meth:`WalkContext.compact_index`); ``lengths`` is one walk length or
    one per agent. A lazy step stands still, so a lazy walk of length
    ``L`` is ``Binomial(L, 1 - laziness)`` steps of the non-lazy chain:
    each agent's *budget* of proposals is drawn once (no draw when
    ``laziness == 0``, where the budget is the length), and the agents,
    sorted by budget so the still-moving ones are a prefix, propose in
    lock-step until every budget is spent. Each round reads the
    neighbor picks of the moving agents, then their acceptance coins
    (compared against ``context.accept``), from one stream of uniforms.
    The rounds run in the compiled kernel where it built; in the Python
    kernel, once a round moves at most :data:`_TAIL_MOVERS` agents, the
    rest of the call steps them one at a time over the same slots. Both
    give the same ends and generator state bit for bit. An edgeless
    (single-node) context leaves every agent where it is and spends
    nothing. Returns the final compact indices and the budgets, both in
    the agents' order.
    """
    if not 0.0 <= laziness < 1.0:
        raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
    positions = np.array(start_positions, dtype=np.int64, copy=True)
    if positions.size and (
        positions.min() < 0 or positions.max() >= context.n_nodes
    ):
        raise SamplingError(
            f"start positions must be compact indices in [0, {context.n_nodes})"
        )
    lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), positions.shape)
    if lengths.size and lengths.min() < 0:
        raise SamplingError(f"walk lengths must be >= 0, got {lengths.min()}")
    if context.targets.size == 0:
        return positions, np.zeros(positions.size, dtype=np.int64)
    budgets = (
        rng.binomial(lengths, 1.0 - laziness) if laziness > 0.0 else lengths.copy()
    )
    # longest budget first: round r moves the agents whose budget exceeds r
    order = np.argsort(-budgets, kind="stable")
    walking = positions[order]
    descending = budgets[order]
    n_moving = np.searchsorted(-descending, -np.arange(budgets.max(initial=0)))
    # the compiled kernel runs every round. Without it, the vector phase
    # runs the rounds that move more than _TAIL_MOVERS agents; since the
    # movers are a prefix of a budget-sorted order, every later round is
    # at least as small and belongs to the scalar tail
    compiled = native.walk_rounds()
    if compiled is None:
        head = int(np.searchsorted(-n_moving, -_TAIL_MOVERS))
        # exact: every degree is below 2**53, and the product is float64
        degrees = context.degrees.astype(np.float64)
    else:
        head = n_moving.size
        n_moving = n_moving.astype(np.int64, copy=False)
    offsets = context.offsets
    targets = context.targets
    accept = context.accept
    if head:
        # round r takes 2 k_r uniforms, its k_r picks then its k_r coins;
        # a block is the rounds that start within one _BLOCK_VALUES window
        vector = n_moving[:head]
        blocks = [vector]
        if 2 * int(vector.sum()) > _BLOCK_VALUES:
            first = np.cumsum(2 * vector) - 2 * vector
            cuts = np.flatnonzero(np.diff(first // _BLOCK_VALUES)) + 1
            blocks = np.split(vector, cuts)
        for rounds in blocks:
            block = rng.random(2 * int(rounds.sum()))
            if compiled is not None:
                # every array is C-contiguous with the dtype C reads (the
                # context's by WalkContext._build); starts are range-checked
                # and every uniform is below 1, so C reads only in bounds
                compiled(
                    *context.addresses, walking.ctypes.data,
                    rounds.ctypes.data, rounds.size, block.ctypes.data,
                )
                continue
            at = 0
            for k in rounds.tolist():
                current = walking[:k]
                edge = offsets[current]
                edge += (block[at : at + k] * degrees[current]).astype(np.int64)
                at += k
                moved = (block[at : at + k] < accept[edge]).nonzero()[0]
                at += k
                walking[moved] = targets[edge[moved]]
    tail = n_moving[head:]
    if tail.size:
        # the same slots, one agent at a time: tail round t starts at
        # uniform firsts[t], agent j's pick is firsts[t] + j and its coin
        # firsts[t] + k_t + j. Python floats are IEEE doubles and int()
        # truncates like astype, so every edge and coin is the vector one;
        # the context is read through memoryviews, which copy nothing
        uniforms = rng.random(2 * int(tail.sum())).tolist()
        firsts = (np.cumsum(2 * tail) - 2 * tail).tolist()
        counts = tail.tolist()
        row_offsets, row_degrees = memoryview(offsets), memoryview(context.degrees)
        edge_targets, edge_accept = memoryview(targets), memoryview(accept)
        for j, budget in enumerate(descending[: counts[0]].tolist()):
            node = walking.item(j)
            for at, k in zip(firsts[: budget - head], counts):
                edge = row_offsets[node] + int(uniforms[at + j] * row_degrees[node])
                if uniforms[at + k + j] < edge_accept[edge]:
                    node = edge_targets[edge]
            walking[j] = node
    positions[order] = walking
    if ledger is not None:
        ledger.record_walk_steps(int(budgets.sum()))
    return positions, budgets
