"""Mutable unstructured overlay graph.

:class:`OverlayGraph` is the concrete :math:`G(V, E)` of Section II: an
undirected graph with arbitrary topology whose node set changes as peers
join and leave. It is optimized for the two access patterns the system
needs:

* random-walk steps (uniform neighbor choice, degree and weight lookups),
  served from plain adjacency lists plus a CSR snapshot cached per
  version;
* hop-distance queries (push-based baselines pay one message per hop),
  served by cached BFS.

Node ids are stable non-negative integers and are never reused, so a tuple
sampled at occasion ``k`` can name its host node at occasion ``k+1`` even
across churn.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TopologyError

Edge = tuple[int, int]
CSR = tuple[np.ndarray, np.ndarray, np.ndarray]


class OverlayGraph:
    """Undirected dynamic graph over stable integer node ids.

    Parameters
    ----------
    edges:
        Initial edge list. Node ids are inferred from the edges plus
        ``n_nodes`` isolated-node padding if given.
    n_nodes:
        If provided, nodes ``0..n_nodes-1`` all exist even when isolated in
        ``edges`` (isolated nodes are legal transiently but the sampler
        refuses to run on a disconnected overlay).
    """

    def __init__(self, edges: Iterable[Edge], n_nodes: int | None = None) -> None:
        self._adjacency: dict[int, list[int]] = {}
        self._neighbor_sets: dict[int, set[int]] = {}
        self._next_id = 0
        self._version = 0
        self._bfs_cache: dict[int, tuple[int, dict[int, int]]] = {}
        self._csr_cache: tuple[int, CSR] | None = None
        if n_nodes is not None:
            for node in range(n_nodes):
                self._ensure_node(node)
        for u, v in edges:
            self._ensure_node(u)
            self._ensure_node(v)
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped on every structural change."""
        return self._version

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: int) -> bool:
        return node in self._adjacency

    def nodes(self) -> list[int]:
        """All live node ids, sorted."""
        return sorted(self._adjacency)

    def iter_nodes(self) -> Iterator[int]:
        return iter(self._adjacency)

    def edges(self) -> list[Edge]:
        """All edges as sorted ``(min, max)`` pairs."""
        seen = []
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if u < v:
                    seen.append((u, v))
        return sorted(seen)

    def n_edges(self) -> int:
        return sum(len(v) for v in self._adjacency.values()) // 2

    def neighbors(self, node: int) -> list[int]:
        """Neighbor list of ``node`` (insertion-ordered, deterministic)."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._neighbor_sets and v in self._neighbor_sets[u]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _ensure_node(self, node: int) -> None:
        if node < 0:
            raise TopologyError(f"node ids must be non-negative, got {node}")
        if node not in self._adjacency:
            self._adjacency[node] = []
            self._neighbor_sets[node] = set()
            self._version += 1
        self._next_id = max(self._next_id, node + 1)

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge; no-op if it already exists."""
        if u == v:
            raise TopologyError(f"self loops are not allowed (node {u})")
        self._ensure_node(u)
        self._ensure_node(v)
        if v in self._neighbor_sets[u]:
            return
        self._adjacency[u].append(v)
        self._adjacency[v].append(u)
        self._neighbor_sets[u].add(v)
        self._neighbor_sets[v].add(u)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise TopologyError(f"edge ({u}, {v}) does not exist")
        self._adjacency[u].remove(v)
        self._adjacency[v].remove(u)
        self._neighbor_sets[u].discard(v)
        self._neighbor_sets[v].discard(u)
        self._version += 1

    def join(
        self,
        attach_to: Iterable[int] | None = None,
        n_links: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Add a new node and return its id.

        ``attach_to`` names the bootstrap neighbors explicitly; otherwise
        ``n_links`` distinct live nodes are chosen uniformly with ``rng``
        (mirroring a Gnutella-style bootstrap). ``rng`` may be a
        ``Generator`` threaded by the caller (the churn process does this)
        or an int seed; when omitted, the choice is seeded from the
        current topology state so identical graph histories pick
        identical bootstrap links on every rerun.
        """
        node = self._next_id
        self._ensure_node(node)
        if attach_to is None:
            # the new node is the last key of the insertion-ordered dict
            candidates = list(self._adjacency)[:-1]
            if candidates:
                if not isinstance(rng, np.random.Generator):
                    seed = (node, self._version) if rng is None else rng
                    rng = np.random.default_rng(seed)
                count = min(n_links, len(candidates))
                picks = rng.choice(len(candidates), size=count, replace=False)
                attach_to = [candidates[int(i)] for i in picks]
            else:
                attach_to = []
        for neighbor in attach_to:
            if neighbor == node:
                continue
            self.add_edge(node, neighbor)
        return node

    def leave(self, node: int, rewire: bool = True) -> None:
        """Remove ``node``.

        With ``rewire=True`` (default) the departing node's neighbors are
        stitched into a ring among themselves, the standard unstructured
        overlay repair that keeps the component connected through the
        departure.
        """
        if node not in self._adjacency:
            raise TopologyError(f"node {node} does not exist")
        neighbors = list(self._adjacency[node])
        for neighbor in neighbors:
            self._adjacency[neighbor].remove(node)
            self._neighbor_sets[neighbor].discard(node)
        del self._adjacency[node]
        del self._neighbor_sets[node]
        self._version += 1
        if rewire and len(neighbors) > 1:
            for left, right in zip(neighbors, neighbors[1:]):
                if not self.has_edge(left, right):
                    self.add_edge(left, right)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True when every live node is reachable from every other one."""
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        return len(self.hop_distances(start)) == len(self._adjacency)

    def components(self) -> list[list[int]]:
        """Connected components as sorted id lists, ordered by smallest member.

        Deterministic (no RNG, no cache interaction): the overlay repair
        in :meth:`bridge_components` and the partition healer both need a
        stable component enumeration to stay reproducible.
        """
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            member = {start}
            frontier = deque([start])
            while frontier:
                node = frontier.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor not in member:
                        member.add(neighbor)
                        frontier.append(neighbor)
            seen |= member
            components.append(sorted(member))
        return components

    def bridge_components(
        self,
        rng: np.random.Generator,
        max_degree: int | None = None,
    ) -> list[Edge]:
        """Reconnect a fragmented overlay by adding bridge edges.

        Chains the connected components together (component ``k`` to
        component ``k+1``, ordered by smallest member), which restores
        connectivity with the minimum number of new links. Within each
        component the bridge endpoint is drawn by ``rng`` among the nodes
        of minimal *current* degree that still have headroom under
        ``max_degree`` — degree accounting is live across the repair, so
        an interior component never funnels both of its bridges into one
        node unless it must. When every node in a component is already at
        the bound, connectivity wins: the minimal-degree node takes the
        bridge anyway (an overlay split is worse than one over-degree
        link). Returns the edges added, as sorted pairs.
        """
        if max_degree is not None and max_degree < 1:
            raise TopologyError(
                f"max_degree must be >= 1, got {max_degree}"
            )
        components = self.components()
        added: list[Edge] = []
        if len(components) <= 1:
            return added
        degree = {
            node: self.degree(node)
            for component in components
            for node in component
        }

        def pick(component: list[int]) -> int:
            eligible = [
                node
                for node in component
                if max_degree is None or degree[node] < max_degree
            ]
            if not eligible:
                eligible = component
            lowest = min(degree[node] for node in eligible)
            tied = [node for node in eligible if degree[node] == lowest]
            return tied[int(rng.integers(len(tied)))]

        for left, right in zip(components, components[1:]):
            u = pick(left)
            v = pick(right)
            self.add_edge(u, v)
            degree[u] += 1
            degree[v] += 1
            added.append((min(u, v), max(u, v)))
        return added

    def hop_distances(self, source: int) -> dict[int, int]:
        """BFS hop counts from ``source`` to every reachable node.

        Results are cached until the graph next mutates; push-based
        baselines call this once per topology version rather than once per
        pushed tuple.
        """
        cached = self._bfs_cache.get(source)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if source not in self._adjacency:
            raise TopologyError(f"node {source} does not exist")
        distances = {source: 0}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            next_hop = distances[node] + 1
            for neighbor in self._adjacency[node]:
                if neighbor not in distances:
                    distances[neighbor] = next_hop
                    frontier.append(neighbor)
        self._bfs_cache = {source: (self._version, distances)}
        return distances

    def csr(self) -> CSR:
        """Compact CSR snapshot ``(node_ids, offsets, targets)``.

        ``node_ids[i]`` is the id of compact row ``i`` (ascending);
        ``targets[offsets[i]:offsets[i+1]]`` are compact indices of its
        neighbors, in :meth:`neighbors` order. Random walks over a static
        occasion run on this snapshot for speed.

        The snapshot is cached until the graph next mutates, so every
        caller within one version shares the same arrays; they are marked
        read-only.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        order = sorted(self._adjacency)
        rows = [self._adjacency[node] for node in order]
        node_ids = np.fromiter(order, dtype=np.int64, count=len(order))
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
            out=offsets[1:],
        )
        neighbors = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1])
        )
        targets = np.searchsorted(node_ids, neighbors).astype(np.int64)
        for array in (node_ids, offsets, targets):
            array.setflags(write=False)
        snapshot = (node_ids, offsets, targets)
        self._csr_cache = (self._version, snapshot)
        return snapshot

    def copy(self) -> "OverlayGraph":
        """Deep structural copy (node ids and version preserved).

        The clone starts with empty BFS and CSR caches of its own: the
        two graphs mutate independently from here on, so no cached
        snapshot may be shared between them.
        """
        clone = OverlayGraph([], n_nodes=0)
        clone._adjacency = {u: list(vs) for u, vs in self._adjacency.items()}
        clone._neighbor_sets = {u: set(vs) for u, vs in self._neighbor_sets.items()}
        clone._next_id = self._next_id
        clone._version = self._version
        return clone
