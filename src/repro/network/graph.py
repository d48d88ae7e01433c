"""Mutable unstructured overlay graph.

:class:`OverlayGraph` is the concrete :math:`G(V, E)` of Section II: an
undirected graph with arbitrary topology whose node set changes as peers
join and leave. It is optimized for the two access patterns the system
needs:

* random-walk steps (uniform neighbor choice, degree and weight lookups),
  served from plain adjacency lists plus a CSR snapshot cached per
  version. The graph logs which nodes each mutation touched, and the
  next snapshot is spliced from the previous one: untouched rows are
  copied and renumbered, only touched rows are read from the adjacency
  lists, so a churn round pays for what it changed, not for the overlay;
* hop-distance queries (push-based baselines pay one message per hop,
  sampled agents walk home), served by a level-synchronous BFS over the
  CSR snapshot, cached per (version, source) as an array aligned with
  the snapshot's rows and, on demand, as a ``{node: hops}`` dict.

Node ids are stable non-negative integers and are never reused, so a tuple
sampled at occasion ``k`` can name its host node at occasion ``k+1`` even
across churn.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable

import numpy as np

from repro.errors import TopologyError

Edge = tuple[int, int]
CSR = tuple[np.ndarray, np.ndarray, np.ndarray]
_Search = tuple[int, int, np.ndarray, dict[int, int] | None]

#: the "previous snapshot" of a graph that has none: every row is touched
_NO_CSR: CSR = (
    np.zeros(0, dtype=np.int64),
    np.zeros(1, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
)


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
        #: (version, source, hops per CSR row, the same as a dict or None)
        self._bfs_cache: _Search = (-1, -1, np.zeros(0, dtype=np.int64), None)
        self._csr_cache: tuple[int, CSR] | None = None
        #: ids whose row may differ from the cached snapshot's
        self._touched: set[int] = set()
        #: ``list(self._adjacency)`` while no node has left since it was
        #: taken; join draws bootstrap peers from it
        self._arrival_order: list[int] | None = None
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
            self._touched.add(node)
            if self._arrival_order is not None:
                self._arrival_order.append(node)
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
        self._touched.add(u)
        self._touched.add(v)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise TopologyError(f"edge ({u}, {v}) does not exist")
        self._adjacency[u].remove(v)
        self._adjacency[v].remove(u)
        self._neighbor_sets[u].discard(v)
        self._neighbor_sets[v].discard(u)
        self._touched.add(u)
        self._touched.add(v)
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
            # candidates are the live nodes in insertion order; the new
            # node is the last entry
            if self._arrival_order is None:
                self._arrival_order = list(self._adjacency)
            candidates = self._arrival_order
            n_candidates = len(candidates) - 1
            if n_candidates:
                if not isinstance(rng, np.random.Generator):
                    seed = (node, self._version) if rng is None else rng
                    rng = np.random.default_rng(seed)
                count = min(n_links, n_candidates)
                picks = rng.choice(n_candidates, size=count, replace=False)
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
        self._touched.add(node)
        self._touched.update(neighbors)
        self._arrival_order = None
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
        return bool((self.hop_counts(start) >= 0).all())

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

    def hop_counts(self, source: int) -> np.ndarray:
        """BFS hop counts from ``source``, aligned with :meth:`csr`'s rows.

        Entry ``i`` is the hop distance to node ``csr()[0][i]``, ``-1``
        where it is unreachable. The search is level-synchronous over the
        cached CSR snapshot (one gather of the frontier's edges per
        level), and its read-only result is cached until the graph next
        mutates or another source is asked for.
        """
        return self._bfs(source)[2]

    def hop_distances(self, source: int) -> dict[int, int]:
        """BFS hop counts from ``source`` to every reachable node.

        The dict form of :meth:`hop_counts`, built from the same cached
        search: push-based baselines and the protocol's return routing
        call this once per topology version rather than once per pushed
        tuple or hop. Callers must treat it as read-only.
        """
        version, _, hops, distances = self._bfs(source)
        if distances is None:
            reached = np.flatnonzero(hops >= 0)
            distances = dict(
                zip(self.csr()[0][reached].tolist(), hops[reached].tolist())
            )
            self._bfs_cache = (version, source, hops, distances)
        return distances

    def _bfs(self, source: int) -> _Search:
        """The cached ``(version, source, hops, dict)`` search from ``source``."""
        cached = self._bfs_cache
        if cached[0] == self._version and cached[1] == source:
            return cached
        if source not in self._adjacency:
            raise TopologyError(f"node {source} does not exist")
        node_ids, offsets, targets = self.csr()
        hops = np.full(node_ids.size, -1, dtype=np.int64)
        frontier = np.searchsorted(node_ids, [source])
        level = 0
        while frontier.size:
            hops[frontier] = level
            level += 1
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            # the frontier rows' edge positions, concatenated
            edges = np.arange(int(counts.sum())) + np.repeat(
                starts - (np.cumsum(counts) - counts), counts
            )
            seen = np.zeros(node_ids.size, dtype=bool)
            seen[targets[edges]] = True
            seen &= hops < 0
            frontier = np.flatnonzero(seen)
        hops.setflags(write=False)
        self._bfs_cache = (self._version, source, hops, None)
        return self._bfs_cache

    def csr(self) -> CSR:
        """Compact CSR snapshot ``(node_ids, offsets, targets)``.

        ``node_ids[i]`` is the id of compact row ``i`` (ascending);
        ``targets[offsets[i]:offsets[i+1]]`` are compact indices of its
        neighbors, in :meth:`neighbors` order. Random walks over a static
        occasion run on this snapshot for speed.

        The snapshot is cached until the graph next mutates, so every
        caller within one version shares the same arrays; they are marked
        read-only. A new snapshot is spliced from the previous one: rows
        of nodes no mutation touched since are copied, their compact
        targets renumbered with one gather, and only touched rows (both
        endpoints of an added or removed edge, a new node, a leaver's
        neighbors) are read from the adjacency lists. Without a previous
        snapshot every row counts as touched.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        old_ids, old_offsets, old_targets = (
            cached[1] if cached is not None else _NO_CSR
        )
        touched = sorted(self._touched if cached is not None else self._adjacency)
        self._touched = set()
        # untouched rows of the previous snapshot (a leaver is touched)
        touched_ids = np.fromiter(touched, dtype=np.int64, count=len(touched))
        at = np.searchsorted(old_ids, touched_ids)
        found = at < old_ids.size
        found[found] = old_ids[at[found]] == touched_ids[found]
        kept = np.ones(old_ids.size, dtype=bool)
        kept[at[found]] = False
        live = [node for node in touched if node in self._adjacency]
        rows = [self._adjacency[node] for node in live]
        fresh = np.fromiter(live, dtype=np.int64, count=len(live))
        node_ids = np.sort(np.concatenate([old_ids[kept], fresh]))
        is_fresh = np.zeros(node_ids.size, dtype=bool)
        is_fresh[np.searchsorted(node_ids, fresh)] = True
        old_degrees = np.diff(old_offsets)
        degrees = np.empty(node_ids.size, dtype=np.int64)
        degrees[~is_fresh] = old_degrees[kept]
        degrees[is_fresh] = np.fromiter(
            map(len, rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.zeros(node_ids.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        fresh_edges = np.repeat(is_fresh, degrees)
        neighbors = np.fromiter(
            chain.from_iterable(rows),
            dtype=np.int64,
            count=int(degrees[is_fresh].sum()),
        )
        targets = np.empty(int(offsets[-1]), dtype=np.int64)
        targets[fresh_edges] = np.searchsorted(node_ids, neighbors)
        targets[~fresh_edges] = np.searchsorted(node_ids, old_ids)[
            old_targets[np.repeat(kept, old_degrees)]
        ]
        for array in (node_ids, offsets, targets):
            array.setflags(write=False)
        snapshot = (node_ids, offsets, targets)
        self._csr_cache = (self._version, snapshot)
        return snapshot

    def copy(self) -> "OverlayGraph":
        """Deep structural copy (node ids and version preserved).

        The clone starts with empty BFS and CSR caches and an empty
        mutation log of its own: the two graphs mutate independently from
        here on, so no cached snapshot may be shared between them, and
        the clone's first snapshot is a full build.
        """
        clone = OverlayGraph([], n_nodes=0)
        clone._adjacency = {u: list(vs) for u, vs in self._adjacency.items()}
        clone._neighbor_sets = {u: set(vs) for u, vs in self._neighbor_sets.items()}
        clone._next_id = self._next_id
        clone._version = self._version
        return clone
