"""Correlated failures: scheduled overlay partitions and flapping links.

The fault layer in :mod:`repro.network.faults` draws every loss and crash
independently, which cannot express the *correlated* failures real
unstructured overlays suffer: a backbone cut splits the network into
regions, a congested link flaps up and down, a regional outage takes a
whole neighborhood dark at once. This module is the correlated
counterpart:

* :class:`PartitionEpisode` declares one scheduled cut — at ``start`` the
  overlay is split into ``len(fractions)`` named regions for ``duration``
  ticks, then heals;
* :class:`PartitionSchedule` bundles episodes with a per-step link-flap
  process (individual links silently dropping all traffic for a few
  ticks);
* :class:`PartitionPlan` is one seeded realization. Like
  :class:`~repro.network.faults.FaultPlan` it owns a private generator
  (its own RNG stream — DGL011 labels ``PartitionPlan`` as the
  ``partition`` sink) so enabling partitions never perturbs walk or fault
  randomness.

Partitions block *delivery*, not topology: the graph keeps its edges, but
every message whose endpoints sit in different regions of an open episode
(or on a flapped link) is dropped at the same protocol delivery point
where :class:`FaultPlan` loses messages. That is what makes health
scoring meaningful — nodes keep proposing walks into the dark region and
observe the correlated timeouts. Crashes *during* a partition can leave
the graph genuinely fragmented once the episode heals; with
``heal_policy="repair"`` the plan then stitches the components back
together via :meth:`~repro.network.graph.OverlayGraph.bridge_components`.

The plan composes with :class:`~repro.network.faults.FaultPlan` /
:class:`~repro.network.faults.CrashProcess` /
:class:`~repro.network.churn.ChurnProcess`: all can be stepped in the
same simulation tick against the same graph.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.network.faults import FaultLog
from repro.network.graph import Edge, OverlayGraph
from repro.obs.schema import EVENT_PARTITION_HEAL, EVENT_PARTITION_OPEN

if TYPE_CHECKING:  # pragma: no cover - layering: network stays obs-light
    from repro.obs.tracer import Tracer

HEAL_POLICIES = ("repair", "passive")


def _validated_fractions(fractions: tuple[float, ...]) -> None:
    if len(fractions) < 2:
        raise ValueError(
            f"a partition needs >= 2 regions, got fractions={fractions}"
        )
    if any(f <= 0.0 for f in fractions):
        raise ValueError(f"region fractions must be > 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(
            f"region fractions must sum to 1, got {fractions} "
            f"(sum {sum(fractions)})"
        )


class PartitionEpisode:
    """One scheduled cut: regions by fraction, open for a time window.

    ``fractions`` gives the share of live nodes assigned to each region
    when the episode opens (region membership is drawn by the plan's RNG,
    so reruns split identically); ``name`` labels the episode in traces
    and the audit log.
    """

    def __init__(
        self,
        start: int,
        duration: int,
        fractions: tuple[float, ...] = (0.5, 0.5),
        name: str = "",
    ) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if duration < 1:
            raise ValueError(f"duration must be >= 1, got {duration}")
        _validated_fractions(tuple(fractions))
        self.start = start
        self.duration = duration
        self.fractions = tuple(fractions)
        self.name = name

    @property
    def end(self) -> int:
        """First tick at which the episode is healed."""
        return self.start + self.duration

    def label(self, index: int) -> str:
        """Display name: the explicit name, or ``episode-<index>``."""
        return self.name or f"episode-{index}"


class PartitionSchedule:
    """Episodes plus an independent per-step link-flap process."""

    def __init__(
        self,
        episodes: tuple[PartitionEpisode, ...] = (),
        flap_probability: float = 0.0,
        flap_duration: int = 3,
    ) -> None:
        if not 0.0 <= flap_probability < 1.0:
            raise ValueError(
                f"flap_probability must be in [0, 1), got {flap_probability}"
            )
        if flap_duration < 1:
            raise ValueError(
                f"flap_duration must be >= 1, got {flap_duration}"
            )
        self.episodes = tuple(episodes)
        self.flap_probability = flap_probability
        self.flap_duration = flap_duration

    @property
    def is_noop(self) -> bool:
        """True when the schedule never blocks anything."""
        return not self.episodes and self.flap_probability == 0.0


class PartitionPlan:
    """One seeded realization of a :class:`PartitionSchedule`.

    Drive it with :meth:`step` once per simulation tick (alongside churn
    and crash processes); query :meth:`blocked` at delivery points and
    :meth:`reachable` / :meth:`reachable_fraction` when re-scoping
    estimates. All partition randomness (region draws, flaps, heal-time
    bridge repair) flows through the plan's private generator.

    :attr:`epoch` counts the changes of partition state: a reader that
    caches anything derived from it keys the cache on the epoch instead
    of being told of each cut or heal.
    """

    def __init__(
        self,
        schedule: PartitionSchedule,
        rng: np.random.Generator | int,
        tracer: "Tracer | None" = None,
        heal_policy: str = "repair",
        max_degree: int | None = None,
    ) -> None:
        if heal_policy not in HEAL_POLICIES:
            raise ValueError(
                f"heal_policy must be one of {HEAL_POLICIES}, "
                f"got {heal_policy!r}"
            )
        self.schedule = schedule
        self.heal_policy = heal_policy
        self._max_degree = max_degree
        self._rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        # imported lazily to keep repro.network importable without obs
        from repro.obs.tracer import NULL_TRACER

        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: audit trail of partition opens/heals/flaps, same shape as the
        #: FaultPlan log so experiments can interleave both timelines
        self.log = FaultLog()
        #: episode index -> node -> region, for currently open episodes
        self._regions: dict[int, dict[int, int]] = {}
        self._opened: set[int] = set()
        self._healed: set[int] = set()
        #: flapped link -> first tick at which it is back up
        self._flapped: dict[Edge, int] = {}
        #: True while at least one episode is open or a link is flapped.
        #: A plain attribute (maintained by :meth:`step`) rather than a
        #: property: the protocol runtime reads it per *message*, and an
        #: inactive plan must cost one attribute load on that hot path.
        self.active = False
        #: bumped whenever the set of open episodes or flapped links
        #: changes; it keys :meth:`reachable`'s cache (with the graph
        #: version), the sample pool's freshness and the walk length
        self.epoch = 0
        #: (graph, graph version, epoch, origin) of the last BFS result;
        #: the graph compares by identity (OverlayGraph has no __eq__)
        self._reachable_key: tuple[OverlayGraph, int, int, int] | None = None
        self._reachable_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        """True when the schedule never blocks anything."""
        return self.schedule.is_noop

    def region_of(self, episode_index: int, node: int) -> int | None:
        """``node``'s region in an open episode (lazily assigned).

        Nodes that join the overlay while an episode is open are assigned
        a region on first contact, drawn from the episode's fractions with
        the plan's RNG — a late joiner lands on one side of the cut, it
        does not straddle it. Returns ``None`` when the episode is not
        open.
        """
        assignment = self._regions.get(episode_index)
        if assignment is None:
            return None
        region = assignment.get(node)
        if region is None:
            fractions = np.array(
                self.schedule.episodes[episode_index].fractions
            )
            region = int(self._rng.choice(len(fractions), p=fractions))
            assignment[node] = region
        return region

    def blocked(self, u: int, v: int) -> bool:
        """True when delivery between ``u`` and ``v`` is currently cut."""
        for index in self._regions:
            if self.region_of(index, u) != self.region_of(index, v):
                return True
        if not self._flapped:
            return False
        edge = (u, v) if u < v else (v, u)
        return edge in self._flapped

    def reachable(self, graph: OverlayGraph, origin: int) -> dict[int, int]:
        """BFS hop counts from ``origin`` over *unblocked* edges only.

        This is the population a querying node can actually sample while
        the partition is open — the scope its estimates must be honest
        about.

        The result is cached per (graph, ``graph.version``, partition
        epoch, origin): while none of them changes, every call returns the
        *same* dict, so callers must treat it as read-only. A hit draws no
        plan randomness, and neither would a recompute: the first BFS
        already assigned a region to every node it touched, and a late
        joiner bumps ``graph.version``.
        """
        if not self.active:
            return graph.hop_distances(origin)
        key = (graph, graph.version, self.epoch, origin)
        if key == self._reachable_key:
            return self._reachable_cache
        distances = {origin: 0}
        frontier = deque([origin])
        while frontier:
            node = frontier.popleft()
            next_hop = distances[node] + 1
            for neighbor in graph.neighbors(node):
                if neighbor not in distances and not self.blocked(
                    node, neighbor
                ):
                    distances[neighbor] = next_hop
                    frontier.append(neighbor)
        self._reachable_key = key
        self._reachable_cache = distances
        return distances

    def reachable_fraction(self, graph: OverlayGraph, origin: int) -> float:
        """Fraction of live nodes reachable from ``origin`` right now."""
        if len(graph) == 0:
            return 1.0
        return len(self.reachable(graph, origin)) / len(graph)

    # ------------------------------------------------------------------
    # the per-tick process
    # ------------------------------------------------------------------

    def step(self, time: int, graph: OverlayGraph) -> None:
        """Advance the plan to ``time``: open/heal due episodes, flap links.

        Bumps the partition epoch when the set of open episodes or
        flapped links changes (an open, a heal, a flap starting or one
        expiring).
        """
        changed = False
        if self._flapped:
            still_down = {
                edge: up_at
                for edge, up_at in self._flapped.items()
                if up_at > time
            }
            changed = len(still_down) != len(self._flapped)
            self._flapped = still_down
        for index, episode in enumerate(self.schedule.episodes):
            if (
                index not in self._opened
                and episode.start <= time < episode.end
            ):
                self._open_episode(index, episode, time, graph)
                changed = True
            if (
                index in self._opened
                and index not in self._healed
                and time >= episode.end
            ):
                self._heal_episode(index, episode, time, graph)
                changed = True
        flap_p = self.schedule.flap_probability
        if flap_p > 0.0:
            for u, v in graph.edges():
                if float(self._rng.random()) < flap_p:
                    changed = changed or (u, v) not in self._flapped
                    self._flapped[(u, v)] = (
                        time + self.schedule.flap_duration
                    )
                    self.log.record(
                        time, "link_flap", detail=f"({u}, {v})"
                    )
        if changed:
            self.epoch += 1
        self.active = bool(self._regions) or bool(self._flapped)

    def _open_episode(
        self,
        index: int,
        episode: PartitionEpisode,
        time: int,
        graph: OverlayGraph,
    ) -> None:
        nodes = graph.nodes()
        order = self._rng.permutation(len(nodes))
        boundaries = [
            int(round(cumulative * len(nodes)))
            for cumulative in np.cumsum(episode.fractions)
        ]
        assignment = {
            nodes[int(position)]: bisect_right(boundaries, rank)
            for rank, position in enumerate(order)
        }
        # rounding may push the last boundary below len(nodes); clamp any
        # overflow rank into the final region
        n_regions = len(episode.fractions)
        for node, region in assignment.items():
            if region >= n_regions:
                assignment[node] = n_regions - 1
        self._regions[index] = assignment
        self._opened.add(index)
        n_blocked = sum(
            1
            for u, v in graph.edges()
            if assignment.get(u) != assignment.get(v)
        )
        self.log.record(
            time,
            "partition_open",
            detail=(
                f"{episode.label(index)}: {n_regions} regions, "
                f"{n_blocked} links cut for {episode.duration} ticks"
            ),
        )
        self._tracer.event(
            EVENT_PARTITION_OPEN,
            time=time,
            episode=episode.label(index),
            n_regions=n_regions,
            n_blocked=n_blocked,
            duration=episode.duration,
        )

    def _heal_episode(
        self,
        index: int,
        episode: PartitionEpisode,
        time: int,
        graph: OverlayGraph,
    ) -> None:
        assignment = self._regions.pop(index)
        self._healed.add(index)
        n_restored = sum(
            1
            for u, v in graph.edges()
            if assignment.get(u) != assignment.get(v)
        )
        n_bridges = 0
        if (
            self.heal_policy == "repair"
            and len(graph) > 1
            and not graph.is_connected()
        ):
            # crashes during the episode fragmented the graph for real;
            # stitch the survivors back into one component
            n_bridges = len(
                graph.bridge_components(self._rng, max_degree=self._max_degree)
            )
        repaired = n_bridges > 0
        self.log.record(
            time,
            "partition_heal",
            detail=(
                f"{episode.label(index)}: {n_restored} links restored"
                + (f", {n_bridges} bridge edges added" if repaired else "")
            ),
        )
        self._tracer.event(
            EVENT_PARTITION_HEAL,
            time=time,
            episode=episode.label(index),
            n_restored=n_restored,
            repaired=repaired,
            n_bridges=n_bridges,
        )
