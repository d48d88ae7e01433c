"""The protocol orchestrator: wiring lifecycle × routing × transport.

Executes Metropolis sampling walks as scheduled message deliveries on a
:class:`~repro.sim.engine.SimulationEngine`. This module is deliberately
thin: it validates configuration, wires the layered stack, and exposes
the run-level API. The layers do the work:

* :mod:`repro.protocol.transport` — unreliable delivery: hop latency,
  jitter, message loss, partitions, crashed receivers
  (:class:`~repro.protocol.transport.SimTransport` over the simulator);
* :mod:`repro.protocol.lifecycle` — origin-side supervision as an
  explicit state machine (PENDING → IN_FLIGHT → RETRYING → DONE/FAILED)
  owning timeouts, backoff, retries, and the walk-span hooks;
* :mod:`repro.protocol.routing` — pluggable first-hop choice
  (:class:`~repro.protocol.routing.UniformRouting`, or breaker-aware
  :class:`~repro.protocol.routing.HealthAwareRouting` when a
  :class:`~repro.network.health.HealthConfig` is supplied);
* :mod:`repro.protocol.walkers` — the per-node handlers (both protocol
  variants, acceptance, hop-by-hop return routing, ledger accounting);
* :mod:`repro.protocol.advertisements` — cached-variant weight caches
  and their maintenance traffic.

The runtime runs single walks only: multi-query walk sharing is the
session's pool prefetch (:meth:`repro.sampling.pool.SamplePool.prefetch`).

The overlay is *unreliable*: an optional :class:`FaultPlan` injects
per-hop message loss, delivery-latency jitter, and (via
:class:`~repro.network.faults.CrashProcess`, scheduled by the caller)
mid-walk node crashes. The stack degrades instead of crashing — every
failure becomes a recorded :class:`~repro.network.faults.FaultEvent`,
walks are retried under the :class:`RetryPolicy`, and all messages land
in a :class:`MessageLedger` with the same categories the abstract cost
model uses, so costs stay directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError, TopologyError
from repro.network.churn import ChurnEvent
from repro.network.faults import FaultLog, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.health import HealthConfig, HealthMonitor
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.tracer import NULL_TRACER, Tracer, bridge_fault_log
from repro.protocol.advertisements import AdvertisementCache
from repro.protocol.lifecycle import (
    RetryPolicy,
    WalkLifecycle,
    WalkOutcome,
    WalkStats,
)
from repro.protocol.routing import (
    HealthAwareRouting,
    RoutingPolicy,
    UniformRouting,
)
from repro.protocol.transport import SimTransport
from repro.protocol.walkers import WalkExecutor
from repro.sampling.weights import WeightFunction
from repro.sim.engine import SimulationEngine

__all__ = [
    "ProtocolConfig",
    "ProtocolSampler",
    "RetryPolicy",
    "VARIANTS",
    "WalkOutcome",
    "WalkStats",
]

VARIANTS = ("bounce", "cached")


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol variant and timing.

    ``hop_latency`` is the delivery delay of one overlay hop in simulator
    ticks; ``laziness`` is the Metropolis self-loop mass (lazy steps burn
    a tick but no message).
    """

    variant: str = "bounce"
    hop_latency: int = 1
    laziness: float = 0.5

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise SamplingError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.hop_latency < 1:
            raise SamplingError(
                f"hop_latency must be >= 1, got {self.hop_latency}"
            )
        if not 0.0 <= self.laziness < 1.0:
            raise SamplingError(
                f"laziness must be in [0, 1), got {self.laziness}"
            )


class ProtocolSampler:
    """Distributed Metropolis sampling as a real message protocol.

    With ``faults`` and ``retry`` left at ``None`` the runtime behaves as
    a perfectly reliable network: no losses, no jitter, no timeouts — and
    bit-identical traffic to the pre-failure-model implementation.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        weight: WeightFunction,
        simulation: SimulationEngine,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        config: ProtocolConfig | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        partitions: PartitionPlan | None = None,
        health: HealthConfig | None = None,
    ) -> None:
        if not graph.is_connected():
            raise TopologyError("the protocol needs a connected overlay")
        self._graph = graph
        self._config = config if config is not None else ProtocolConfig()
        self.ledger = ledger if ledger is not None else MessageLedger()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: audit trail of everything that went wrong (shared with the
        #: fault plan's log when one is injected, so crash/loss events and
        #: protocol-observed failures interleave in one timeline)
        self.fault_log: FaultLog = faults.log if faults is not None else FaultLog()
        bridge_fault_log(self.fault_log, self._tracer)
        self._transport = SimTransport(
            graph,
            simulation,
            self._config.hop_latency,
            self.fault_log,
            faults=faults,
            partitions=partitions,
        )
        #: origin-side link health; None keeps first-hop choice (and the
        #: RNG draw sequence) bit-identical to the health-free runtime
        self.health: HealthMonitor | None = (
            HealthMonitor(health, tracer=self._tracer, fault_log=self.fault_log)
            if health is not None
            else None
        )
        routing: RoutingPolicy = (
            HealthAwareRouting(graph, self.health, rng, self.fault_log)
            if self.health is not None
            else UniformRouting(rng)
        )
        self._lifecycle = WalkLifecycle(
            transport=self._transport,
            tracer=self._tracer,
            fault_log=self.fault_log,
            clock=simulation.clock,
            routing=routing,
            retry=retry,
        )
        self._ads: AdvertisementCache | None = (
            AdvertisementCache(
                graph, weight, self.ledger, self._tracer, self._transport
            )
            if self._config.variant == "cached"
            else None
        )
        self._executor = WalkExecutor(
            graph=graph,
            weight=weight,
            rng=rng,
            variant=self._config.variant,
            hop_latency=self._config.hop_latency,
            laziness=self._config.laziness,
            transport=self._transport,
            lifecycle=self._lifecycle,
            routing=routing,
            ledger=self.ledger,
            fault_log=self.fault_log,
            advertisements=self._ads,
        )
        self._lifecycle.bind(self._executor.inject)
        if self._ads is not None:
            self._ads.flood()

    # ------------------------------------------------------------------
    # cached-variant weight advertisement
    # ------------------------------------------------------------------

    @property
    def advertisements_sent(self) -> int:
        return self._ads.sent if self._ads is not None else 0

    def notify_weight_change(self, node: int) -> None:
        """Cached variant: ``node``'s weight changed, re-advertise it.

        Call this whenever the weight function's value for a node changes
        (e.g. content size after inserts/deletes). The bounce variant
        needs no such calls — its correctness never depends on caches.
        """
        if self._ads is not None:
            self._ads.notify_weight_change(node)

    def handle_topology_change(
        self,
        joined: tuple[int, ...] | list[int] | set[int] = (),
        left: tuple[int, ...] | list[int] | set[int] = (),
    ) -> None:
        """Refresh cached-variant advertisements after overlay changes.

        The bounce variant is cache-free and ignores this.
        """
        if self._ads is not None:
            self._ads.handle_topology_change(joined=joined, left=left)

    def handle_churn(self, event: ChurnEvent) -> None:
        """Convenience: :meth:`handle_topology_change` from a churn event."""
        self.handle_topology_change(joined=event.joined, left=event.left)

    # ------------------------------------------------------------------
    # walk initiation and supervision
    # ------------------------------------------------------------------

    @property
    def bounces(self) -> int:
        """Rejected optimistic forwards bounced back (bounce variant)."""
        return self._executor.bounces

    def start_walk(self, origin: int, walk_length: int) -> int:
        """Launch one sampling walk; returns its walker id."""
        if origin not in self._graph:
            raise SamplingError(f"origin {origin} is not in the overlay")
        if walk_length < 1:
            raise SamplingError(f"walk_length must be >= 1, got {walk_length}")
        return self._lifecycle.launch(origin, walk_length)

    def run_walks(
        self,
        origin: int,
        n: int,
        walk_length: int,
        allow_partial: bool = False,
        deadline: int | None = None,
    ) -> list[int]:
        """Launch ``n`` walks, drive the simulator, return sampled nodes.

        Runs the event queue dry (or up to ``deadline`` ticks past the
        current time when given). With ``allow_partial=False`` every walk
        must produce a sample or :class:`SamplingError` is raised; with
        ``allow_partial=True`` the achieved samples are returned and the
        shortfall is visible in :attr:`walk_stats` and ``fault_log`` —
        the caller degrades its precision honestly instead of aborting.
        """
        walker_ids = [self.start_walk(origin, walk_length) for _ in range(n)]
        self._lifecycle.drive(walker_ids, deadline)
        outcomes = self._lifecycle.outcomes
        missing = [w for w in walker_ids if w not in outcomes]
        if missing and not allow_partial:
            raise SamplingError(
                f"{len(missing)} of {n} walks never completed "
                f"(first missing: {missing[:5]}; faults: "
                f"{self.fault_log.summary()}); pass allow_partial=True to "
                f"degrade instead"
            )
        return [
            outcomes[w].sampled_node for w in walker_ids if w in outcomes
        ]

    def outcome(self, walker_id: int) -> WalkOutcome | None:
        return self._lifecycle.outcomes.get(walker_id)

    @property
    def walk_stats(self) -> WalkStats:
        """Aggregate supervision outcomes across all launched walks."""
        return self._lifecycle.stats
