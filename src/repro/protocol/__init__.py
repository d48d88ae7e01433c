"""Message-level execution of the sampling protocol.

The rest of the library simulates random walks *mathematically* (batched
transitions on a frozen snapshot) and counts one message per proposal —
the paper's cost model. This package executes the walk as an actual
distributed protocol over the event simulator: tokens hop node-to-node
with per-hop latency, nodes act only on local state, and every message is
a scheduled delivery. It exists to validate that

1. the protocol-executed walk samples the same distribution the transition
   matrix predicts (the math and the protocol agree), and
2. the abstract one-message-per-proposal cost model is *bracketed* by the
   two realizable protocols:

   * ``"bounce"`` — the token is optimistically forwarded; the receiver
     evaluates Metropolis acceptance with its own weight and bounces the
     token back on rejection. No steady-state overhead; accepted moves
     cost 1 message, rejected 2.
   * ``"cached"`` — neighbors advertise their weights on every change, so
     the sender evaluates acceptance locally and rejected proposals cost
     nothing; the advertisement traffic is the price.

The runtime also carries the failure model: inject a
:class:`~repro.network.faults.FaultPlan` for lossy links and crashes, and
a :class:`RetryPolicy` for origin-side walk supervision (timeouts with
backoff, bounded retries). See :mod:`repro.experiments.fault_tolerance`.

The package is a layered stack (see DESIGN.md §5): a
:class:`~repro.protocol.transport.Transport` owns delivery and the
failure model, a :class:`~repro.protocol.lifecycle.WalkLifecycle` state
machine owns supervision, a :class:`~repro.protocol.routing.RoutingPolicy`
owns first-hop choice, :class:`~repro.protocol.walkers.WalkExecutor` owns
the per-node handlers, and :class:`ProtocolSampler` is the thin
orchestrator tying them together. It runs single walks only: sharing
walks between co-due queries is the session's pool prefetch
(:meth:`repro.sampling.pool.SamplePool.prefetch`).

See :mod:`repro.experiments.protocol_validation` for the measurements.
"""

from repro.protocol.lifecycle import (
    TRANSITIONS,
    WalkLifecycle,
    WalkOutcome,
    WalkRecord,
)
from repro.protocol.messages import (
    SampleReturn,
    WalkToken,
    WeightAdvertisement,
)
from repro.protocol.routing import (
    HealthAwareRouting,
    RoutingPolicy,
    UniformRouting,
)
from repro.protocol.runtime import (
    ProtocolConfig,
    ProtocolSampler,
    RetryPolicy,
    WalkStats,
)
from repro.protocol.transport import SimTransport, Transport

__all__ = [
    "HealthAwareRouting",
    "ProtocolConfig",
    "ProtocolSampler",
    "RetryPolicy",
    "RoutingPolicy",
    "SampleReturn",
    "SimTransport",
    "TRANSITIONS",
    "Transport",
    "UniformRouting",
    "WalkLifecycle",
    "WalkOutcome",
    "WalkRecord",
    "WalkStats",
    "WalkToken",
    "WeightAdvertisement",
]
