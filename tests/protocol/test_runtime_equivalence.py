"""Golden-trace equivalence: the layered stack replays the monolith.

The transport/lifecycle/routing refactor of :mod:`repro.protocol` claims
*seed-for-seed identical* behavior — not "statistically the same", but
the same RNG draws in the same order, the same messages at the same
ticks, the same fault-log entries, the same span ids. The only proof
strong enough for that claim is byte equality of exported traces.

These tests re-run two small fixed-seed workloads — a faulted run (loss
+ jitter + retries over ``run_walks``) and a partitioned run (a scheduled
cut with health-aware breaker routing) — and compare the exported JSONL trace
byte-for-byte against reference files committed *before* the refactor
(``tests/protocol/golden/``). Any reordering of RNG draws, scheduling,
fault recording, or trace emission shows up as a diff.

Regenerate the fixtures (only when an *intentional* behavior change is
being made, with a CHANGES.md entry explaining why) with::

    PYTHONPATH=src python -m tests.protocol.test_runtime_equivalence --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.health import HealthConfig
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology
from repro.obs.export import export_trace
from repro.obs.tracer import SinkTracer
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine

GOLDEN_DIR = Path(__file__).parent / "golden"

#: every fixture the CI bench-smoke uploads as an artifact
FIXTURES = ("faulted_trace.jsonl", "partitioned_trace.jsonl")


def _faulted_trace_text(tmp_dir: Path) -> str:
    """A lossy, jittery run: timeouts, retries and failed walks."""
    n_nodes = 16
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    simulation = SimulationEngine()
    tracer = SinkTracer(record=True, clock=simulation.clock)
    plan = FaultPlan(
        FaultConfig(message_loss=0.08, latency_jitter=2), rng=417
    )
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(41),
        MessageLedger(),
        ProtocolConfig(variant="bounce"),
        faults=plan,
        retry=RetryPolicy(timeout=40, max_retries=2),
        tracer=tracer,
    )
    sampler.run_walks(origin=0, n=12, walk_length=8, allow_partial=True)
    path = export_trace(tracer.trace(), tmp_dir / "faulted_trace.jsonl")
    return path.read_text(encoding="utf-8")


def _partitioned_trace_text(tmp_dir: Path) -> str:
    """A scheduled cut with breaker routing: drops, trips, heal, probes."""
    n_nodes = 16
    duration = 60
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    simulation = SimulationEngine()
    tracer = SinkTracer(record=True, clock=simulation.clock)
    plan = PartitionPlan(
        PartitionSchedule(
            episodes=(PartitionEpisode(start=0, duration=duration),)
        ),
        rng=53,
    )
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(7),
        MessageLedger(),
        ProtocolConfig(variant="bounce"),
        retry=RetryPolicy(timeout=12, max_retries=1),
        tracer=tracer,
        partitions=plan,
        health=HealthConfig(failure_threshold=2, cooldown=10),
    )
    simulation.schedule_every(
        1,
        lambda t: plan.step(t, graph),
        priority=PRIORITY_CHURN,
        start=0,
        until=duration + 30,
    )
    # two generations of walks: the first meets the cut (drops, timeouts,
    # breaker trips), the second runs against the healed overlay and
    # re-closes the breakers through half-open probes
    sampler.run_walks(origin=0, n=14, walk_length=6, allow_partial=True)
    sampler.run_walks(origin=0, n=8, walk_length=6, allow_partial=True)
    path = export_trace(tracer.trace(), tmp_dir / "partitioned_trace.jsonl")
    return path.read_text(encoding="utf-8")


_PRODUCERS = {
    "faulted_trace.jsonl": _faulted_trace_text,
    "partitioned_trace.jsonl": _partitioned_trace_text,
}


class TestGoldenTraces:
    def test_fixtures_exist(self):
        for name in FIXTURES:
            assert (GOLDEN_DIR / name).is_file(), (
                f"missing golden fixture {name}; regenerate with "
                f"python -m tests.protocol.test_runtime_equivalence --write"
            )

    def test_faulted_run_replays_byte_identically(self, tmp_path):
        produced = _faulted_trace_text(tmp_path)
        committed = (GOLDEN_DIR / "faulted_trace.jsonl").read_text(
            encoding="utf-8"
        )
        assert produced == committed

    def test_partitioned_run_replays_byte_identically(self, tmp_path):
        produced = _partitioned_trace_text(tmp_path)
        committed = (GOLDEN_DIR / "partitioned_trace.jsonl").read_text(
            encoding="utf-8"
        )
        assert produced == committed

    def test_traces_exercise_the_failure_machinery(self, tmp_path):
        """The fixtures are only meaningful if faults actually fired."""
        faulted = (GOLDEN_DIR / "faulted_trace.jsonl").read_text(
            encoding="utf-8"
        )
        partitioned = (GOLDEN_DIR / "partitioned_trace.jsonl").read_text(
            encoding="utf-8"
        )
        assert '"message_loss"' in faulted
        assert '"partition_drop"' in partitioned
        assert '"breaker_trip"' in partitioned


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args != ["--write"]:
        print(__doc__)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, producer in _PRODUCERS.items():
        text = producer(GOLDEN_DIR)
        print(f"wrote {GOLDEN_DIR / name} ({len(text.splitlines())} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
