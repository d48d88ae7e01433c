"""Tests for cross-node causal assembly (repro.obs.causal).

Two layers of guarantees are pinned here. *Correctness on clean runs*:
with no faults and constant hop latency, delivery is FIFO, so the
assembled chain of every walk must equal the send order exactly —
property-tested across seeds, sizes, and both protocol variants.
*Tolerance on damaged runs*: orphans (late deliveries of superseded
attempts), gaps (dropped transits), unrooted segments (missing walk
spans), and truncated JSONL tails must all degrade the assembly
gracefully instead of raising — the operator reads a damaged trace
precisely when something went wrong.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology
from repro.obs import causal
from repro.obs.export import export_trace, import_trace
from repro.obs.schema import SPAN_HOP_SEGMENT, SPAN_WALK
from repro.obs.tracer import SinkTracer
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import PRIORITY_CHURN, SimulationEngine

#: a committed v1 protocol trace whose walks include one coalesced batch
V1_TRACE = Path(__file__).parent / "golden" / "v1_faulted_trace.jsonl"


def _run(
    variant="bounce",
    seed=3,
    n=6,
    walk_length=6,
    faults=None,
    retry=None,
    partitions=None,
):
    """One traced run; returns (trace, sampler)."""
    n_nodes = 16
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    simulation = SimulationEngine()
    tracer = SinkTracer(record=True, clock=simulation.clock)
    sampler = ProtocolSampler(
        graph,
        uniform_weights(),
        simulation,
        np.random.default_rng(seed),
        MessageLedger(),
        ProtocolConfig(variant=variant),
        faults=faults,
        retry=retry,
        partitions=partitions,
        tracer=tracer,
    )
    if partitions is not None:
        simulation.schedule_every(
            1,
            lambda t: partitions.step(t, graph),
            priority=PRIORITY_CHURN,
            start=0,
            until=200,
        )
    sampler.run_walks(
        origin=0, n=n, walk_length=walk_length, allow_partial=True
    )
    return tracer.trace(), sampler


class TestCleanAssembly:
    def test_every_walk_gets_a_tree_with_a_chain(self):
        trace, _ = _run()
        assembly = causal.assemble(trace)
        assert len(assembly.walks) == len(list(trace.spans_named(SPAN_WALK)))
        assert not assembly.unrooted
        assert assembly.n_orphans == 0
        for tree in assembly.walks:
            assert tree.chain  # every clean walk moved at least once
            assert tree.chain_latency <= tree.walk_latency
            assert tree.supervision_latency >= 0

    def test_attribution_buckets_cover_all_hops(self):
        trace, _ = _run()
        assembly = causal.assemble(trace)
        attribution = causal.hop_latency_attribution(assembly)
        assert set(attribution) <= {"walk", "return", "orphan"}
        assert sum(s["count"] for s in attribution.values()) == float(
            assembly.n_hops + len(assembly.unrooted)
        )
        for stats in attribution.values():
            assert stats["mean"] <= stats["max"]

    def test_v1_trace_assembles_to_bare_trees(self):
        """A trace with walk spans but no hop segments (v1, or the
        non-recording fast path) yields empty chains, not errors."""
        trace, _ = _run()
        trace.spans = [
            span for span in trace.spans if span.name != SPAN_HOP_SEGMENT
        ]
        assembly = causal.assemble(trace)
        assert assembly.walks
        assert all(not tree.chain for tree in assembly.walks)
        assert assembly.orphan_rate == 0.0

    def test_critical_paths_scope_the_run(self):
        trace, _ = _run()
        paths = causal.critical_paths(trace)
        assert paths and paths[0].scope == "run"
        run = paths[0]
        assert run.n_walks == len(causal.assemble(trace).walks)
        assert run.chain_latency + run.supervision_latency == run.walk_latency

    def test_batch_scopes_cover_coalesced_batches(self):
        """A recorded protocol batch (the committed v1 golden holds one of
        nine walks carrying ``consumers``) gets its own ``batch:`` scope."""
        trace = import_trace(V1_TRACE)
        paths = causal.critical_paths(trace)
        batch_paths = [p for p in paths if p.scope.startswith("batch:")]
        assert len(batch_paths) == 1
        consumed = [
            span
            for span in trace.spans_named(SPAN_WALK)
            if "consumers" in span.attrs
        ]
        assert batch_paths[0].n_walks == len(consumed) == 9
        assert batch_paths[0].walk_latency >= batch_paths[0].chain_latency


class TestDamageTolerance:
    def test_lossy_run_leaves_gaps_not_failures(self):
        trace, sampler = _run(
            faults=FaultPlan(
                FaultConfig(message_loss=0.2, latency_jitter=3), rng=23
            ),
            retry=RetryPolicy(timeout=25, max_retries=2),
            n=12,
        )
        assert sampler.fault_log.count("message_loss") > 0
        assembly = causal.assemble(trace)
        assert len(assembly.walks) == 12
        # chains only ever contain final-attempt, non-orphaned transits
        for tree in assembly.walks:
            final = tree.span.attrs.get("attempts", 1)
            assert all(hop.attempt == final for hop in tree.chain)
            assert all(not hop.orphaned for hop in tree.chain)
            assert tree.chain_latency <= tree.walk_latency
        # superseded-attempt deliveries are claimed by no chain
        for tree in assembly.walks:
            for hop in tree.orphans:
                assert hop.orphaned or hop.attempt != tree.span.attrs.get(
                    "attempts", 1
                )

    def test_partitioned_run_assembles(self):
        plan = PartitionPlan(
            PartitionSchedule(
                episodes=(PartitionEpisode(start=0, duration=40),)
            ),
            rng=5,
        )
        trace, sampler = _run(
            partitions=plan,
            retry=RetryPolicy(timeout=12, max_retries=1),
            n=10,
        )
        assert sampler.fault_log.count("partition_drop") > 0
        assembly = causal.assemble(trace)
        assert assembly.walks
        paths = causal.critical_paths(trace, assembly)
        assert paths[0].scope == "run"
        assert paths[0].chain_latency <= paths[0].walk_latency

    def test_missing_walk_span_collects_unrooted(self):
        trace, _ = _run()
        victim = next(iter(trace.spans_named(SPAN_WALK)))
        n_victim_hops = sum(
            1
            for span in trace.spans_named(SPAN_HOP_SEGMENT)
            if span.attrs.get("ctx_trace") == victim.span_id
        )
        assert n_victim_hops > 0
        trace.spans = [s for s in trace.spans if s.span_id != victim.span_id]
        assembly = causal.assemble(trace)
        assert len(assembly.unrooted) == n_victim_hops
        assert assembly.orphan_rate > 0.0
        # summaries stay JSON-portable
        assert assembly.summary()["n_unrooted"] == n_victim_hops

    def test_truncated_tail_is_dropped_and_flagged(self, tmp_path):
        trace, _ = _run()
        path = export_trace(trace, tmp_path / "run.jsonl")
        text = path.read_text(encoding="utf-8")
        # cut mid-way through the final line (a killed run's tail)
        path.write_text(text[: len(text) - 40], encoding="utf-8")
        damaged = import_trace(path)
        assert damaged.meta.get("truncated") is True
        assert len(damaged.spans) <= len(trace.spans)
        assembly = causal.assemble(damaged)
        assert assembly.walks  # the intact prefix still assembles
        causal.critical_paths(damaged, assembly)  # and is still boundable

    def test_truncation_on_a_line_boundary_loses_only_records(self, tmp_path):
        trace, _ = _run()
        path = export_trace(trace, tmp_path / "run.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-3]), encoding="utf-8")
        damaged = import_trace(path)
        # whole-line truncation parses cleanly (no flag), three fewer records
        assert "truncated" not in damaged.meta
        assert len(damaged.spans) + len(damaged.events) == (
            len(trace.spans) + len(trace.events) - 3
        )
        causal.assemble(damaged)


# -- hypothesis properties ---------------------------------------------------
#
# Clean runs are deterministic FIFO: no fault plan means no jitter, so
# every transit takes exactly hop_latency ticks and deliveries happen in
# send order. That makes the assembled chain fully checkable.

_SEEDS = st.integers(min_value=0, max_value=2**16)
_N_WALKS = st.integers(min_value=1, max_value=6)
_LENGTHS = st.integers(min_value=1, max_value=10)
_VARIANTS = st.sampled_from(("bounce", "cached"))


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, n=_N_WALKS, walk_length=_LENGTHS, variant=_VARIANTS)
def test_clean_chain_is_send_order(seed, n, walk_length, variant):
    trace, _ = _run(variant=variant, seed=seed, n=n, walk_length=walk_length)
    assembly = causal.assemble(trace)
    assert len(assembly.walks) == n
    assert assembly.n_orphans == 0
    for tree in assembly.walks:
        # delivery order == send order: the (end, span_id) sort must
        # reproduce ascending span ids (spans are numbered at send time)
        assert [h.span_id for h in tree.chain] == sorted(
            h.span_id for h in tree.chain
        )
        # the chain is connected: each transit departs where the
        # previous one arrived, starting at the origin
        origin = tree.span.attrs["origin"]
        previous = origin
        for hop in tree.chain:
            assert hop.from_node == previous
            previous = hop.to_node
        # the last transit is the sample return arriving home
        if tree.chain:
            assert tree.chain[-1].to_node == origin
        assert tree.chain_latency <= tree.walk_latency


@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, n=_N_WALKS, variant=_VARIANTS)
def test_critical_path_is_bounded_by_walk_latency(seed, n, variant):
    trace, _ = _run(variant=variant, seed=seed, n=n, walk_length=5)
    for path in causal.critical_paths(trace):
        assert path.chain_latency <= path.walk_latency
        assert path.supervision_latency == (
            path.walk_latency - path.chain_latency
        )
        assert sum(h.latency for h in path.hops) == path.chain_latency
