"""Tests for span-context propagation through the protocol stack.

The contract under test: the origin-side supervisor is the *only*
stamping authority — it mints one fresh :class:`TraceContext` per
attempt — and every message of that attempt carries the context
unchanged, so hop segments recorded at other nodes join back to the walk
that caused them (trace format v2, assembled by :mod:`repro.obs.causal`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.schema import (
    EVENT_CTX_FORWARD,
    EVENT_HOP,
    EVENT_RETRY,
    SPAN_HOP_SEGMENT,
    SPAN_WALK,
)
from repro.obs.tracer import SinkTracer
from repro.protocol.messages import (
    SampleReturn,
    TraceContext,
    WalkToken,
    mint_context,
)
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import SimulationEngine


def _mesh(n=16):
    return OverlayGraph(mesh_topology(n), n_nodes=n)


def _traced_sampler(variant="bounce", seed=3, faults=None, retry=None):
    simulation = SimulationEngine()
    tracer = SinkTracer(record=True, clock=simulation.clock)
    sampler = ProtocolSampler(
        _mesh(),
        uniform_weights(),
        simulation,
        np.random.default_rng(seed),
        MessageLedger(),
        ProtocolConfig(variant=variant),
        faults=faults,
        retry=retry,
        tracer=tracer,
    )
    return sampler, tracer


class TestMinting:
    def test_mint_context_builds_the_frozen_triple(self):
        ctx = mint_context(7, 7, 2)
        assert ctx == TraceContext(trace_id=7, span_id=7, attempt=2)

    def test_context_is_immutable(self):
        ctx = mint_context(1, 1, 1)
        try:
            ctx.attempt = 5  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover - frozen dataclass must refuse
            raise AssertionError("TraceContext is not frozen")

    def test_launch_stamps_context_rooted_at_the_walk_span(self):
        sampler, _tracer = _traced_sampler()
        sampler.run_walks(origin=0, n=3, walk_length=5)
        for walker_id in range(3):
            record = sampler._lifecycle.record(walker_id)
            assert record.ctx is not None
            assert record.ctx.trace_id == record.span.span_id
            assert record.ctx.span_id == record.span.span_id
            assert record.ctx.attempt == record.attempt

    def test_context_minted_even_without_a_recording_tracer(self):
        """Minting is unconditional: the wire format carries context even
        when nothing records it (a remote peer might be tracing)."""
        sampler = ProtocolSampler(
            _mesh(),
            uniform_weights(),
            SimulationEngine(),
            np.random.default_rng(0),
            MessageLedger(),
            ProtocolConfig(variant="bounce"),
        )
        sampler.run_walks(origin=0, n=1, walk_length=4)
        record = sampler._lifecycle.record(0)
        assert record.ctx is not None
        assert record.ctx.attempt == 1

    def test_retry_remints_with_a_bumped_attempt(self):
        # near-total loss: every attempt times out, so each retry re-mints
        sampler, tracer = _traced_sampler(
            faults=FaultPlan(FaultConfig(message_loss=0.99), rng=1),
            retry=RetryPolicy(timeout=10, max_retries=2),
        )
        sampler.run_walks(origin=0, n=1, walk_length=4, allow_partial=True)
        record = sampler._lifecycle.record(0)
        assert record.attempt >= 2  # at least one timeout happened
        assert record.ctx is not None
        assert record.ctx.attempt == record.attempt
        assert record.ctx.trace_id == record.span.span_id
        retries = [
            event
            for span in tracer.trace().spans_named(SPAN_WALK)
            for event in span.events
            if event.name == EVENT_RETRY
        ]
        assert [event.attrs["ctx_attempt"] for event in retries] == list(
            range(2, record.attempt + 1)
        )
        assert all(
            event.attrs["ctx_trace"] == record.span.span_id
            for event in retries
        )


class TestMessageThreading:
    def test_messages_default_to_no_context(self):
        token = WalkToken(
            walker_id=0,
            origin=0,
            steps_remaining=3,
            sender=0,
            sender_weight=1.0,
            sender_degree=4,
        )
        assert token.ctx is None

    def test_replace_forwards_context_untouched(self):
        """The forwarding idiom — ``dataclasses.replace`` — must preserve
        ctx without naming it (what keeps DGL015's job tractable)."""
        ctx = mint_context(9, 9, 1)
        message = SampleReturn(
            walker_id=0, origin=0, sampled_node=5, at_node=5, ctx=ctx
        )
        assert replace(message, at_node=3).ctx is ctx


class TestHopSegments:
    def _segments(self, tracer):
        return list(tracer.trace().spans_named(SPAN_HOP_SEGMENT))

    def test_every_segment_carries_its_walks_context(self):
        for variant in ("bounce", "cached"):
            sampler, tracer = _traced_sampler(variant=variant)
            sampler.run_walks(origin=0, n=4, walk_length=6)
            trace = tracer.trace()
            walk_ids = {
                span.span_id for span in trace.spans_named(SPAN_WALK)
            }
            segments = self._segments(tracer)
            assert segments, variant
            for segment in segments:
                assert segment.attrs["ctx_trace"] in walk_ids
                assert segment.attrs["ctx_span"] == segment.attrs["ctx_trace"]
                assert segment.attrs["ctx_attempt"] == 1
                assert segment.end is not None
                assert segment.attrs["delivered"] is True
                assert segment.attrs["orphaned"] is False
                # the segment nests under its walk span
                assert segment.parent_id in walk_ids

    def test_one_context_per_attempt_not_per_hop(self):
        """All segments of one walk share one context: nothing re-mints
        mid-flight."""
        sampler, tracer = _traced_sampler()
        sampler.run_walks(origin=0, n=1, walk_length=8)
        segments = self._segments(tracer)
        assert len(segments) > 1
        assert len({s.attrs["ctx_trace"] for s in segments}) == 1

    def test_hop_events_carry_context_attrs(self):
        sampler, tracer = _traced_sampler()
        sampler.run_walks(origin=0, n=2, walk_length=5)
        for span in tracer.trace().spans_named(SPAN_WALK):
            hops = [e for e in span.events if e.name == EVENT_HOP]
            assert hops
            for event in hops:
                assert event.attrs["ctx_trace"] == span.span_id
                assert event.attrs["ctx_attempt"] == 1

    def test_return_forwarding_records_ctx_forward_events(self):
        sampler, tracer = _traced_sampler()
        sampler.run_walks(origin=0, n=6, walk_length=6)
        forwards = [
            event
            for span in tracer.trace().spans_named(SPAN_WALK)
            for event in span.events
            if event.name == EVENT_CTX_FORWARD
        ]
        # mesh(16) has diameter > 1 from node 0, so some return crossed
        # an intermediate hop and forwarded its context there
        assert forwards
        for event in forwards:
            assert event.attrs["ctx_trace"] > 0
            assert event.attrs["from_node"] != event.attrs["to_node"]

    def test_dropped_transits_never_export_a_segment(self):
        """A lost message's segment is never closed, so it never reaches
        the export: the causal chain has a gap, not a bogus delivery."""
        sampler, tracer = _traced_sampler(
            faults=FaultPlan(FaultConfig(message_loss=0.25), rng=11),
            retry=RetryPolicy(timeout=30, max_retries=2),
        )
        sampler.run_walks(origin=0, n=10, walk_length=6, allow_partial=True)
        assert sampler.fault_log.count("message_loss") > 0
        for segment in self._segments(tracer):
            assert segment.end is not None
            assert segment.attrs["delivered"] is True

    def test_non_recording_run_creates_no_segments(self):
        """The bench fast path: without a recording sink no hop spans are
        allocated at all (the overhead gates depend on this)."""
        simulation = SimulationEngine()
        sampler = ProtocolSampler(
            _mesh(),
            uniform_weights(),
            simulation,
            np.random.default_rng(5),
            MessageLedger(),
            ProtocolConfig(variant="bounce"),
        )
        sampler.run_walks(origin=0, n=5, walk_length=6)
        assert sampler._lifecycle.begin_hop_segment(0, "walk", 0, 1, None) is None
