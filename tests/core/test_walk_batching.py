"""Tests for walk-demand coalescing and the batched protocol runs."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.tracer import SinkTracer
from repro.protocol.batching import WalkBatchPlan, WalkDemand, coalesce_demands
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler, RetryPolicy
from repro.sampling.weights import uniform_weights
from repro.sim.engine import SimulationEngine


class TestCoalesce:
    def test_batch_is_max_not_sum(self):
        plan = coalesce_demands(
            [WalkDemand("q0", 30), WalkDemand("q1", 50), WalkDemand("q2", 20)]
        )
        assert plan.n_walks == 50

    def test_consumers_per_walk(self):
        plan = coalesce_demands([WalkDemand("b", 2), WalkDemand("a", 4)])
        assert plan.consumers == ("a", "b")  # sorted for determinism
        assert plan.consumers_of(0) == ("a", "b")
        assert plan.consumers_of(1) == ("a", "b")
        assert plan.consumers_of(2) == ("a",)
        assert plan.consumers_of(3) == ("a",)
        with pytest.raises(QueryError):
            plan.consumers_of(4)
        with pytest.raises(QueryError):
            plan.consumers_of(-1)

    def test_zero_demands_dropped(self):
        plan = coalesce_demands([WalkDemand("a", 0), WalkDemand("b", 3)])
        assert plan.consumers == ("b",)
        assert plan.n_walks == 3

    def test_empty_plan(self):
        plan = coalesce_demands([])
        assert plan.n_walks == 0

    def test_duplicate_query_rejected(self):
        with pytest.raises(QueryError):
            coalesce_demands([WalkDemand("a", 1), WalkDemand("a", 2)])

    def test_negative_demand_rejected(self):
        with pytest.raises(QueryError):
            WalkDemand("a", -1)


def _sampler(seed=0, ledger=None, tracer=None, faults=None, retry=None):
    graph = OverlayGraph(mesh_topology(16), n_nodes=16)
    return ProtocolSampler(
        graph,
        uniform_weights(),
        SimulationEngine(),
        np.random.default_rng(seed),
        ledger,
        ProtocolConfig(),
        faults=faults,
        retry=retry,
        tracer=tracer,
    )


class TestRunWalkBatch:
    def test_slices_per_query(self):
        sampler = _sampler()
        plan = coalesce_demands([WalkDemand("q0", 6), WalkDemand("q1", 4)])
        slices = sampler.run_walk_batch(origin=0, plan=plan, walk_length=20)
        assert len(slices["q0"]) == 6
        assert len(slices["q1"]) == 4
        # maximal overlap: q1's samples are a prefix of q0's
        assert slices["q1"] == slices["q0"][:4]

    def test_costs_one_batch_not_per_query(self):
        shared_ledger = MessageLedger()
        shared = _sampler(ledger=shared_ledger)
        plan = coalesce_demands([WalkDemand("q0", 8), WalkDemand("q1", 8)])
        shared.run_walk_batch(origin=0, plan=plan, walk_length=20)

        solo_ledger = MessageLedger()
        solo = _sampler(ledger=solo_ledger)
        solo.run_walks(origin=0, n=8, walk_length=20)
        solo_cost = solo_ledger.total
        solo.run_walks(origin=0, n=8, walk_length=20)

        assert shared_ledger.total < solo_ledger.total
        assert shared_ledger.total == pytest.approx(solo_cost, rel=0.35)

    def test_walk_spans_attribute_every_consumer(self):
        tracer = SinkTracer(record=True)
        sampler = _sampler(tracer=tracer)
        plan = coalesce_demands([WalkDemand("q0", 5), WalkDemand("q1", 3)])
        sampler.run_walk_batch(origin=0, plan=plan, walk_length=20)
        trace = tracer.trace()
        walks = trace.spans_named("walk")
        assert len(walks) == 5
        shared = [s for s in walks if s.attrs["consumers"] == "q0,q1"]
        solo = [s for s in walks if s.attrs["consumers"] == "q0"]
        assert len(shared) == 3
        assert len(solo) == 2
        batches = trace.spans_named("shared_walk_batch")
        assert len(batches) == 1
        assert batches[0].attrs["consumers"] == "q0,q1"
        assert batches[0].attrs["n_drawn"] == 5

    def test_faulty_batch_degrades_with_partial(self):
        faults = FaultPlan(
            FaultConfig(message_loss=0.02), np.random.default_rng(5)
        )
        sampler = _sampler(
            faults=faults, retry=RetryPolicy(timeout=200, max_retries=2)
        )
        plan = coalesce_demands([WalkDemand("q0", 10), WalkDemand("q1", 6)])
        slices = sampler.run_walk_batch(
            origin=0, plan=plan, walk_length=25, allow_partial=True
        )
        assert len(slices["q0"]) <= 10
        assert len(slices["q1"]) <= 6
        # shortfall hits the deepest consumer first (q1 is a prefix)
        assert slices["q1"] == slices["q0"][: len(slices["q1"])]

    def test_empty_plan_is_free(self):
        ledger = MessageLedger()
        sampler = _sampler(ledger=ledger)
        slices = sampler.run_walk_batch(
            origin=0, plan=coalesce_demands([]), walk_length=20
        )
        assert slices == {}
        assert ledger.total == 0
