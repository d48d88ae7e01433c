"""Tests for coalesced walk batches: one batch drawn for several queries.

The session's demand coalescing draws one batch through
:meth:`~repro.sampling.pool.SamplePool.prefetch` and every consuming
query is then served from the pool; these tests pin the batch's cost and
its attribution at that level.
"""

import numpy as np
import pytest

from repro.db.aggregates import AggregateOp, ValueSpec
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology
from repro.obs.analysis import shared_walk_attribution
from repro.obs.tracer import SinkTracer
from repro.sampling.operator import SamplerConfig
from repro.sampling.pool import SamplePool


AVG_V = ValueSpec(AggregateOp.AVG, Expression("v"))


def _world(n=16, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(3):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


def _pool(graph, seed=0, ledger=None, tracer=None):
    pool = SamplePool(
        graph,
        np.random.default_rng(seed),
        ledger,
        SamplerConfig(walk_length=20, continued_walks=False),
        tracer=tracer,
    )
    pool.begin_epoch(0)
    return pool


class TestRunWalkBatch:
    def test_costs_one_batch_not_per_query(self):
        graph, database = _world()
        shared_ledger = MessageLedger()
        shared = _pool(graph, ledger=shared_ledger)
        shared.prefetch(database, 8, origin=0, consumers=("q0", "q1"))
        for consumer in ("q0", "q1"):
            shared.acquire(database, AVG_V, 8, origin=0, consumer=consumer)
        assert shared.pool_misses == 0

        solo_ledger = MessageLedger()
        solo_cost = 0
        for seed, consumer in enumerate(("q0", "q1")):
            solo = _pool(graph, seed=seed, ledger=solo_ledger)
            solo.acquire(database, AVG_V, 8, origin=0, consumer=consumer)
            if seed == 0:
                solo_cost = solo_ledger.total

        assert shared_ledger.total < solo_ledger.total
        assert shared_ledger.total == pytest.approx(solo_cost, rel=0.35)

    def test_walk_spans_attribute_every_consumer(self):
        graph, database = _world()
        tracer = SinkTracer(record=True)
        pool = _pool(graph, tracer=tracer)
        pool.prefetch(database, 5, origin=0, consumers=("q0", "q1"))
        pool.acquire(database, AVG_V, 5, origin=0, consumer="q0")
        assert (pool.pool_hits, pool.pool_misses) == (5, 0)
        pool.acquire(database, AVG_V, 3, origin=0, consumer="q1")
        assert (pool.pool_hits, pool.pool_misses) == (8, 0)
        trace = tracer.trace()

        # the batch's walks are drawn once, by one acquisition
        [acquisition] = trace.spans_named("sample_acquisition")
        assert acquisition.attrs["n_requested"] == 5
        [batch] = trace.spans_named("shared_walk_batch")
        assert batch.attrs["consumers"] == "q0,q1"
        assert batch.attrs["n_drawn"] == 5
        attribution = shared_walk_attribution(trace)
        for qid in ("q0", "q1"):
            assert attribution[qid]["shared_batches"] == 1
            assert attribution[qid]["batch_samples"] == 5
