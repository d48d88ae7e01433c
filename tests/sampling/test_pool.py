"""Tests for the shared sample pool."""

import numpy as np
import pytest

from repro.db.aggregates import (
    AggregateOp,
    ValueSpec,
    query_attributes,
    tuple_values,
)
from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.relation import P2PDatabase, Schema
from repro.errors import ExpressionError, SamplingError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import mesh_topology
from repro.obs.tracer import SinkTracer
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.pool import SamplePool


#: what an unfiltered ``AVG(v)`` reads of each draw
AVG_V = ValueSpec(AggregateOp.AVG, Expression("v"))


def _world(n=36, tuples_low=1, tuples_high=6, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n), n_nodes=n)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(int(rng.integers(tuples_low, tuples_high))):
            database.insert(node, {"v": float(rng.normal(0, 1))})
    return graph, database


def _pool(graph, seed=0, ledger=None, tracer=None, partitions=None):
    return SamplePool(
        graph,
        np.random.default_rng(seed),
        ledger,
        SamplerConfig(walk_length=20, continued_walks=False),
        tracer=tracer,
        partitions=partitions,
    )


def _cut_at(start):
    """A plan whose one cut opens at ``start`` (step it to open it)."""
    return PartitionPlan(
        PartitionSchedule(episodes=(PartitionEpisode(start=start, duration=4),)),
        rng=1,
    )


def _gathered(database, spec, tuple_ids):
    """``tuple_values`` of one gather of ``tuple_ids``: the reference serve."""
    columns = database.gather(
        query_attributes(spec.expression, spec.predicate), tuple_ids
    )
    return tuple_values(
        spec.op, spec.expression, spec.predicate, columns, len(tuple_ids)
    )


class TestAcquire:
    def test_identical_to_operator_when_empty(self):
        """A cold pool is RNG-transparent: same draws as a bare operator."""
        graph, database = _world()
        operator = SamplingOperator(
            graph,
            np.random.default_rng(3),
            config=SamplerConfig(walk_length=20, continued_walks=False),
        )
        direct = operator.sample_tuples(database, 12, origin=0)
        pool = _pool(graph, seed=3)
        pool.begin_epoch(0)
        served = pool.acquire(database, AVG_V, 12, origin=0, consumer="q0")[0]
        assert served.tolist() == direct.tolist()

    def test_second_consumer_served_from_pool(self):
        graph, database = _world()
        ledger = MessageLedger()
        pool = _pool(graph, ledger=ledger)
        pool.begin_epoch(0)
        first = pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")[0]
        cost_after_first = ledger.total
        second = pool.acquire(database, AVG_V, 10, origin=0, consumer="q1")[0]
        assert ledger.total == cost_after_first  # zero walks for q1
        assert second.tolist() == first.tolist()
        assert pool.pool_hits == 10
        assert pool.pool_misses == 10
        assert pool.hit_rate == pytest.approx(0.5)

    def test_same_consumer_never_resampled(self):
        """Top-ups serve only draws beyond the consumer's cursor."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, AVG_V, 8, origin=0, consumer="q0")[0]
        # q1 over-draws, leaving 4 pooled samples q0 has not seen
        pool.acquire(database, AVG_V, 12, origin=0, consumer="q1")
        topup = pool.acquire(database, AVG_V, 6, origin=0, consumer="q0")[0]
        seen = set(first.tolist())
        pooled_beyond = topup[:4].tolist()
        assert pool.pool_hits == 8 + 4  # q1's 8 + q0's 4
        assert len(topup) == 6
        # the 4 pool hits are exactly q1's surplus, not q0's own draws
        assert all(t not in seen or t in pooled_beyond for t in pooled_beyond)

    def test_marginal_shortfall_only(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")
        pool.acquire(database, AVG_V, 14, origin=0, consumer="q1")
        assert pool.pool_hits == 10
        assert pool.pool_misses == 10 + 4
        assert pool.n_pooled == 14

    def test_zero_and_negative(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        empty = pool.acquire(database, AVG_V, 0, origin=0)[0]
        assert empty.dtype == np.int64 and empty.size == 0
        with pytest.raises(SamplingError):
            pool.acquire(database, AVG_V, -1, origin=0)

    def test_writing_a_served_batch_changes_nothing_pooled(self):
        """A served id array is the consumer's own: scribbling dead or
        unallocated ids into it does not reach what another consumer is
        served."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")[0]
        drawn = first.tolist()
        first[:] = -1
        second = pool.acquire(database, AVG_V, 10, origin=0, consumer="q1")[0]
        assert second.tolist() == drawn
        assert pool.pool_hits == 10
        second[:] = 10**9
        third = pool.acquire(database, AVG_V, 12, origin=0, consumer="q2")[0]
        assert third[:10].tolist() == drawn
        assert pool.pool_hits == 20
        assert pool.n_pooled == 12


class TestEpochs:
    def test_default_age_evicts_previous_tick(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")
        assert pool.n_pooled == 10
        pool.begin_epoch(1)
        assert pool.n_pooled == 0
        pool.acquire(database, AVG_V, 10, origin=0, consumer="q1")
        assert pool.pool_hits == 0  # nothing stale was served

    def test_begin_epoch_idempotent(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, AVG_V, 6, origin=0, consumer="q0")
        pool.begin_epoch(0)
        assert pool.n_pooled == 6

    def test_cursors_survive_eviction(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, AVG_V, 5, origin=0, consumer="q0")
        pool.begin_epoch(1)
        served = pool.acquire(database, AVG_V, 5, origin=0, consumer="q0")[0]
        assert len(served) == 5
        assert pool.pool_misses == 10  # all fresh both times


class TestPrefetch:
    def test_tops_up_to_target(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        drawn = pool.prefetch(database, 12, origin=0, consumers=("q0", "q1"))
        assert drawn == 12
        assert pool.n_pooled == 12
        assert pool.prefetch(database, 10, origin=0) == 0  # already covered
        # consumers then hit without any new walks
        pool.acquire(database, AVG_V, 12, origin=0, consumer="q0")
        pool.acquire(database, AVG_V, 12, origin=0, consumer="q1")
        assert pool.pool_hits == 24
        assert pool.pool_misses == 0

    def test_records_attributed_batch_span(self):
        graph, database = _world()
        tracer = SinkTracer(record=True)
        pool = _pool(graph, tracer=tracer)
        pool.begin_epoch(0)
        pool.prefetch(database, 8, origin=0, consumers=("q1", "q0"))
        batches = tracer.trace().spans_named("shared_walk_batch")
        assert len(batches) == 1
        assert batches[0].attrs["consumers"] == "q1,q0"
        assert batches[0].attrs["n_consumers"] == 2
        assert batches[0].attrs["n_drawn"] == 8

    def test_negative_rejected(self):
        graph, database = _world()
        pool = _pool(graph)
        with pytest.raises(SamplingError):
            pool.prefetch(database, -1, origin=0)


class TestServedValues:
    """A serve slices the pool's columns; they must read like a gather."""

    @pytest.mark.parametrize(
        "spec",
        [
            AVG_V,
            ValueSpec(AggregateOp.AVG, Expression("v"), Predicate("v > 0")),
            ValueSpec(AggregateOp.SUM, Expression("2 * v + 1")),
            ValueSpec(AggregateOp.COUNT, Expression("v"), Predicate("v < 0.5")),
        ],
        ids=["avg", "avg-where", "sum", "count-where"],
    )
    def test_served_values_equal_a_gather(self, spec):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        # a pooled prefix, a top-up past it and a serve from the middle
        for consumer, n in (("q0", 10), ("q0", 15), ("q1", 12), ("q1", 20)):
            ids, y, indicator = pool.acquire(
                database, spec, n, origin=0, consumer=consumer
            )
            expected_y, expected_indicator = _gathered(database, spec, ids)
            assert y.tolist() == expected_y.tolist()
            assert indicator.tolist() == expected_indicator.tolist()

    def test_equal_specs_share_one_column(self, monkeypatch):
        """The second of two equal specs is served without a gather."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        gathers = []
        gather = database.gather

        def counting(attributes, tuple_ids):
            gathers.append(len(tuple_ids))
            return gather(attributes, tuple_ids)

        monkeypatch.setattr(database, "gather", counting)
        first = pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")
        assert gathers == [10]
        twin = ValueSpec(AggregateOp.AVG, Expression("v"))
        assert twin is not AVG_V
        second = pool.acquire(database, twin, 10, origin=0, consumer="q1")
        assert gathers == [10]
        assert [c.tolist() for c in second] == [c.tolist() for c in first]
        # another spec reads its own column
        pool.acquire(
            database,
            ValueSpec(AggregateOp.SUM, Expression("v")),
            10,
            origin=0,
            consumer="q2",
        )
        assert gathers == [10, 10]

    def test_switched_spec_reads_only_served_draws(self):
        """A consumer that switches spec starts that spec's columns at its
        cursor; a serve from before them restarts them, so a tuple the
        expression fails on fails only the queries it is served to."""
        graph, database = _world()
        probe = _pool(graph, seed=4)
        probe.begin_epoch(0)
        pooled = probe.acquire(database, AVG_V, 30, origin=0, consumer="ref")[0]
        zeroed = next(t for t in pooled[:10].tolist() if t not in pooled[10:20])
        # a value write moves no m_v, so a pool of the same seed draws
        # the same ids over the rewritten relation
        database.update_many("v", [zeroed], [0.0])
        pool = _pool(graph, seed=4)
        pool.begin_epoch(0)
        pool.prefetch(database, 30, origin=0)
        inverse = ValueSpec(AggregateOp.AVG, Expression("1 / v"))
        served = pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")[0]
        assert served.tolist() == pooled[:10].tolist()
        ids, y, indicator = pool.acquire(
            database, inverse, 10, origin=0, consumer="q0"
        )
        assert ids.tolist() == pooled[10:20].tolist()
        expected_y, expected_indicator = _gathered(database, inverse, ids)
        assert y.tolist() == expected_y.tolist()
        assert indicator.tolist() == expected_indicator.tolist()
        with pytest.raises(ExpressionError):
            pool.acquire(database, inverse, 10, origin=0, consumer="q1")


def _write(graph, database, kind, tuple_id):
    """One write of ``kind`` that touches ``tuple_id`` or its node."""
    node = database.locate(tuple_id)
    if kind == "delete":
        database.delete(tuple_id)
    elif kind == "update":
        database.update(tuple_id, {"v": 100.0})
    elif kind == "update_many":
        database.update_many("v", [tuple_id], [200.0])
    elif kind == "insert":
        database.insert(node, {"v": 300.0})
    else:
        # the node leaves the overlay too, as churn has it
        graph.leave(node)
        database.remove_node(node)


class TestWrites:
    """A write ends the occasion: the pool starts over, as at a new tick."""

    @pytest.mark.parametrize(
        "kind", ["delete", "update", "update_many", "insert", "remove_node"]
    )
    def test_write_ends_the_occasion(self, kind):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.acquire(database, AVG_V, 10, origin=0, consumer="q0")[0]
        # q1 over-draws, leaving 10 pooled draws q0 has not been served
        pool.acquire(database, AVG_V, 20, origin=0, consumer="q1")
        hits, misses = pool.pool_hits, pool.pool_misses
        # a tuple away from the origin, whose node may leave
        tuple_id = next(t for t in first.tolist() if database.locate(t) != 0)
        _write(graph, database, kind, tuple_id)
        ids, y, indicator = pool.acquire(
            database, AVG_V, 10, origin=0, consumer="q0"
        )
        # all misses: nothing drawn before the write is served after it
        assert (pool.pool_hits, pool.pool_misses) == (hits, misses + 10)
        assert pool.n_pooled == 10
        assert database.live_mask(ids).all()
        expected_y, expected_indicator = _gathered(database, AVG_V, ids)
        assert y.tolist() == expected_y.tolist()
        assert indicator.tolist() == expected_indicator.tolist()
        # q1's cursor restarted too: it is served q0's fresh draws
        again = pool.acquire(database, AVG_V, 10, origin=0, consumer="q1")
        assert again[0].tolist() == ids.tolist()
        assert [c.tolist() for c in again[1:]] == [y.tolist(), indicator.tolist()]
        assert pool.pool_hits == hits + 10


class TestLease:
    def test_lease_binds_consumer(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        lease_a = pool.lease("qa")
        lease_b = pool.lease("qb")
        first = lease_a.sample_values(database, AVG_V, 9, origin=0)[0]
        second = lease_b.sample_values(database, AVG_V, 9, origin=0)[0]
        assert second.tolist() == first.tolist()
        assert pool.pool_hits == 9
        assert lease_a.consumer == "qa"
        assert lease_a.pool is pool

    def test_writing_a_lease_batch_changes_nothing_pooled(self):
        """The all-miss batch a lease hands out is not the pooled arrays."""
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        first = pool.lease("qa").sample_values(database, AVG_V, 9, origin=0)
        drawn = [column.tolist() for column in first]
        for column in first:
            column[:] = -1
        second = pool.lease("qb").sample_values(database, AVG_V, 9, origin=0)
        assert [column.tolist() for column in second] == drawn
        assert pool.pool_hits == 9


class TestReset:
    def test_reset_clears_state(self):
        graph, database = _world()
        pool = _pool(graph)
        pool.begin_epoch(0)
        pool.acquire(database, AVG_V, 5, origin=0, consumer="q0")
        pool.reset()
        assert pool.n_pooled == 0
        assert pool.pool_hits == 0
        assert pool.pool_misses == 0
        served = pool.acquire(database, AVG_V, 5, origin=0, consumer="q0")[0]
        assert len(served) == 5


class TestInvalidateScope:
    """A cut or a heal moves the plan's epoch, which empties the pool."""

    def test_evicts_everything_and_reports_count(self):
        graph, database = _world()
        plan = _cut_at(0)
        pool = _pool(graph, partitions=plan)
        pool.begin_epoch(0)
        pool.prefetch(database, 10, origin=0)
        pool.begin_epoch(0)  # same tick, same plan epoch: kept
        assert pool.n_pooled == 10
        plan.step(0, graph)  # the cut opens within the tick
        pool.begin_epoch(0)
        assert pool.n_pooled == 0

    def test_cursors_survive_invalidation(self):
        """Post-invalidation draws are still never re-served to a consumer."""
        graph, database = _world()
        plan = _cut_at(0)
        pool = _pool(graph, partitions=plan)
        pool.begin_epoch(0)
        first = pool.acquire(database, AVG_V, 6, origin=0, consumer="q0")[0]
        plan.step(0, graph)
        pool.begin_epoch(0)
        second = pool.acquire(database, AVG_V, 6, origin=0, consumer="q0")[0]
        # both acquisitions drew fresh: the evicted samples were never
        # replayed (fresh draws may still coincide on tuple ids by chance)
        assert pool.pool_hits == 0
        assert pool.pool_misses == 12
        assert len(first) == 6
        assert len(second) == 6
