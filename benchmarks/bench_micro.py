"""Micro-benchmarks of the hot paths (pytest-benchmark, multi-round).

These track implementation performance rather than paper artifacts: the
walk kernel (at three shapes), the walk snapshot (cold and
cached), one churn tick's snapshot of a 10^4-node overlay, tuple
sampling under an open partition and under message loss, local-store
operations, one tick of ingest (a bulk column scatter against per-row
updates), expression evaluation, one PRED-3 scheduling decision, one
full snapshot step of a one-query session and 16 co-due evaluations
served from one pool.
"""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.scheduler import ExtrapolationScheduler
from repro.core.session import DigestSession, EngineConfig
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.db.store import LocalStore
from repro.network.faults import FaultConfig, FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import power_law_topology
from repro.obs.schema import SPAN_SAMPLE_ACQUISITION
from repro.obs.tracer import SinkTracer
from repro.sampling.operator import SamplerConfig, SamplingOperator
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import content_size_weights, uniform_weights


@pytest.fixture(scope="module")
def walk_setup():
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    context = WalkContext.from_graph(graph, uniform_weights())
    return context


def test_batch_walk_kernel(benchmark, walk_setup):
    """100 walkers x 100 lazy steps of the vectorized Metropolis kernel.

    At laziness 1/2 each walker's budget is about 50 proposals; the
    kernel returns the end positions and those budgets.
    """
    context = walk_setup
    starts = np.zeros(100, dtype=np.int64)

    def run():
        ends, _ = batch_walk(context, starts, 100, np.random.default_rng(1))
        return ends

    benchmark(run)


def test_batch_walk_kernel_partition_shape(benchmark):
    """60 walkers x 340 lazy steps on a 2000-node power-law overlay.

    About the shape of one faulted-partition sampling call: roughly 170
    proposals per walker, so the per-round dispatch dominates the cost.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(2000, rng=rng), n_nodes=2000)
    context = WalkContext.from_graph(graph, uniform_weights())
    starts = np.zeros(60, dtype=np.int64)

    def run():
        ends, _ = batch_walk(context, starts, 340, np.random.default_rng(1))
        return ends

    benchmark(run)


def test_batch_walk_kernel_topup_shape(benchmark):
    """4 walkers x 360 lazy steps on a 10^4-node power-law overlay.

    About the shape of a top-up after a pool miss: few agents and about
    180 proposals each, so every round moves at most a handful of them.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(10_000, rng=rng), n_nodes=10_000)
    context = WalkContext.from_graph(graph, uniform_weights())
    starts = np.zeros(4, dtype=np.int64)

    def run():
        ends, _ = batch_walk(context, starts, 360, np.random.default_rng(1))
        return ends

    benchmark(run)


def test_walk_context_snapshot_cold(benchmark):
    """Walk snapshot of a 1000-node overlay right after a topology change.

    Each round toggles one edge first, so the per-version CSR cache misses
    and the rebuild cost (the per-occasion cost under churn) stays tracked.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    weight = uniform_weights()

    def toggle_edge():
        if graph.has_edge(0, 999):
            graph.remove_edge(0, 999)
        else:
            graph.add_edge(0, 999)

    benchmark.pedantic(
        WalkContext.from_graph,
        args=(graph, weight),
        setup=toggle_edge,
        rounds=100,
        iterations=1,
    )


def test_walk_context_snapshot_warm(benchmark):
    """Walk snapshot of an unchanged 1000-node overlay (CSR cache hit).

    Only the weight vector is evaluated; the CSR arrays are shared.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    benchmark(WalkContext.from_graph, graph, uniform_weights())


def test_churn_tick_snapshot(benchmark):
    """One churn tick's snapshot of a 10^4-node power-law overlay.

    Each round first applies 20 leaves and 20 joins (about what a
    churn-10k tick sees) to the overlay and its database, then takes the
    CSR snapshot, a content-size walk context and the origin's hop
    counts: the per-occasion cost that should track the change, not the
    overlay.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(10_000, rng=rng), n_nodes=10_000)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in rng.integers(0, 10_000, size=12_000):
        database.insert(int(node), {"v": 1.0})
    origin = max(graph.nodes(), key=graph.degree)
    weight = content_size_weights(database)
    WalkContext.from_graph(graph, weight)

    def churn_round():
        nodes = [node for node in graph.nodes() if node != origin]
        for node in rng.choice(nodes, size=20, replace=False):
            graph.leave(int(node))
            database.remove_node(int(node))
        for _ in range(20):
            node = graph.join(n_links=2, rng=rng)
            database.add_node(node)
            database.insert(node, {"v": 1.0})

    def snapshot():
        graph.csr()
        context = WalkContext.from_graph(graph, weight)
        graph.hop_counts(origin)
        return context

    benchmark.pedantic(snapshot, setup=churn_round, rounds=20, iterations=1)


def test_partitioned_sample_tuples(benchmark):
    """Tuple sampling on a 1000-node overlay under an open 70/30 cut.

    The origin's reachable set and its scoped walk context are cached
    for the cut's epoch, so each round after the first pays only the
    walks, not a BFS and a subgraph snapshot.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(1000, rng=rng), n_nodes=1000)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        database.insert(node, {"v": float(rng.normal(50, 8))})
    plan = PartitionPlan(
        PartitionSchedule(
            episodes=(
                PartitionEpisode(start=0, duration=10, fractions=(0.7, 0.3)),
            )
        ),
        rng=1,
    )
    plan.step(0, graph)
    operator = SamplingOperator(
        graph,
        np.random.default_rng(1),
        config=SamplerConfig(walk_length=50),
        partitions=plan,
    )
    reachable = plan.reachable(graph, 0)

    def run():
        return operator.sample_tuples(database, 50, origin=0)

    samples = benchmark(run)
    assert {database.locate(t) for t in samples.tolist()} <= set(reachable)


def test_sample_tuples_under_loss(benchmark):
    """60 tuples from a 2000-node power-law overlay at 0.2% message loss.

    About the shape of one faulted-partition sampling request: walks
    whose outbound leg is lost are retried inside the request's one
    kernel call, and the continued-walk pool carries the agents from one
    round to the next.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(2000, rng=rng), n_nodes=2000)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        database.insert(node, {"v": float(rng.normal(50, 8))})
    faults = FaultPlan(FaultConfig(message_loss=0.002), rng=2)
    tracer = SinkTracer(record=True)
    operator = SamplingOperator(
        graph, np.random.default_rng(1), faults=faults, tracer=tracer
    )

    def run():
        return operator.sample_tuples(database, 60, origin=0)

    samples = benchmark(run)
    assert samples.size == 60
    spans = tracer.trace().spans_named(SPAN_SAMPLE_ACQUISITION)
    assert sum(span.attrs["n_lost"] for span in spans) > 0


def test_store_insert_delete(benchmark):
    def run():
        store = LocalStore(("v",))
        for i in range(1000):
            store.insert(i, {"v": float(i)})
        for i in range(0, 1000, 2):
            store.delete(i)
        return len(store)

    assert benchmark(run) == 500


@pytest.fixture(scope="module")
def ingest_setup():
    """12k tuples over 1000 nodes, the size of one 10^4-node world's tick."""
    rng = np.random.default_rng(0)
    database = P2PDatabase(Schema(("v",)), range(1000))
    nodes = rng.integers(0, 1000, size=12_000)
    ids = np.array([database.insert(int(node), {"v": 0.0}) for node in nodes])
    return database, ids, rng.normal(50, 8, size=ids.size)


def test_ingest_update_many(benchmark, ingest_setup):
    """One tick's writes as a single checked column scatter."""
    database, ids, values = ingest_setup
    benchmark(database.update_many, "v", ids, values)


def test_ingest_per_row_update(benchmark, ingest_setup):
    """The same 12k writes as validated per-row ``update`` calls."""
    database, ids, values = ingest_setup
    rows = list(zip(ids.tolist(), values.tolist()))

    def run():
        for tuple_id, value in rows:
            database.update(tuple_id, {"v": value})

    benchmark(run)


def test_expression_scalar_eval(benchmark):
    expression = Expression("0.5 * (memory + storage) - cpu * 2")
    row = {"memory": 1.0, "storage": 2.0, "cpu": 0.25}
    benchmark(expression.evaluate, row)


def test_expression_vectorized_eval(benchmark):
    expression = Expression("0.5 * (memory + storage) - cpu * 2")
    columns = {
        "memory": np.random.default_rng(0).normal(0, 1, 10_000),
        "storage": np.random.default_rng(1).normal(0, 1, 10_000),
        "cpu": np.random.default_rng(2).normal(0, 1, 10_000),
    }
    benchmark(expression.evaluate_columns, columns)


def test_extrapolation_predict(benchmark):
    """One PRED-3 schedule (fit, remainder fit, Eq. 4 scan) on 6 noisy points."""
    rng = np.random.default_rng(0)
    history = [(t, 20.0 + 0.5 * t + float(rng.normal(0, 0.2))) for t in range(6)]
    scheduler = ExtrapolationScheduler(delta=4.0, n_points=3)

    next_time = benchmark(scheduler.next_time, history, 5)
    assert 5 < next_time <= 5 + scheduler.extrapolator.max_horizon
    assert scheduler.last_decision == "predicted_drift"


def test_engine_snapshot_step(benchmark):
    """One full snapshot query (repeated sampling) on a 200-node overlay."""
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(200, rng=rng), n_nodes=200)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(4):
            database.insert(node, {"v": float(rng.normal(50, 8))})
    continuous = ContinuousQuery(
        parse_query("SELECT AVG(v) FROM R"),
        Precision(delta=4.0, epsilon=2.0, confidence=0.95),
    )
    session = DigestSession(graph, database, 0, np.random.default_rng(1))
    session.add_query(
        continuous,
        config=EngineConfig(scheduler="all", evaluator="repeated"),
    )
    clock = {"t": 0}

    def run():
        session.step(clock["t"])
        clock["t"] += 1

    benchmark.pedantic(run, rounds=30, iterations=1)


def test_pool_serve_codue_queries(benchmark):
    """16 co-due INDEP AVG evaluations against one pool on a 10^4-node overlay.

    Each round opens a new epoch and prefetches enough draws for every
    query (untimed); the timed part is the 16 evaluations alone: their
    serves from the pool, the values they read and their fits, no walk.
    """
    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(10_000, rng=rng), n_nodes=10_000)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    # every node holds a tuple: a zero-weight node would cut the walk
    hosts = np.concatenate([graph.nodes(), rng.integers(0, 10_000, size=2_000)])
    for node in hosts.tolist():
        database.insert(node, {"v": float(rng.normal(50, 8))})
    origin = max(graph.nodes(), key=graph.degree)
    session = DigestSession(graph, database, origin, np.random.default_rng(1))
    for epsilon in np.linspace(1.6, 2.8, 16).tolist():
        session.add_query(
            ContinuousQuery(
                parse_query("SELECT AVG(v) FROM R"),
                Precision(delta=epsilon, epsilon=epsilon, confidence=0.95),
            ),
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
    runtimes = [session.runtime(qid) for qid in session.query_ids()]
    clock = {"t": 0}

    def fill():
        clock["t"] += 1
        session.pool.begin_epoch(clock["t"])
        session.pool.prefetch(database, 1000, origin)

    def evaluate_all():
        return [
            runtime.evaluator.evaluate(
                clock["t"], runtime.continuous_query.precision.epsilon, 0.95
            )
            for runtime in runtimes
        ]

    estimates = benchmark.pedantic(evaluate_all, setup=fill, rounds=30, iterations=1)
    assert len(estimates) == 16
    assert session.pool.pool_misses == 0
