"""One-query session tests for the less-traveled configuration paths."""

import numpy as np
import pytest

from repro.core.query import ContinuousQuery, Precision, parse_query
from repro.core.session import DigestSession, EngineConfig
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology, power_law_topology


def _world(n_nodes=64, per_node=4, seed=0, topology="mesh"):
    rng = np.random.default_rng(seed)
    if topology == "mesh":
        edges = mesh_topology(n_nodes)
    else:
        edges = power_law_topology(n_nodes, rng=rng)
    graph = OverlayGraph(edges, n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    tids = []
    for node in graph.nodes():
        for _ in range(per_node):
            tids.append(database.insert(node, {"v": float(rng.normal(20, 4))}))
    return graph, database, tids


def _session(graph, database, continuous, origin, seed, config):
    """A session at ``origin`` running ``continuous``, and its runtime."""
    session = DigestSession(
        graph, database, origin, np.random.default_rng(seed)
    )
    query_id = session.add_query(continuous, config=config)
    return session, session.runtime(query_id)


class TestEstimatedPopulation:
    def test_sum_with_estimated_population(self, monkeypatch):
        """oracle_population=False: N comes from capture-recapture.

        Every estimate's ``population_size`` must be the (rounded) value
        the size estimator returned on that step, never the true count.
        """
        from repro.sampling import size_estimation

        recorded = []
        estimate_size = size_estimation.estimate_relation_size

        def recording_estimate(*args, **kwargs):
            size = estimate_size(*args, **kwargs)
            recorded.append(size)
            return size

        monkeypatch.setattr(
            size_estimation, "estimate_relation_size", recording_estimate
        )
        graph, database, _ = _world(topology="power_law")
        continuous = ContinuousQuery(
            parse_query("SELECT SUM(v) FROM R"),
            Precision(delta=500.0, epsilon=800.0, confidence=0.9),
            duration=3,
        )
        session, runtime = _session(
            graph,
            database,
            continuous,
            origin=0,
            seed=1,
            config=EngineConfig(
                scheduler="all",
                evaluator="independent",
                oracle_population=False,
            ),
        )
        estimates = [
            session.step(t).get(runtime.query_id) for t in range(3)
        ]
        truth = float(database.exact_values(Expression("v")).sum())
        # one size estimate per step, and each one is the N the step used
        assert len(recorded) == len(estimates)
        # capture-recapture N has real variance; require the right scale
        for estimate, size in zip(estimates, recorded):
            assert estimate is not None
            assert 0.4 * truth < estimate.aggregate < 2.5 * truth
            assert estimate.population_size == int(round(size))

    def test_population_estimation_costs_messages(self):
        graph, database, _ = _world(topology="power_law")
        continuous = ContinuousQuery(
            parse_query("SELECT COUNT(v) FROM R"),
            Precision(delta=50.0, epsilon=80.0, confidence=0.9),
            duration=1,
        )
        costs = {}
        for oracle in (True, False):
            session, runtime = _session(
                graph,
                database,
                continuous,
                origin=0,
                seed=2,
                config=EngineConfig(
                    scheduler="all",
                    evaluator="independent",
                    oracle_population=oracle,
                ),
            )
            session.step(0)
            costs[oracle] = session.ledger.total
        assert costs[False] > costs[True]  # size estimation isn't free


class TestForwardRevisionScaling:
    def test_sum_revision_scales_by_population(self):
        """Forward revision amends in aggregate units, not mean units."""
        graph, database, tids = _world()
        continuous = ContinuousQuery(
            parse_query("SELECT SUM(v) FROM R"),
            Precision(delta=300.0, epsilon=150.0, confidence=0.95),
            duration=6,
        )
        session, runtime = _session(
            graph,
            database,
            continuous,
            origin=0,
            seed=3,
            config=EngineConfig(
                scheduler="all", evaluator="repeated", forward_revision=True
            ),
        )
        rng = np.random.default_rng(4)
        for t in range(6):
            for tid in tids:
                current = database.read(tid)["v"]
                database.update(tid, {"v": 0.98 * current + rng.normal(0, 0.2)})
            session.step(t)
        truth_scale = float(database.exact_values(Expression("v")).sum())
        for record in runtime.result.updates:
            # revised estimates must stay on the SUM scale
            assert 0.5 * truth_scale < record.estimate < 2.0 * truth_scale


class TestChurnIntegration:
    def test_engine_survives_heavy_churn(self):
        """Full run over a churning MEMORY world with a protected origin."""
        import dataclasses

        from repro.datasets.memory import MemoryConfig, MemoryDataset

        config = dataclasses.replace(
            MemoryConfig().scaled(0.12), leave_probability=0.05
        )
        instance = MemoryDataset(config, seed=5).build()
        origin = instance.graph.nodes()[0]
        instance.churn.protect(origin)
        continuous = ContinuousQuery(
            parse_query("SELECT AVG(available_memory) FROM R"),
            Precision(delta=10.0, epsilon=4.0, confidence=0.9),
            duration=25,
        )
        session, runtime = _session(
            instance.graph,
            instance.database,
            continuous,
            origin=origin,
            seed=6,
            config=EngineConfig(scheduler="all", evaluator="repeated"),
        )
        errors = []
        for t in range(25):
            instance.step(t)
            for estimate in session.step(t).values():
                errors.append(abs(estimate.aggregate - instance.true_average()))
        assert session.metrics.snapshot_queries == 25
        assert instance.nodes_left > 0  # churn actually happened
        assert float(np.mean(errors)) < 8.0  # estimates stayed sane
