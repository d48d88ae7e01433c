"""Tests for the shared experiment harness."""

import numpy as np
import pytest

from repro.core.query import Precision
from repro.datasets.memory import MemoryInstance
from repro.datasets.temperature import TemperatureInstance
from repro.errors import SimulationError
from repro.experiments.harness import (
    build_instance,
    canonical_query,
    make_engine,
    pick_origin,
    run_continuous_query,
)


class TestBuildInstance:
    def test_temperature(self):
        instance = build_instance("temperature", scale=0.05, seed=0)
        assert isinstance(instance, TemperatureInstance)

    def test_memory(self):
        instance = build_instance("memory", scale=0.05, seed=0)
        assert isinstance(instance, MemoryInstance)

    def test_unknown(self):
        with pytest.raises(SimulationError):
            build_instance("stocks")

    def test_full_scale_counts(self):
        # scale=1.0 must not shrink anything (construct config only; the
        # instance itself would be expensive, so use the cheapest check)
        instance = build_instance("memory", scale=1.0, seed=0)
        assert len(instance.graph) == 820


class TestQueryAndEngine:
    def test_canonical_query(self):
        instance = build_instance("temperature", scale=0.05, seed=0)
        continuous = canonical_query(instance, Precision(1.0, 1.0))
        assert continuous.duration == instance.n_steps
        assert "AVG" in str(continuous)

    def test_make_engine_combinations(self):
        instance = build_instance("temperature", scale=0.05, seed=0)
        precision = Precision(4.0, 2.0)
        for scheduler in ("all", "pred"):
            for evaluator in ("independent", "repeated"):
                session = make_engine(
                    instance, precision, scheduler, evaluator, origin=0, seed=0
                )
                (query_id,) = session.query_ids()
                config = session.runtime(query_id).config
                assert config.scheduler == scheduler
                assert config.evaluator == evaluator


class TestRunLoop:
    def test_pick_origin_protects_memory_origin(self):
        instance = build_instance("memory", scale=0.1, seed=0)
        origin = pick_origin(instance, seed=0)
        assert origin in instance.churn.protected

    def test_run_records_metrics(self):
        instance = build_instance("temperature", scale=0.05, seed=0)
        engine = make_engine(
            instance, Precision(4.0, 2.0), "all", "independent", 0, 0
        )
        run = run_continuous_query(instance, engine, n_steps=8, record_oracle=True)
        assert run.snapshot_queries == 8
        assert run.samples_total > 0
        assert run.messages_total > 0
        assert len(run.estimate_errors) == 8
        assert run.samples_per_query() == run.samples_total / 8
        assert run.mean_absolute_error() >= 0.0

    def test_epsilon_guarantee_holds_on_average(self):
        """Snapshot errors stay within ~epsilon (probabilistic, averaged)."""
        instance = build_instance("temperature", scale=0.05, seed=1)
        epsilon = 2.0
        engine = make_engine(
            instance, Precision(4.0, epsilon, 0.95), "all", "repeated", 0, 1
        )
        run = run_continuous_query(instance, engine, n_steps=15, record_oracle=True)
        errors = np.array(run.estimate_errors)
        assert (errors <= epsilon).mean() >= 0.7
        assert errors.mean() <= epsilon


class TestExperimentRunAccessors:
    def test_zero_query_run(self):
        from repro.network.messaging import MessageLedger
        from repro.sim.metrics import RunMetrics
        from repro.experiments.harness import ExperimentRun

        run = ExperimentRun(metrics=RunMetrics(), ledger=MessageLedger())
        assert run.samples_per_query() == 0.0
        assert run.mean_absolute_error() == 0.0
        assert run.messages_total == 0
        assert run.snapshot_queries == 0
        assert run.samples_total == 0
        assert run.samples_fresh == 0
