"""Tests for the synthetic MEMORY workload."""

import numpy as np
import pytest

from repro.datasets.base import lag1_correlation
from repro.datasets.memory import MemoryConfig, MemoryDataset
from repro.errors import SimulationError


class TestConfig:
    def test_defaults_match_table2_counts(self):
        config = MemoryConfig()
        assert config.n_nodes == 820
        assert config.n_units == 1000

    def test_calibration_targets(self):
        config = MemoryConfig()
        assert config.expected_sigma == pytest.approx(10.0, abs=0.1)
        assert config.expected_rho == pytest.approx(0.68, abs=0.01)

    def test_scaled(self):
        scaled = MemoryConfig().scaled(0.1)
        assert scaled.n_nodes == 82
        assert scaled.expected_rho == MemoryConfig().expected_rho

    def test_validation(self):
        with pytest.raises(SimulationError):
            MemoryConfig(n_nodes=2)
        with pytest.raises(SimulationError):
            MemoryConfig(jump_prob=1.0)
        with pytest.raises(SimulationError):
            MemoryConfig(leave_probability=0.9)


class TestInstance:
    def _build(self, scale=0.1, seed=0, **overrides):
        import dataclasses

        config = MemoryConfig().scaled(scale)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        return MemoryDataset(config, seed=seed).build()

    def test_world_shape(self):
        instance = self._build()
        assert len(instance.graph) == instance.config.n_nodes
        assert instance.database.n_tuples >= instance.config.n_units
        assert instance.graph.is_connected()

    def test_churn_happens(self):
        instance = self._build(leave_probability=0.05)
        for t in range(30):
            instance.step(t)
        assert instance.nodes_left > 0
        assert instance.nodes_joined > 0
        assert instance.tuples_lost_to_churn > 0

    def test_units_tracked_consistently(self):
        """Unit registry and relation stay in sync through churn."""
        instance = self._build(leave_probability=0.05)
        for t in range(30):
            instance.step(t)
            assert instance.n_units_live() == instance.database.n_tuples
            for tuple_id in instance._tuple_ids:
                assert int(tuple_id) in instance.database

    def test_protected_origin_survives(self):
        instance = self._build(leave_probability=0.1)
        origin = instance.graph.nodes()[0]
        instance.churn.protect(origin)
        for t in range(30):
            instance.step(t)
        assert origin in instance.graph

    def test_values_non_negative(self):
        instance = self._build()
        for t in range(20):
            instance.step(t)
        assert (instance.current_values() >= 0).all()

    def test_calibration_measured(self):
        """rho/sigma near Table II targets (no churn, to keep pairs matched)."""
        instance = self._build(scale=0.3, leave_probability=0.0)
        rhos, sigmas = [], []
        previous = None
        for t in range(50):
            instance.step(t)
            current = instance.current_values()
            sigmas.append(current.std())
            if previous is not None and previous.size == current.size:
                rhos.append(lag1_correlation(previous, current))
            previous = current
        assert np.mean(rhos) == pytest.approx(0.68, abs=0.08)
        assert np.mean(sigmas) == pytest.approx(10.0, abs=1.5)

    def test_deterministic_by_seed(self):
        a = self._build(seed=3)
        b = self._build(seed=3)
        for t in range(10):
            a.step(t)
            b.step(t)
        np.testing.assert_allclose(a.current_values(), b.current_values())
        assert a.graph.nodes() == b.graph.nodes()

    def test_lower_correlation_than_temperature(self):
        """The MEMORY process is less correlated than TEMPERATURE (0.68 < 0.89)."""
        memory = MemoryConfig()
        from repro.datasets.temperature import TemperatureConfig

        assert memory.expected_rho < TemperatureConfig().expected_rho
