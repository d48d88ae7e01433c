"""Bit-identity pins for the synthetic worlds.

The digests below were recorded from the row-at-a-time generators. The
vectorized ones must draw the same random numbers in the same order and
apply the same IEEE operations element by element, so every value —
and with it every downstream sample and message count — stays the same.
"""

import dataclasses
import hashlib
import math

import numpy as np

from repro.datasets.memory import MemoryConfig, MemoryDataset, clamp_at_zero
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_churning_memory_world_is_pinned():
    config = dataclasses.replace(MemoryConfig().scaled(0.1), leave_probability=0.05)
    instance = MemoryDataset(config, seed=11).build()
    for t in range(40):
        instance.step(t)
    assert instance.nodes_joined == 137
    assert instance.nodes_left == 156
    assert instance.database.n_tuples == 75
    assert instance.tuples_lost_to_churn == 186
    assert _digest(instance.current_values()) == (
        "aae4ead5ace893a5366f068f2d943ed9ca65230554608dcc58ad517dc03090c7"
    )


def test_scaled_temperature_world_is_pinned():
    instance = TemperatureDataset(TemperatureConfig().scaled(0.05), seed=5).build()
    for t in range(30):
        instance.step(t)
    assert instance.database.n_tuples == 400
    assert _digest(instance.current_values()) == (
        "47cc1817f725796f5dd67860fc8e5be393103e05c6357adcbb5c2833ec7bc473"
    )


def test_clamp_matches_python_max():
    inputs = [-0.0, 0.0, -1.0, 1.0, math.nan]
    clamped = clamp_at_zero(np.array(inputs))
    expected = np.array([max(0.0, x) for x in inputs])
    assert clamped.tobytes() == expected.tobytes()
    assert not np.signbit(clamped).any()
