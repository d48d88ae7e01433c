"""Synthetic MEMORY workload (SETI@HOME surrogate).

Each computing unit reports its currently available memory every step::

    y_i(t) = mean + load(t) + b_i + e_i(t)

* ``load(t)`` — a shared slow sinusoid (system-wide demand swing) keeping
  the aggregate smooth enough to extrapolate;
* ``b_i`` — persistent per-unit offset (machine size), variance
  ``sigma_between^2``;
* ``e_i`` — AR(1) with *jump innovations*: with probability ``jump_prob``
  the innovation is a large task start/finish jump, otherwise small
  Gaussian drift. The innovation variance is normalized so the stationary
  variance stays ``sigma_noise^2`` and the lag-1 correlation calibration
  matches Table II's rho ~= 0.68, sigma ~= 10.

Unlike TEMPERATURE, the overlay is a power-law graph and it *churns*:
nodes depart (taking their tuples) and fresh nodes join with new units —
the dynamics that make repeated sampling replace part of its sample-set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.base import DatasetInstance, distribute_units
from repro.db.relation import P2PDatabase, Schema
from repro.errors import SimulationError
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.graph import OverlayGraph
from repro.network.topology import power_law_topology

ATTRIBUTE = "available_memory"


@dataclass(frozen=True)
class MemoryConfig:
    """Generator parameters; defaults reproduce Table II's MEMORY row."""

    n_nodes: int = 820
    n_units: int = 1000
    n_steps: int = 512
    mean: float = 100.0
    load_amplitude: float = 8.0
    load_period: int = 256
    sigma_between: float = 7.37  # persistent machine-size offsets
    sigma_noise: float = 6.76  # AR(1)+jump noise
    ar_coefficient: float = 0.3
    common_noise_sigma: float = 1.0  # shared demand jitter
    common_noise_ar: float = 0.4
    jump_prob: float = 0.05
    jump_scale: float = 3.0  # jump stddev as a multiple of the base innovation
    leave_probability: float = 0.002
    churn_links: int = 2
    power_law_alpha: float = 2.5

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise SimulationError(f"need >= 4 nodes, got {self.n_nodes}")
        if self.n_units < 1:
            raise SimulationError(f"need >= 1 unit, got {self.n_units}")
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise SimulationError(
                f"ar_coefficient must be in [0, 1), got {self.ar_coefficient}"
            )
        if not 0.0 <= self.jump_prob < 1.0:
            raise SimulationError(
                f"jump_prob must be in [0, 1), got {self.jump_prob}"
            )
        if not 0.0 <= self.leave_probability < 0.5:
            raise SimulationError(
                f"leave_probability must be in [0, 0.5), got "
                f"{self.leave_probability}"
            )

    @property
    def expected_sigma(self) -> float:
        """Cross-sectional std the generator is calibrated to (~10)."""
        return math.sqrt(self.sigma_between**2 + self.sigma_noise**2)

    @property
    def expected_rho(self) -> float:
        """Lag-1 cross-sectional correlation it is calibrated to (~0.68)."""
        total = self.sigma_between**2 + self.sigma_noise**2
        if total == 0:
            return 0.0
        return (
            self.sigma_between**2 + self.ar_coefficient * self.sigma_noise**2
        ) / total

    def scaled(self, factor: float) -> "MemoryConfig":
        """Proportionally smaller instance (same calibration targets)."""
        if not 0.0 < factor <= 1.0:
            raise SimulationError(f"scale factor must be in (0, 1], got {factor}")
        return replace(
            self,
            n_nodes=max(8, int(self.n_nodes * factor)),
            n_units=max(8, int(self.n_units * factor)),
            n_steps=max(16, int(self.n_steps * factor)),
        )


def clamp_at_zero(values: np.ndarray) -> np.ndarray:
    """Element-wise ``max(0.0, x)``, matching Python's ``max`` bit for bit.

    ``max(0.0, x)`` keeps ``0.0`` unless ``x > 0.0``, so it maps ``-0.0``
    and NaN to ``0.0``; ``np.maximum`` would keep ``-0.0`` and propagate NaN.
    """
    return np.where(values > 0.0, values, 0.0)


class MemoryInstance(DatasetInstance):
    """Live MEMORY world with churn; call :meth:`step` once per step."""

    def __init__(self, config: MemoryConfig, rng: np.random.Generator) -> None:
        edges = power_law_topology(
            config.n_nodes, alpha=config.power_law_alpha, rng=rng
        )
        graph = OverlayGraph(edges, n_nodes=config.n_nodes)
        database = P2PDatabase(Schema((ATTRIBUTE,)), graph.nodes())
        super().__init__(graph, database, ATTRIBUTE, config.n_steps)
        self.config = config
        self._rng = rng
        # per-unit state as parallel arrays, in spawn order (churn filters
        # them with an order-preserving mask)
        self._tuple_ids = np.empty(0, dtype=np.int64)
        self._offsets = np.empty(0)
        self._noise = np.empty(0)
        self._common_noise = float(rng.normal(0.0, config.common_noise_sigma))
        # the querying node(s) must survive churn; experiments protect theirs
        self._churn = ChurnProcess(
            graph,
            ChurnConfig(
                leave_probability=config.leave_probability,
                join_rate=config.leave_probability * config.n_nodes,
                n_links=config.churn_links,
                min_nodes=max(4, config.n_nodes // 2),
            ),
            rng,
        )
        self.tuples_lost_to_churn = 0
        self.nodes_joined = 0
        self.nodes_left = 0
        assignment = distribute_units(config.n_units, graph.nodes(), rng)
        self._append_units(
            [self._spawn_unit(node, time=0) for node in assignment.values()]
        )

    @property
    def churn(self) -> ChurnProcess:
        """The churn process (protect the querying node through this)."""
        return self._churn

    def n_units_live(self) -> int:
        return len(self._tuple_ids)

    # ------------------------------------------------------------------
    # generator internals
    # ------------------------------------------------------------------

    def _load(self, time: int) -> float:
        config = self.config
        return (
            config.mean
            + config.load_amplitude
            * math.sin(2.0 * math.pi * time / config.load_period)
            + self._common_noise
        )

    def expected_average(self, time: int) -> float:
        """The smooth shared component (for tests)."""
        return self._load(time)

    def _innovation(self, count: int) -> np.ndarray:
        """AR(1) innovations with jump mixture, variance-normalized."""
        config = self.config
        target_var = config.sigma_noise**2 * (1.0 - config.ar_coefficient**2)
        # mixture: N(0, s^2) w.p. 1-p, N(0, (ks)^2) w.p. p; solve for s
        p, k = config.jump_prob, config.jump_scale
        base_var = target_var / ((1.0 - p) + p * k * k)
        draws = self._rng.normal(0.0, math.sqrt(base_var), count)
        jumps = self._rng.random(count) < p
        draws[jumps] *= k
        return draws

    def _spawn_unit(self, node: int, time: int) -> tuple[int, float, float]:
        """Insert a new unit at ``node``; returns its ``(tuple id, offset, noise)``."""
        config = self.config
        offset = float(self._rng.normal(0.0, config.sigma_between))
        noise = float(self._rng.normal(0.0, config.sigma_noise))
        value = max(0.0, self._load(time) + offset + noise)
        return self.database.insert(node, {ATTRIBUTE: value}), offset, noise

    def _append_units(self, units: list[tuple[int, float, float]]) -> None:
        """Append spawned units' state, in spawn order."""
        if not units:
            return
        tuple_ids, offsets, noise = zip(*units)
        self._tuple_ids = np.concatenate(
            [self._tuple_ids, np.array(tuple_ids, dtype=np.int64)]
        )
        self._offsets = np.concatenate([self._offsets, np.array(offsets)])
        self._noise = np.concatenate([self._noise, np.array(noise)])

    # ------------------------------------------------------------------
    # world advancement
    # ------------------------------------------------------------------

    def step(self, time: int) -> None:
        """One step: churn first, then every surviving unit updates."""
        self._check_step(time)
        if time == 0:
            return
        config = self.config
        common_innovation = config.common_noise_sigma * math.sqrt(
            1.0 - config.common_noise_ar**2
        )
        self._common_noise = config.common_noise_ar * self._common_noise + float(
            self._rng.normal(0.0, common_innovation)
        )
        event = self._churn.step()
        if not event.is_empty:
            lost = self.database.handle_churn(event)
            self.tuples_lost_to_churn += len(lost)
            self.nodes_joined += len(event.joined)
            self.nodes_left += len(event.left)
            if lost:
                keep = ~np.isin(self._tuple_ids, lost)
                self._tuple_ids = self._tuple_ids[keep]
                self._offsets = self._offsets[keep]
                self._noise = self._noise[keep]
            spawned: list[tuple[int, float, float]] = []
            for node in event.joined:
                arrivals = 1 + int(self._rng.poisson(0.2))
                spawned.extend(self._spawn_unit(node, time) for _ in range(arrivals))
            self._append_units(spawned)
        innovations = self._innovation(len(self._tuple_ids))
        load = self._load(time)
        self._noise = config.ar_coefficient * self._noise + innovations
        values = clamp_at_zero(load + self._offsets + self._noise)
        self.database.update_many(ATTRIBUTE, self._tuple_ids, values)


class MemoryDataset:
    """Factory tying a :class:`MemoryConfig` to a seed."""

    def __init__(self, config: MemoryConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else MemoryConfig()
        self.seed = seed

    def build(self) -> MemoryInstance:
        return MemoryInstance(self.config, np.random.default_rng(self.seed))
