"""Synthetic TEMPERATURE workload (JPL/NASA weather-station surrogate).

Each sensor unit ``i`` reports, every 12-hour step::

    y_i(t) = base + seasonal(t) + diurnal(t) + b_i + e_i(t)

* ``seasonal``/``diurnal`` — shared smooth sinusoids (annual and daily
  cycles) that make the *aggregate* a smooth, extrapolatable function of
  time (what PRED-k exploits), plus a shared AR(1) "weather-system" jitter
  (``common_noise_sigma``) that gives the aggregate the unpredictable
  step-to-step component real traces have — it is what keeps PRED-k from
  skipping anything when ``delta`` is below the jitter scale (the left end
  of Figure 4-a). Being common to all units, it leaves the cross-sectional
  calibration (rho, sigma) untouched;
* ``b_i`` — persistent per-unit offset (station climate), variance
  ``sigma_between^2``;
* ``e_i`` — AR(1) weather noise with coefficient ``ar_coefficient`` and
  stationary variance ``sigma_noise^2``. Innovations are a *sparse shock
  mixture*: with probability ``shock_prob`` a unit takes a large weather
  shock, otherwise (almost) none — matching how station temperatures
  actually change (long quiet stretches, occasional fronts). Sparseness
  does not move the (rho, sigma) calibration (an AR(1)'s lag-1
  autocorrelation is ``phi`` for any i.i.d. innovation), but it is what
  gives adaptive filters (the ALL+FILTER baseline) something to exploit:
  dense Gaussian innovations under the same calibration would force
  per-step changes ~ ``sigma * sqrt(2(1-rho))`` ~ 3.75 on every tuple,
  and no filter can save messages when everything moves past epsilon
  every step.

The lag-1 cross-sectional correlation (Table II's rho) is by construction::

    rho ~= (sigma_between^2 + phi * sigma_noise^2)
           / (sigma_between^2 + sigma_noise^2)

and the cross-sectional sigma is ``sqrt(sigma_between^2 + sigma_noise^2)``.
Defaults hit the published rho ~= 0.89, sigma ~= 8 with the published scale
(8000 units / 530 nodes / 1080 twelve-hour steps ~= 18 months); use
:meth:`TemperatureConfig.scaled` for cheaper experiment sizes.

The overlay is a mesh augmented with a small fraction of random long-range
links (grid wiring plus regional uplinks — see
:func:`repro.network.topology.augmented_mesh_topology` for why a literal
grid cannot reproduce the paper's measured per-sample cost) and there is no
churn ("almost stable").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.base import DatasetInstance, distribute_units
from repro.db.relation import P2PDatabase, Schema
from repro.errors import SimulationError
from repro.network.graph import OverlayGraph
from repro.network.topology import augmented_mesh_topology

ATTRIBUTE = "temperature"


@dataclass(frozen=True)
class TemperatureConfig:
    """Generator parameters; defaults reproduce Table II's TEMPERATURE row."""

    n_nodes: int = 530
    n_units: int = 8000
    n_steps: int = 1080  # 18 months at 2 updates/day
    steps_per_day: int = 2
    steps_per_year: int = 730
    base: float = 60.0
    seasonal_amplitude: float = 15.0
    diurnal_amplitude: float = 1.0  # residual day/night signal (smoothed readings)
    long_link_fraction: float = 0.2  # regional uplinks on top of the grid
    sigma_between: float = 4.135  # persistent station offsets
    sigma_noise: float = 6.848  # AR(1) weather noise
    ar_coefficient: float = 0.85
    shock_prob: float = 0.1  # fraction of units hit by a shock per step
    common_noise_sigma: float = 2.0  # shared weather-system jitter
    common_noise_ar: float = 0.8

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.n_units < self.n_nodes:
            raise SimulationError(
                "need >= 2 nodes and at least one unit per node "
                f"(n_nodes={self.n_nodes}, n_units={self.n_units})"
            )
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise SimulationError(
                f"ar_coefficient must be in [0, 1), got {self.ar_coefficient}"
            )
        if self.sigma_between < 0 or self.sigma_noise < 0:
            raise SimulationError("sigmas must be non-negative")
        if not 0.0 < self.shock_prob <= 1.0:
            raise SimulationError(
                f"shock_prob must be in (0, 1], got {self.shock_prob}"
            )

    @property
    def expected_sigma(self) -> float:
        """Cross-sectional std the generator is calibrated to (~8)."""
        return math.sqrt(self.sigma_between**2 + self.sigma_noise**2)

    @property
    def expected_rho(self) -> float:
        """Lag-1 cross-sectional correlation it is calibrated to (~0.89)."""
        total = self.sigma_between**2 + self.sigma_noise**2
        if total == 0:
            return 0.0
        return (
            self.sigma_between**2 + self.ar_coefficient * self.sigma_noise**2
        ) / total

    def scaled(self, factor: float) -> "TemperatureConfig":
        """Proportionally smaller instance (same calibration targets)."""
        if not 0.0 < factor <= 1.0:
            raise SimulationError(f"scale factor must be in (0, 1], got {factor}")
        return replace(
            self,
            n_nodes=max(4, int(self.n_nodes * factor)),
            n_units=max(8, int(self.n_units * factor)),
            n_steps=max(16, int(self.n_steps * factor)),
        )


class TemperatureInstance(DatasetInstance):
    """Live TEMPERATURE world: call :meth:`step` once per 12-hour step."""

    def __init__(self, config: TemperatureConfig, rng: np.random.Generator) -> None:
        edges = augmented_mesh_topology(
            config.n_nodes, config.long_link_fraction, rng
        )
        graph = OverlayGraph(edges, n_nodes=config.n_nodes)
        database = P2PDatabase(Schema((ATTRIBUTE,)), graph.nodes())
        super().__init__(graph, database, ATTRIBUTE, config.n_steps)
        self.config = config
        self._rng = rng
        assignment = distribute_units(config.n_units, graph.nodes(), rng)
        self._offsets = rng.normal(0.0, config.sigma_between, config.n_units)
        self._noise = rng.normal(0.0, config.sigma_noise, config.n_units)
        self._common_noise = float(rng.normal(0.0, config.common_noise_sigma))
        self._tuple_ids = np.empty(config.n_units, dtype=np.int64)
        initial = self._signal(0) + self._common_noise + self._offsets + self._noise
        for unit in range(config.n_units):
            self._tuple_ids[unit] = database.insert(
                assignment[unit], {ATTRIBUTE: float(initial[unit])}
            )

    def _signal(self, time: int) -> float:
        """Shared smooth component at ``time`` (seasonal + diurnal)."""
        config = self.config
        seasonal = config.seasonal_amplitude * math.sin(
            2.0 * math.pi * time / config.steps_per_year
        )
        diurnal = config.diurnal_amplitude * math.sin(
            2.0 * math.pi * time / config.steps_per_day + 0.5
        )
        return config.base + seasonal + diurnal

    def expected_average(self, time: int) -> float:
        """The smooth component the oracle aggregate tracks (for tests)."""
        return self._signal(time)

    def step(self, time: int) -> None:
        """Advance every unit one 12-hour step and write the new readings."""
        self._check_step(time)
        if time == 0:
            return  # initial values already materialized at construction
        config = self.config
        innovation_sigma = config.sigma_noise * math.sqrt(
            1.0 - config.ar_coefficient**2
        )
        # sparse shock mixture with the same total innovation variance:
        # Bernoulli(shock_prob) * N(0, innovation_sigma^2 / shock_prob)
        shocks = self._rng.random(config.n_units) < config.shock_prob
        innovations = np.zeros(config.n_units)
        if np.any(shocks):
            innovations[shocks] = self._rng.normal(
                0.0,
                innovation_sigma / math.sqrt(config.shock_prob),
                int(shocks.sum()),
            )
        self._noise = config.ar_coefficient * self._noise + innovations
        common_innovation = config.common_noise_sigma * math.sqrt(
            1.0 - config.common_noise_ar**2
        )
        self._common_noise = config.common_noise_ar * self._common_noise + float(
            self._rng.normal(0.0, common_innovation)
        )
        values = self._signal(time) + self._common_noise + self._offsets + self._noise
        self.database.update_many(ATTRIBUTE, self._tuple_ids, values)


class TemperatureDataset:
    """Factory tying a :class:`TemperatureConfig` to a seed."""

    def __init__(self, config: TemperatureConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else TemperatureConfig()
        self.seed = seed

    def build(self) -> TemperatureInstance:
        return TemperatureInstance(self.config, np.random.default_rng(self.seed))
