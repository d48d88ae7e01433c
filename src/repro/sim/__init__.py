"""Discrete-event simulation substrate.

The paper assumes a discrete-time model (Section II): time is an integer
step counter whose wall-clock meaning is fixed by the workload (12 hours
per step for TEMPERATURE, 1 second for MEMORY). This package provides a
heap-based event engine (:mod:`repro.sim.engine`) for scheduling update
streams, churn rounds and snapshot queries, plus metric collection helpers
(:mod:`repro.sim.metrics`).
"""

from repro.sim.clock import SimulationClock
from repro.sim.engine import Event, SimulationEngine
from repro.sim.metrics import RunMetrics

__all__ = [
    "Event",
    "RunMetrics",
    "SimulationClock",
    "SimulationEngine",
]
