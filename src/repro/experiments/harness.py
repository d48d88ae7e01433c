"""Shared experiment plumbing.

The paper's methodology (Section VI-A): simulate the workload's network,
pick a random node to issue the canonical continuous AVG query, run the
query for the full dataset duration, and measure snapshot-query counts,
sample counts and messages. :func:`run_continuous_query` is that loop;
:func:`build_instance` builds the workload; :func:`make_engine` maps the
paper's algorithm names (ALL/PRED-k x INDEP/RPT) onto a one-query
:class:`~repro.core.session.DigestSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.datasets.base import DatasetInstance
from repro.datasets.memory import MemoryConfig, MemoryDataset, MemoryInstance
from repro.datasets.temperature import TemperatureConfig, TemperatureDataset
from repro.db.aggregates import AggregateOp
from repro.errors import SimulationError
from repro.network.messaging import MessageLedger
from repro.obs.tracer import SinkTracer, Trace
from repro.sampling.operator import SamplerConfig
from repro.sim.metrics import RunMetrics

DATASETS = ("temperature", "memory")


def build_instance(
    dataset: str, scale: float = 1.0, seed: int = 0
) -> DatasetInstance:
    """Build a live workload instance by name, optionally scaled down."""
    if dataset == "temperature":
        config = TemperatureConfig()
        if scale < 1.0:
            config = config.scaled(scale)
        return TemperatureDataset(config, seed=seed).build()
    if dataset == "memory":
        config = MemoryConfig()
        if scale < 1.0:
            config = config.scaled(scale)
        return MemoryDataset(config, seed=seed).build()
    raise SimulationError(f"unknown dataset {dataset!r}; expected {DATASETS}")


def canonical_query(
    instance: DatasetInstance, precision: Precision, duration: int | None = None
) -> ContinuousQuery:
    """The paper's evaluation query: ``SELECT AVG(attribute) FROM R``."""
    return ContinuousQuery(
        query=Query(op=AggregateOp.AVG, expression=instance.expression),
        precision=precision,
        start_time=0,
        duration=duration if duration is not None else instance.n_steps,
    )


def make_engine(
    instance: DatasetInstance,
    precision: Precision,
    scheduler: str,
    evaluator: str,
    origin: int,
    seed: int,
    pred_points: int = 3,
    sampler_config: SamplerConfig | None = None,
    duration: int | None = None,
    tracer: SinkTracer | None = None,
) -> DigestSession:
    """A session running the canonical query under one of the paper's
    algorithm combinations.

    ``scheduler``: ``"all"`` or ``"pred"`` (with ``pred_points`` = the k of
    PRED-k); ``evaluator``: ``"independent"`` or ``"repeated"``.
    ``tracer`` (e.g. a recording :class:`~repro.obs.tracer.SinkTracer` when
    the run's trace should be exported) is forwarded to the session, which
    derives its counters from it.
    """
    session = DigestSession(
        instance.graph,
        instance.database,
        origin,
        np.random.default_rng(seed),
        sampler_config=sampler_config,
        tracer=tracer,
    )
    session.add_query(
        canonical_query(instance, precision, duration),
        config=EngineConfig(
            scheduler=scheduler,
            evaluator=evaluator,
            pred_points=pred_points,
        ),
    )
    return session


@dataclass
class ExperimentRun:
    """Everything measured from one continuous-query run."""

    metrics: RunMetrics
    ledger: MessageLedger
    oracle_times: list[int] = field(default_factory=list)
    oracle_values: list[float] = field(default_factory=list)
    estimate_errors: list[float] = field(default_factory=list)
    #: full span/event capture when the session ran on a recording tracer
    trace: Trace | None = None

    @property
    def snapshot_queries(self) -> int:
        return self.metrics.snapshot_queries

    @property
    def samples_total(self) -> int:
        return self.metrics.samples_total

    @property
    def samples_fresh(self) -> int:
        return self.metrics.samples_fresh

    @property
    def messages_total(self) -> int:
        return self.ledger.total

    def samples_per_query(self) -> float:
        if self.metrics.snapshot_queries == 0:
            return 0.0
        return self.metrics.samples_total / self.metrics.snapshot_queries

    def mean_absolute_error(self) -> float:
        if not self.estimate_errors:
            return 0.0
        return float(np.mean(self.estimate_errors))


def pick_origin(instance: DatasetInstance, seed: int) -> int:
    """A random querying node, protected from churn where churn exists."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    nodes = instance.graph.nodes()
    origin = int(nodes[int(rng.integers(len(nodes)))])
    if isinstance(instance, MemoryInstance):
        instance.churn.protect(origin)
    return origin


def run_continuous_query(
    instance: DatasetInstance,
    session: DigestSession,
    n_steps: int | None = None,
    record_oracle: bool = False,
) -> ExperimentRun:
    """Drive the workload and a one-query session together for the query
    duration.

    With ``record_oracle=True`` the oracle aggregate is computed at every
    snapshot-query time and the estimate's absolute error recorded — the
    quantity the ``(epsilon, p)`` guarantee constrains.
    """
    steps = n_steps if n_steps is not None else instance.n_steps
    run = ExperimentRun(metrics=session.metrics, ledger=session.ledger)
    for time in range(steps):
        instance.step(time)
        for estimate in session.step(time).values():
            if record_oracle:
                truth = instance.true_average()
                run.oracle_times.append(time)
                run.oracle_values.append(truth)
                run.estimate_errors.append(abs(estimate.aggregate - truth))
    if session.tracer.is_recording:
        run.trace = session.tracer.trace()
    return run
