"""Per-layer host-time tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each Digest layer
(the session, evaluators, scheduler, pool, operator, walker, mixing,
overlay graph, partitions, database ingest and telemetry tracer) in
place, records ``calls``, total seconds and *self* seconds (total minus
the time spent in wrapped callees), and puts every original back on
:meth:`uninstall`. Nothing under ``src/`` is edited: the wrappers replace
class attributes and module globals, and they never touch an RNG, so a
traced run draws exactly the samples an untraced one does.

Times are accumulated raw per calibration window and scaled by that
window's drift factor on :meth:`flush`, like every other timed interval
in the benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.independent import IndependentEvaluator
from repro.core.repeated import RepeatedEvaluator
from repro.core.scheduler import ExtrapolationScheduler
from repro.core.session import DigestSession
from repro.datasets.memory import MemoryInstance
from repro.datasets.temperature import TemperatureInstance
from repro.db.relation import P2PDatabase
from repro.network.graph import OverlayGraph
from repro.network.partitions import PartitionPlan
from repro.obs.tracer import SinkTracer, Tracer
from repro.sampling import mixing
from repro.sampling import operator as operator_module
from repro.sampling.operator import SamplingOperator
from repro.sampling.pool import SamplePool
from repro.sampling.walker import WalkContext

#: layer name -> the (owner, attribute) entry points it times. A module
#: owner patches the global its callers look up at call time:
#: ``SamplingOperator`` calls ``batch_walk`` through its own module and
#: ``mixing.eigengap_sparse`` through the ``mixing`` module.
LAYERS: dict[str, tuple[tuple[Any, str], ...]] = {
    "core.session.step": ((DigestSession, "step"),),
    "core.evaluate": (
        (IndependentEvaluator, "evaluate"),
        (RepeatedEvaluator, "evaluate"),
    ),
    "core.schedule": ((ExtrapolationScheduler, "next_time"),),
    "sampling.pool.acquire": ((SamplePool, "acquire"),),
    "sampling.pool.prefetch": ((SamplePool, "prefetch"),),
    "sampling.operator.sample_tuples": ((SamplingOperator, "sample_tuples"),),
    "sampling.operator.sample_nodes": ((SamplingOperator, "sample_nodes"),),
    "sampling.walker.context": (
        (WalkContext, "from_graph"),
        (WalkContext, "from_subgraph"),
    ),
    "sampling.walker.batch_walk": ((operator_module, "batch_walk"),),
    "sampling.mixing.eigengap": ((mixing, "eigengap_sparse"),),
    "network.graph.csr": ((OverlayGraph, "csr"),),
    "network.graph.hop_distances": ((OverlayGraph, "hop_distances"),),
    "network.partitions.reachable": ((PartitionPlan, "reachable"),),
    "db.ingest": ((TemperatureInstance, "step"), (MemoryInstance, "step")),
    # the base class is the no-op tracer sessions hold by default
    "obs.tracer.span": ((Tracer, "span"), (SinkTracer, "span")),
    "obs.tracer.end": ((Tracer, "end"), (SinkTracer, "end")),
}

#: counted, never timed: per-row timing of millions of calls would
#: distort the run it measures
COUNTED: dict[str, tuple[Any, str]] = {"db.update": (P2PDatabase, "update")}


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    raw_s: float = 0.0
    raw_self_s: float = 0.0


class LayerTracer:
    """Install/uninstall timing wrappers around every layer in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in LAYERS}
        self.counts = {name: 0 for name in COUNTED}
        #: sample_nodes requested vs delivered (the wasted-walk ratio)
        self.nodes_requested = 0
        self.nodes_delivered = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        for name, targets in LAYERS.items():
            for owner, attribute in targets:
                self._patch(owner, attribute, self._timed(name))
        for name, (owner, attribute) in COUNTED.items():
            self._patch(owner, attribute, self._counted(name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def flush(self, factor: float) -> None:
        """Scale the raw time gathered since the last flush into totals."""
        for stats in self.stats.values():
            stats.s += stats.raw_s * factor
            stats.self_s += stats.raw_self_s * factor
            stats.raw_s = stats.raw_self_s = 0.0

    def _patch(
        self, owner: Any, attribute: str, make: Callable[[Callable], Callable]
    ) -> None:
        # read the descriptor itself (classmethod objects stay classmethods)
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _timed(self, name: str) -> Callable[[Callable], Callable]:
        stats = self.stats[name]
        stack = self._stack
        perf_counter = time.perf_counter
        is_sample_nodes = name == "sampling.operator.sample_nodes"

        def make(func: Callable) -> Callable:
            def timed(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    stats.calls += 1
                    stats.raw_s += elapsed
                    stats.raw_self_s += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                if is_sample_nodes:
                    # SamplingOperator.sample_nodes(self, weight, n, origin)
                    requested = kwargs["n"] if "n" in kwargs else args[2]
                    self.nodes_requested += int(requested)
                    self.nodes_delivered += len(result)
                return result

            return timed

        return make

    def _counted(self, name: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(func: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

        return make
