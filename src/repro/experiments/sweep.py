"""The driver the gated sweeps share: flags, traced cells, one exit rule.

``fault_tolerance``, ``partition_tolerance`` and ``slo_audit`` take the
same flags (:func:`parser`) and end the same way (:func:`conclude`):
export the trace, replay its counters under ``--verify-trace``, and
apply :func:`report`, the exit rule of every gate (``multi_query``'s
too). The first two also run their cells through :func:`run_traced`.
"""

from __future__ import annotations

import argparse
import itertools
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.obs.analysis import verify_trace_consistency
from repro.obs.console import emit
from repro.obs.export import export_trace
from repro.obs.tracer import RunMetricsSink, SinkTracer, Trace
from repro.sim.metrics import RunMetrics

Row = TypeVar("Row")


def parser(doc: str, smoke_help: str) -> argparse.ArgumentParser:
    """The flags of every gated sweep; ``doc`` is the module docstring."""
    flags = argparse.ArgumentParser(description=doc.splitlines()[0])
    flags.add_argument("--seed", type=int, default=0)
    flags.add_argument("--smoke", action="store_true", help=smoke_help)
    flags.add_argument(
        "--trace-out",
        help="export the sweep's JSONL telemetry trace to this path",
    )
    flags.add_argument(
        "--verify-trace",
        action="store_true",
        help="fail unless replayed-trace counters equal the live metrics",
    )
    return flags


def run_traced(
    experiment: str,
    seed: int,
    axes: Sequence[tuple[Sequence[Any], int]],
    run_cell: Callable[..., Row],
) -> tuple[list[Row], RunMetrics, Trace]:
    """Run every cell of a grid under one recording tracer.

    Each axis is ``(values, step)``. The cell at indices ``i`` runs
    ``run_cell(*values_i, seed + sum(step * i), tracer)``, in the order of
    the axes' product. The returned counters are derived from the span
    stream, so replaying the returned trace must reproduce them exactly.
    """
    tracer = SinkTracer(
        meta={"experiment": experiment, "seed": seed}, record=True
    )
    metrics = RunMetrics()
    tracer.add_sink(RunMetricsSink(metrics))
    rows: list[Row] = []
    for index in itertools.product(*(range(len(values)) for values, _ in axes)):
        cell = [values[i] for (values, _), i in zip(axes, index)]
        offset = sum(step * i for (_, step), i in zip(axes, index))
        rows.append(run_cell(*cell, seed + offset, tracer))
    return rows, metrics, tracer.trace()


def report(experiment: str, failures: Sequence[str]) -> int:
    """The exit rule of every gate: 1 with one line per failure, else 0."""
    if not failures:
        emit(f"\n{experiment} gate: OK")
        return 0
    emit(f"\n{experiment.upper().replace('_', ' ')} GATE FAILURES:")
    for failure in failures:
        emit(f"  {failure}")
    return 1


def conclude(
    args: argparse.Namespace,
    experiment: str,
    failures: list[str],
    trace: Trace,
    metrics: RunMetrics | None,
) -> int:
    """Export ``trace``, replay it under ``--verify-trace``, apply the gate.

    ``metrics`` are the live counters the replayed trace must equal;
    ``None`` when ``failures`` already hold every cell's replay.
    """
    if args.trace_out:
        path = export_trace(trace, args.trace_out)
        emit(
            f"\ntrace: {len(trace.spans)} spans, "
            f"{len(trace.events)} events -> {path}"
        )
    if args.verify_trace and metrics is not None:
        failures = failures + [
            f"trace-counter mismatch: {mismatch}"
            for mismatch in verify_trace_consistency(trace, metrics)
        ]
    status = report(experiment, failures)
    if status == 0 and args.verify_trace:
        emit("trace-vs-counters consistency: OK")
    return status
