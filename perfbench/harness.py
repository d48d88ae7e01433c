"""Closed-loop harness: timed set-up, calibrated tick loop, checked answers.

One run builds a workload (several times, to time set-up), then drives
``n_ticks`` ticks in a closed loop. The reference kernel is timed around
every window of about ``WINDOW_S`` of ticks (around every tick of the
10^4-node workloads, whose ticks are longer), and the window's raw times
and answer latencies are scaled by the mean of those two timings
(:mod:`perfbench.calibration`). Between ticks, outside every timed
interval, each answer is checked against the oracle and, under a cut,
for honesty.

In a traced run (:func:`run_traced`) windows alternate between untraced
and traced (:class:`perfbench.layers.LayerTracer` installed), which
yields both the per-layer split and the tracing overhead from one
process.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import beta

from repro.experiments.partition_tolerance import _honest

from perfbench.calibration import Calibrator
from perfbench.layers import LayerTracer
from perfbench.workloads import CONFIDENCE, WARMUP_TICKS, WORKLOADS, World

#: raw tick seconds per calibration window (and per traced / untraced
#: block of a traced run)
WINDOW_S = 0.1
#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 3
#: two-sided level of the Clopper-Pearson interval on coverage. One
#: evaluation of the benchmark makes about a hundred runs, so a run's
#: false-alarm rate must be near 1e-3: at 0.05, runs whose true coverage
#: sits near p (INDEP on static-10k-16q: 0.945 +- 0.017 over seeds) would
#: fail about one run in a hundred. At 0.002 a run still fails when
#: coverage over 120 answer ticks is 0.88 or less.
COVERAGE_ALPHA = 0.002
MIN_ANSWERS = 100
#: layers whose share of the traced set-up is reported (where set-up
#: time goes besides building the world itself)
SETUP_LAYERS = (
    "core.session.step",
    "sampling.mixing.eigengap",
    "network.graph.csr",
    "sampling.walker.context",
)


@dataclass
class Measurement:
    """Everything one tick loop observed (times already calibrated)."""

    ticks: int = 0
    ingest_s: float = 0.0
    step_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    due: int = 0
    failed: int = 0
    answers: int = 0
    within: int = 0
    degraded: int = 0
    partitioned: int = 0
    dishonest: int = 0
    rows: int = 0
    served: int = 0
    messages: int = 0
    #: (tick, query id, aggregate) of every answer, in emission order
    estimates: list[tuple[int, str, float]] = field(default_factory=list)
    answer_ticks: set[int] = field(default_factory=set)
    raw_tick_s: float = 0.0
    #: traced-run split: calibrated tick seconds and ticks per mode
    mode_s: dict[bool, float] = field(default_factory=lambda: {False: 0.0, True: 0.0})
    mode_ticks: dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    #: traced-window deltas of the program's own counters
    counters: dict[str, int] = field(default_factory=dict)


def _counters(world: World) -> dict[str, int]:
    session = world.session
    counters = dict(session.ledger.breakdown())
    counters = {k: v for k, v in counters.items() if ":" not in k}
    counters["pool_hits"] = session.pool.pool_hits
    counters["pool_misses"] = session.pool.pool_misses
    return counters


def build(
    workload: str,
    seed: int,
    n_ticks: int,
    scale: float,
    calibrator: Calibrator,
    repeats: int,
) -> tuple[World, list[float]]:
    """Build the workload ``repeats`` times; returns the last and the times.

    A set-up is the overlay, database, session and queries plus the
    warm-up ticks (first spectral recompute, evaluator bootstrap).
    """
    spec = WORKLOADS[workload]
    times: list[float] = []
    world: World | None = None
    for _ in range(repeats):
        world = None
        gc.collect()
        before = calibrator.probe()
        start = time.perf_counter()
        world = spec.build(seed, n_ticks, scale)
        for tick in range(WARMUP_TICKS):
            world.ingest(tick)
            world.session.step(tick)
        raw = time.perf_counter() - start
        times.append(raw * calibrator.factor(before, calibrator.probe()))
    assert world is not None
    gc.collect()
    return world, times


def run_ticks(
    world: World,
    n_ticks: int,
    calibrator: Calibrator,
    tracer: LayerTracer | None = None,
) -> Measurement:
    """Drive ``n_ticks`` closed-loop ticks after the warm-up ticks.

    Ticks are grouped into windows of at least ``WINDOW_S`` raw seconds
    (one tick when ticks are longer). Every window is bracketed by two
    kernel timings, and its ticks' times and answer latencies are scaled
    by their mean. With a ``tracer``, windows alternate untraced / traced
    (starting untraced); the tracer is uninstalled on return.
    """
    m = Measurement()
    session = world.session
    emitted: list[float] = []
    for query_id in world.queries:
        session.subscribe(
            query_id,
            lambda record: emitted.append(time.perf_counter()),
            delta=0.0,
        )
    start_counters = _counters(world)
    block_counters = start_counters
    perf_counter = time.perf_counter
    traced = False
    #: raw (ingest s, step s, answer latencies s) of the open window
    window: list[tuple[float, float, list[float]]] = []
    window_raw = 0.0

    def close_window(before: float) -> float:
        """Scale the open window by its bracketing timings; returns the last."""
        after = calibrator.probe()
        factor = calibrator.factor(before, after)
        for ingest_s, step_s, latencies in window:
            m.ingest_s += ingest_s * factor
            m.step_s += step_s * factor
            m.latencies_ms.extend(1000.0 * lat * factor for lat in latencies)
            m.mode_s[traced] += (ingest_s + step_s) * factor
            m.mode_ticks[traced] += 1
        window.clear()
        if tracer is not None:
            tracer.flush(factor)
            toggle_tracing()
        return after

    def toggle_tracing() -> None:
        nonlocal traced, block_counters
        now = _counters(world)
        if traced:
            for key, value in now.items():
                m.counters[key] = m.counters.get(key, 0) + value - block_counters[key]
            tracer.uninstall()
        else:
            tracer.install()
        traced = not traced
        block_counters = now

    before = calibrator.probe()
    try:
        for tick in range(WARMUP_TICKS, WARMUP_TICKS + n_ticks):
            due = [q for q in world.queries if session.runtime(q).due_at(tick)]
            emitted.clear()
            t0 = perf_counter()
            world.ingest(tick)
            t1 = perf_counter()
            try:
                executed = session.step(tick)
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                executed = {}
                m.failed += len(due)
            t2 = perf_counter()
            window.append((t1 - t0, t2 - t1, [stamp - t1 for stamp in emitted]))
            window_raw += t2 - t0
            m.raw_tick_s += t2 - t0
            m.ticks += 1
            m.due += len(due)
            m.rows += world.rows_written()
            if window_raw >= WINDOW_S:
                before = close_window(before)
                window_raw = 0.0
            # the oracle's work sits between ticks, outside every timing
            _check_answers(world, tick, executed, m)
        if window:
            close_window(before)
    finally:
        if traced:
            toggle_tracing()
    end_counters = _counters(world)
    m.served = (end_counters["pool_hits"] + end_counters["pool_misses"]) - (
        start_counters["pool_hits"] + start_counters["pool_misses"]
    )
    m.messages = sum(
        end_counters[key] - start_counters[key]
        for key in start_counters
        if not key.startswith("pool_")
    )
    return m


def _check_answers(world: World, tick: int, executed: dict, m: Measurement) -> None:
    if not executed:
        return
    values = world.scope_values()
    partitioned = world.partitioned()
    m.answer_ticks.add(tick)
    for query_id in sorted(executed):
        estimate = executed[query_id]
        m.answers += 1
        m.estimates.append((tick, query_id, float(estimate.aggregate)))
        m.within += world.within_epsilon(values, query_id, estimate)
        m.degraded += bool(estimate.degraded)
        if partitioned:
            m.partitioned += 1
            m.dishonest += not _honest(estimate)


def coverage_upper_bound(within: int, answers: int, trials: int) -> float:
    """Clopper-Pearson upper bound on the coverage probability.

    Answers emitted at the same tick share one walk batch, so they are
    not independent trials: the interval is taken over ``trials``, the
    number of distinct answer ticks, at the observed coverage rate. That
    is conservative against correlated misses yet still rejects a real
    shortfall (e.g. 0.85 observed over 80 ticks).
    """
    if trials == 0:
        return 0.0
    hits = round(trials * within / answers)
    if hits >= trials:
        return 1.0
    return float(beta.ppf(1.0 - COVERAGE_ALPHA / 2, hits + 1, trials - hits))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(world: World, m: Measurement, setup_times: list[float]) -> dict:
    """The end-to-end metrics, name -> (value, unit)."""
    n_queries = len(world.queries)
    latencies = np.array(m.latencies_ms) if m.latencies_ms else np.zeros(1)
    answers = max(m.answers, 1)
    return {
        "setup_s": (float(np.median(setup_times)), "s"),
        "ticks_per_s": (m.ticks / (m.ingest_s + m.step_s), "1/s"),
        "answer_ms_p50": (float(np.percentile(latencies, 50)), "ms"),
        "answer_ms_p90": (float(np.percentile(latencies, 90)), "ms"),
        "samples_per_s": (m.served / m.step_s, "1/s"),
        "ingest_rows_per_s": (m.rows / m.ingest_s, "1/s"),
        "msgs_per_answer": (m.messages / answers, "count"),
        "msgs_per_tick": (m.messages / max(m.ticks, 1), "count"),
        "snapshot_rate": (m.answers / max(m.ticks * n_queries, 1), "ratio"),
        "coverage": (m.within / answers, "ratio"),
        "undegraded_rate": (1.0 - m.degraded / answers, "ratio"),
        "answer_ok_rate": (1.0 - m.failed / max(m.due, 1), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(
    world: World, m: Measurement, tracer: LayerTracer, setup: LayerTracer
) -> dict:
    """The per-layer metrics of a traced run, name -> (value, unit)."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, stats in tracer.stats.items():
        metrics[f"{name}.calls"] = (stats.calls, "count")
        metrics[f"{name}.s"] = (stats.s, "s")
        metrics[f"{name}.self_s"] = (stats.self_s, "s")
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.s"] = (setup.stats[name].s, "s")
    counters = m.counters
    served = counters.get("pool_hits", 0) + counters.get("pool_misses", 0)
    metrics["sampling.pool.hit_ratio"] = (
        counters.get("pool_hits", 0) / served if served else 0.0,
        "ratio",
    )
    tuples_calls = tracer.stats["sampling.operator.sample_tuples"].calls
    metrics["sampling.operator.rounds_per_call"] = (
        tracer.stats["sampling.operator.sample_nodes"].calls / tuples_calls
        if tuples_calls
        else 0.0,
        "ratio",
    )
    metrics["sampling.operator.delivery_ratio"] = (
        tracer.nodes_delivered / tracer.nodes_requested
        if tracer.nodes_requested
        else 0.0,
        "ratio",
    )
    metrics["sampling.walker.proposals"] = (counters.get("walk_steps", 0), "count")
    for key, value in sorted(counters.items()):
        if not key.startswith("pool_"):
            metrics[f"network.ledger.{key}"] = (value, "count")
    metrics["db.update.calls"] = (tracer.counts["db.update"], "count")
    metrics["traced_ticks"] = (m.mode_ticks[True], "count")
    untraced = m.mode_s[False] / max(m.mode_ticks[False], 1)
    traced = m.mode_s[True] / max(m.mode_ticks[True], 1)
    metrics["tracing_overhead"] = (traced / untraced if untraced else 0.0, "ratio")
    return metrics


def run_untraced(
    workload: str, seed: int, n_ticks: int, scale: float, calibrator: Calibrator
) -> tuple[World, Measurement, dict]:
    world, setup_times = build(
        workload, seed, n_ticks, scale, calibrator, SETUP_REPEATS
    )
    m = run_ticks(world, n_ticks, calibrator)
    return world, m, end_to_end(world, m, setup_times)


def run_traced(
    workload: str, seed: int, n_ticks: int, scale: float, calibrator: Calibrator
) -> tuple[World, Measurement, dict]:
    setup = LayerTracer()
    setup.install()
    try:
        world, _ = build(workload, seed, n_ticks, scale, calibrator, 1)
    finally:
        setup.uninstall()
    setup.flush(calibrator.factor(*calibrator.probes[-2:]))
    tracer = LayerTracer()
    m = run_ticks(world, n_ticks, calibrator, tracer)
    return world, m, per_layer(world, m, tracer, setup)


def verdict(m: Measurement, min_answers: int) -> list[str]:
    """Correctness failures of one run (empty when the run is correct)."""
    problems = []
    if m.answers < min_answers:
        problems.append(f"only {m.answers} answers (need >= {min_answers})")
    upper = coverage_upper_bound(m.within, m.answers, len(m.answer_ticks))
    if upper < CONFIDENCE:
        problems.append(
            f"coverage {m.within}/{m.answers} over {len(m.answer_ticks)} "
            f"answer ticks: Clopper-Pearson upper bound "
            f"{upper:.4f} < p={CONFIDENCE}"
        )
    if m.dishonest:
        problems.append(
            f"{m.dishonest} of {m.partitioned} during-cut answers not honest"
        )
    return problems
