"""What does observability itself cost on a real continuous-query run?

Every span, event, and live-window update sits inside the hot loop, so
the whole telemetry stack — the :class:`~repro.obs.tracer.SinkTracer`,
the :class:`~repro.obs.tracer.RunMetricsSink` counters, the streaming
:class:`~repro.obs.live.LivePipeline` windows, the
:class:`~repro.obs.alerts.AlertEngine` evaluating rules at every window
close, and the :class:`~repro.obs.audit.GuaranteeAuditor` — must be
cheap enough to leave on. The gated measurement runs the same
multi-query :class:`~repro.core.session.DigestSession` twice: once with
the no-op :data:`~repro.obs.tracer.NULL_TRACER` (the zero-cost baseline
every uninstrumented run gets) and once with the full stack attached,
and asserts the stack costs < 20% wall-clock while producing
bit-identical snapshot estimates (tracing must never touch an RNG
stream).

The payload also gates the *walk hot path* in isolation — a bare
supervised-walk workload with nothing but walks, the worst case for
relative overhead since there is no estimator work to amortize against.
Since the lifecycle hooks gained the ``is_recording`` fast path (span
events are constructed only when a sink retains them; live analytics
read the aggregate ``messages_by_category`` span attribute instead),
this worst case is pinned below :data:`HOT_PATH_BUDGET`.

Each timed side runs for about half a second or more (400 ticks of the
session; the bare-walk run :data:`HOT_PATH_ROUNDS` times back to back),
so that a few milliseconds of scheduler noise cannot swing a reading
across a 20% budget; the gate compares the medians of interleaved
repeats. The walk run is repeated rather than widened because the
instrumented cost per walk grows with the number of concurrent walks.

Writes ``benchmarks/results/obs_overhead.json``, which
``collect_results.py`` promotes to ``BENCH_obs.json`` at the repo root;
CI runs this module standalone (``python
benchmarks/bench_obs_overhead.py --json-out BENCH_obs.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.query import ContinuousQuery, Precision, Query
from repro.core.session import DigestSession, EngineConfig
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.experiments.slo_audit import default_rules
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.topology import mesh_topology, power_law_topology
from repro.obs.alerts import AlertEngine
from repro.obs.live import LivePipeline, WindowConfig
from repro.obs.tracer import NULL_TRACER, RunMetricsSink, SinkTracer
from repro.protocol.runtime import ProtocolConfig, ProtocolSampler
from repro.sampling.weights import uniform_weights
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics

OVERHEAD_BUDGET = 0.20
#: bare-walk worst case: per-hop/per-message hooks with no estimator
#: work to amortize against (was ~45% before the is_recording fast path)
HOT_PATH_BUDGET = 0.30
#: back-to-back runs of the bare-walk workload in one timed side
HOT_PATH_ROUNDS = 20


def _run_session(
    instrumented: bool,
    seed: int,
    n_nodes: int,
    per_node: int,
    steps: int,
    n_queries: int,
) -> tuple[list[tuple[int, str, float, float]], float, int]:
    """One audited session run; returns (estimates, seconds, windows)."""
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    for node in graph.nodes():
        for _ in range(per_node):
            database.insert(node, {"v": float(rng.normal(50.0, 10.0))})
    tracer = SinkTracer() if instrumented else NULL_TRACER
    session = DigestSession(
        graph,
        database,
        origin=0,
        rng=np.random.default_rng(seed + 1),
        tracer=tracer,
    )
    if instrumented:
        session.attach_live(default_rules(), WindowConfig(width=10, slide=3))
    config = EngineConfig(scheduler="all", evaluator="independent")
    for _ in range(n_queries):
        session.add_query(
            ContinuousQuery(
                Query(AggregateOp.AVG, Expression("v")),
                Precision(delta=0.8, epsilon=0.8, confidence=0.9),
                duration=steps,
            ),
            config=config,
        )
    estimates: list[tuple[int, str, float, float]] = []
    start = time.perf_counter()
    for tick in range(steps):
        for qid, estimate in session.step(tick).items():
            estimates.append((tick, qid, estimate.aggregate, estimate.variance))
    session.finish_live(steps)
    elapsed = time.perf_counter() - start
    pipeline = session.live_pipeline
    windows = len(pipeline.windows) if pipeline is not None else 0
    return estimates, elapsed, windows


def _run_walks(
    instrumented: bool,
    seed: int,
    n_nodes: int,
    n_walks: int,
    walk_length: int,
    rounds: int,
) -> tuple[list[int], float]:
    """``rounds`` bare supervised-walk runs; returns (samples, seconds).

    Each round runs on a fresh engine, tracer and sampler seeded alike,
    so every round samples the same nodes; the seconds are summed.
    """
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(power_law_topology(n_nodes, rng=rng), n_nodes=n_nodes)
    sampled: list[int] = []
    elapsed = 0.0
    for _ in range(rounds):
        engine = SimulationEngine()
        if instrumented:
            pipeline = LivePipeline(WindowConfig(width=50, slide=4))
            AlertEngine(pipeline, [])
            tracer = SinkTracer(
                sinks=[RunMetricsSink(RunMetrics()), pipeline],
                clock=engine.clock,
            )
        else:
            tracer = NULL_TRACER
        sampler = ProtocolSampler(
            graph,
            uniform_weights(),
            engine,
            np.random.default_rng(seed + 1),
            MessageLedger(),
            ProtocolConfig(variant="bounce"),
            tracer=tracer,
        )
        start = time.perf_counter()
        sampled = sampler.run_walks(origin=0, n=n_walks, walk_length=walk_length)
        elapsed += time.perf_counter() - start
    return sampled, elapsed


def measure(
    seed: int = 0,
    n_nodes: int = 36,
    per_node: int = 5,
    steps: int = 400,
    n_queries: int = 2,
    repeats: int = 5,
) -> dict[str, object]:
    """Median-of-repeats comparison; baseline and instrumented interleaved."""
    baseline_times: list[float] = []
    instrumented_times: list[float] = []
    baseline_estimates: list[tuple[int, str, float, float]] = []
    instrumented_estimates: list[tuple[int, str, float, float]] = []
    windows_closed = 0
    for _ in range(repeats):
        baseline_estimates, elapsed, _ = _run_session(
            False, seed, n_nodes, per_node, steps, n_queries
        )
        baseline_times.append(elapsed)
        instrumented_estimates, elapsed, windows_closed = _run_session(
            True, seed, n_nodes, per_node, steps, n_queries
        )
        instrumented_times.append(elapsed)
    baseline = statistics.median(baseline_times)
    instrumented = statistics.median(instrumented_times)

    walk_base_times: list[float] = []
    walk_instr_times: list[float] = []
    walk_base_samples: list[int] = []
    walk_instr_samples: list[int] = []
    for _ in range(repeats):
        walk_base_samples, elapsed = _run_walks(
            False, seed, 64, 150, 25, HOT_PATH_ROUNDS
        )
        walk_base_times.append(elapsed)
        walk_instr_samples, elapsed = _run_walks(
            True, seed, 64, 150, 25, HOT_PATH_ROUNDS
        )
        walk_instr_times.append(elapsed)
    walk_base = statistics.median(walk_base_times)
    walk_instr = statistics.median(walk_instr_times)

    return {
        "workload": {
            "n_nodes": n_nodes,
            "per_node": per_node,
            "steps": steps,
            "n_queries": n_queries,
            "repeats": repeats,
            "seed": seed,
        },
        "baseline_seconds": baseline,
        "instrumented_seconds": instrumented,
        "overhead": (instrumented - baseline) / baseline,
        "overhead_budget": OVERHEAD_BUDGET,
        "windows_closed": windows_closed,
        "samples_identical": baseline_estimates == instrumented_estimates,
        "hot_path": {
            "workload": {
                "n_nodes": 64,
                "n_walks": 150,
                "walk_length": 25,
                "rounds": HOT_PATH_ROUNDS,
            },
            "baseline_seconds": walk_base,
            "instrumented_seconds": walk_instr,
            "overhead": (walk_instr - walk_base) / walk_base,
            "overhead_budget": HOT_PATH_BUDGET,
            "samples_identical": walk_base_samples == walk_instr_samples,
        },
    }


def test_obs_stack_overhead(results_dir):
    payload = measure()
    path = results_dir / "obs_overhead.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[json saved to {path}]")
    # the telemetry stack must be RNG-transparent (end to end and on the
    # bare walk path), actually stream windows, and stay within its
    # wall-clock budget on the real workload
    assert payload["samples_identical"]
    assert payload["hot_path"]["samples_identical"]
    assert payload["windows_closed"] > 0
    assert payload["overhead"] < OVERHEAD_BUDGET, (
        f"telemetry stack costs {payload['overhead']:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
    assert payload["hot_path"]["overhead"] < HOT_PATH_BUDGET, (
        f"bare-walk hot path costs {payload['hot_path']['overhead']:.1%} "
        f"(budget {HOT_PATH_BUDGET:.0%})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).parent / "results" / "obs_overhead.json"),
        help="where to write the machine-readable payload",
    )
    args = parser.parse_args(argv)
    payload = measure(seed=args.seed, repeats=args.repeats)
    out = Path(args.json_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"session: baseline {payload['baseline_seconds']:.3f}s, "
        f"instrumented {payload['instrumented_seconds']:.3f}s, overhead "
        f"{payload['overhead']:.1%} (budget {OVERHEAD_BUDGET:.0%}), "
        f"{payload['windows_closed']} windows; hot path: "
        f"{payload['hot_path']['overhead']:.1%} -> {out}"
    )
    if not payload["samples_identical"]:
        print("FAIL: tracing perturbed the session's estimates")
        return 1
    if not payload["hot_path"]["samples_identical"]:
        print("FAIL: tracing perturbed the sampled nodes")
        return 1
    if payload["windows_closed"] == 0:
        print("FAIL: live pipeline closed no windows")
        return 1
    if payload["overhead"] >= OVERHEAD_BUDGET:
        print("FAIL: overhead budget exceeded")
        return 1
    if payload["hot_path"]["overhead"] >= HOT_PATH_BUDGET:
        print("FAIL: hot-path overhead budget exceeded")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
