"""Command-line interface.

Four subcommands::

    repro-digest experiment <name> [--scale S] [--seed N]
        Run a named experiment (fig4a, fig4b, fig5a, fig5b, table1,
        table2, mixing, ablations, forward, guarantees, related_work,
        occasion_drift, protocol, fault_tolerance, multi_query,
        partition_tolerance, slo_audit) and print its tables. The gated
        ones (fault_tolerance, partition_tolerance, slo_audit,
        multi_query) run their module's ``main``, gate included, and
        exit 1 when the gate fails; ``--scale`` below 1 runs the three
        sweeps' ``--smoke`` grids.

    repro-digest query --query "SELECT AVG(temperature) FROM R" \\
        [--dataset temperature] [--delta D] [--epsilon E] [--confidence P]
        [--steps T] [--scale S] [--seed N] [--scheduler pred|all]
        [--evaluator repeated|independent]
        Run an ad-hoc continuous query against a synthetic workload and
        print each result update.

    repro-digest queryset --spec queries.json [--steps T] [--scale S] [...]
        Run several continuous queries in one shared multi-query session
        (pooled samples, coalesced walk batches) from a JSON spec file.

    repro-digest trace record --output trace.jsonl [--dataset ...] [...]
    repro-digest trace replay --input trace.jsonl --query "..."  [...]
        Record a workload into the portable trace format / replay one.

    repro-digest trace summarize|attribute|flame|tail|critpath --input t.jsonl
        Analyze an exported telemetry trace; ``tail`` streams it through
        the live window/alert pipeline (one line per closed window);
        ``critpath`` assembles hop-level causal trees and prints the
        critical path of each walk batch.

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.console import emit

if TYPE_CHECKING:
    from repro.core.session import QuerySet


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=("temperature", "memory"),
        default="temperature",
        help="synthetic workload (default: temperature)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="workload scale factor; 1.0 = the paper's sizes (default 0.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-digest",
        description=(
            "Digest: fixed-precision approximate continuous aggregate "
            "queries in P2P databases (ICDE 2008 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment", help="run a named paper experiment"
    )
    experiment.add_argument(
        "name",
        choices=(
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "table1",
            "table2",
            "mixing",
            "ablations",
            "forward",
            "guarantees",
            "related_work",
            "occasion_drift",
            "protocol",
            "fault_tolerance",
            "multi_query",
            "partition_tolerance",
            "slo_audit",
        ),
    )
    _add_common(experiment)

    queryset = commands.add_parser(
        "queryset",
        help="run a set of continuous queries in one shared session",
    )
    queryset.add_argument(
        "--spec",
        required=True,
        help="JSON file declaring the query set (see docs/TUTORIAL.md)",
    )
    queryset.add_argument("--steps", type=int, default=None)
    _add_common(queryset)

    query = commands.add_parser("query", help="run an ad-hoc continuous query")
    query.add_argument(
        "--query",
        required=True,
        help='e.g. "SELECT AVG(temperature) FROM R WHERE temperature > 50"',
    )
    query.add_argument("--delta", type=float, default=None)
    query.add_argument("--epsilon", type=float, default=None)
    query.add_argument("--confidence", type=float, default=0.95)
    query.add_argument("--steps", type=int, default=None)
    query.add_argument("--scheduler", choices=("pred", "all"), default="pred")
    query.add_argument(
        "--evaluator", choices=("repeated", "independent"), default="repeated"
    )
    _add_common(query)

    trace = commands.add_parser("trace", help="record or replay a trace")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_commands.add_parser("record", help="record a workload")
    record.add_argument("--output", required=True)
    record.add_argument("--steps", type=int, default=None)
    _add_common(record)
    replay = trace_commands.add_parser("replay", help="replay + query a trace")
    replay.add_argument("--input", required=True)
    replay.add_argument("--query", required=True)
    replay.add_argument("--delta", type=float, default=None)
    replay.add_argument("--epsilon", type=float, default=None)
    replay.add_argument("--confidence", type=float, default=0.95)
    replay.add_argument("--seed", type=int, default=0)

    # telemetry-trace analysis (JSONL traces from repro.obs.export)
    summarize = trace_commands.add_parser(
        "summarize",
        help="summarize a telemetry trace: attribution, latency, timelines",
    )
    summarize.add_argument("--input", required=True)
    attribute = trace_commands.add_parser(
        "attribute",
        help="per-category message-cost attribution from a telemetry trace",
    )
    attribute.add_argument("--input", required=True)
    attribute.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    flame = trace_commands.add_parser(
        "flame", help="folded flamegraph stacks from a telemetry trace"
    )
    flame.add_argument("--input", required=True)
    flame.add_argument(
        "--weight",
        choices=("time", "count"),
        default="time",
        help="stack weight: self sim-time (default) or span count",
    )
    critpath = trace_commands.add_parser(
        "critpath",
        help=(
            "assemble per-walk causal trees from hop segments and print "
            "the critical path bounding each walk batch"
        ),
    )
    critpath.add_argument("--input", required=True)
    critpath.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    tail = trace_commands.add_parser(
        "tail",
        help=(
            "stream a telemetry trace through the live pipeline: one line "
            "per closed window, with alert transitions interleaved"
        ),
    )
    tail.add_argument("--input", required=True)
    tail.add_argument(
        "--rules",
        default=None,
        metavar="PATH",
        help="JSON alert-rules file to evaluate while tailing",
    )
    tail.add_argument(
        "--width", type=int, default=None, help="window width (sim ticks)"
    )
    tail.add_argument(
        "--slide",
        type=int,
        default=None,
        help="windows per sliding (burn-rate) view",
    )
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def _run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablations,
        fault_tolerance,
        fig4a,
        fig4b,
        fig5a,
        fig5b,
        forward,
        guarantees,
        mixing,
        multi_query,
        occasion_drift,
        partition_tolerance,
        protocol_validation,
        related_work,
        slo_audit,
        table1,
        table2,
    )

    name = args.name
    # scale < 1 maps to the gated sweeps' reduced CI grids
    sweep_argv = ["--seed", str(args.seed)] + (["--smoke"] if args.scale < 1.0 else [])
    # experiments whose main() prints their tables and applies their gate
    mains: dict[str, Callable[[], int]] = {
        "ablations": ablations.main,
        "forward": forward.main,
        "guarantees": guarantees.main,
        "related_work": related_work.main,
        "occasion_drift": occasion_drift.main,
        "protocol": protocol_validation.main,
        "fault_tolerance": lambda: fault_tolerance.main(sweep_argv),
        "partition_tolerance": lambda: partition_tolerance.main(sweep_argv),
        "slo_audit": lambda: slo_audit.main(sweep_argv),
        "multi_query": lambda: multi_query.main(
            ["--dataset", args.dataset, "--scale", str(args.scale),
             "--seed", str(args.seed)]
        ),
    }
    if name in mains:
        return mains[name]()
    if name == "fig4a":
        emit(fig4a.run(dataset=args.dataset, scale=args.scale, seed=args.seed).to_table())
    elif name == "fig4b":
        result = fig4b.run(dataset=args.dataset, scale=args.scale, seed=args.seed)
        emit(result.to_table())
        emit(f"average improvement factor I = {result.improvement_factor:.2f}")
    elif name == "fig5a":
        result = fig5a.run(dataset=args.dataset, scale=args.scale, seed=args.seed)
        emit(result.to_table())
        emit(f"Digest vs naive = {result.digest_vs_naive:.2f}x")
    elif name == "fig5b":
        emit(fig5b.run(dataset=args.dataset, scale=max(args.scale, 0.25), seed=args.seed).to_table())
    elif name == "table1":
        for rho in (0.5, 0.85, 0.95):
            emit(table1.simulate(rho=rho, seed=args.seed).to_table())
            emit()
    elif name == "table2":
        emit(table2.run(dataset=args.dataset, scale=args.scale, seed=args.seed).to_table())
    elif name == "mixing":
        emit(mixing.run(seed=args.seed).to_table())
    return 0


def _default_precision(
    instance: object, delta: float | None, epsilon: float | None
) -> tuple[float, float]:
    sigma = getattr(instance.config, "expected_sigma", 1.0)
    if delta is None:
        delta = sigma
    if epsilon is None:
        epsilon = 0.25 * sigma
    return delta, epsilon


def load_query_set(
    path: str, default_delta: float, default_epsilon: float
) -> QuerySet:
    """Build a :class:`~repro.core.session.QuerySet` from a JSON spec file.

    The spec is ``{"queries": [{...}, ...]}`` where each entry takes
    ``query`` (required, the SQL-ish text) and optionally ``id``,
    ``delta``, ``epsilon``, ``confidence``, ``scheduler``, ``evaluator``,
    ``start`` and ``duration``. Omitted precision fields fall back to the
    workload-derived defaults, mirroring the single-query command.
    """
    import json

    from repro.core.query import ContinuousQuery, Precision, parse_query
    from repro.core.session import EngineConfig, QuerySet
    from repro.db.aggregates import AggregateOp
    from repro.errors import QueryError

    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    entries = spec.get("queries")
    if not isinstance(entries, list) or not entries:
        raise QueryError(
            f"{path}: expected a non-empty 'queries' list in the spec"
        )
    queries = QuerySet()
    for entry in entries:
        if "query" not in entry:
            raise QueryError(f"{path}: every entry needs a 'query' string")
        query = parse_query(entry["query"])
        evaluator = entry.get("evaluator", "repeated")
        if (
            evaluator == "repeated"
            and query.op is AggregateOp.AVG
            and query.predicate is not None
        ):
            evaluator = "independent"  # filtered AVG needs the ratio estimator
        continuous = ContinuousQuery(
            query,
            Precision(
                delta=float(entry.get("delta", default_delta)),
                epsilon=float(entry.get("epsilon", default_epsilon)),
                confidence=float(entry.get("confidence", 0.95)),
            ),
            start_time=int(entry.get("start", 0)),
            duration=(
                int(entry["duration"]) if "duration" in entry else None
            ),
        )
        queries.add(
            continuous,
            config=EngineConfig(
                scheduler=entry.get("scheduler", "pred"),
                evaluator=evaluator,
            ),
            query_id=entry.get("id"),
        )
    return queries


def _run_query_set(args: argparse.Namespace) -> int:
    from repro.core.session import DigestSession
    from repro.experiments.harness import build_instance, pick_origin

    instance = build_instance(args.dataset, args.scale, args.seed)
    steps = args.steps if args.steps is not None else instance.n_steps
    delta, epsilon = _default_precision(instance, None, None)
    queries = load_query_set(args.spec, delta, epsilon)
    origin = pick_origin(instance, args.seed)
    session = DigestSession(
        instance.graph,
        instance.database,
        origin,
        np.random.default_rng(args.seed + 1),
    )
    qids = session.add_query_set(queries)
    emit(f"running {len(qids)} queries in one session:")
    for qid in qids:
        emit(f"  [{qid}] {session.runtime(qid).continuous_query}")
    emit(f"workload: {args.dataset} (scale {args.scale}), {steps} steps\n")
    for t in range(steps):
        instance.step(t)
        executed = session.step(t)
        for qid in qids:
            estimate = executed.get(qid)
            if estimate is not None:
                emit(
                    f"t={t:4d}  [{qid}] estimate={estimate.aggregate:12.3f}  "
                    f"samples={estimate.n_total:4d} "
                    f"(fresh {estimate.n_fresh:4d})"
                )
    pool = session.pool
    emit(
        f"\n{session.metrics.snapshot_queries} snapshot queries across "
        f"{len(qids)} queries, {session.metrics.samples_total} samples, "
        f"{session.ledger.total} messages"
    )
    emit(
        f"pool: {pool.pool_hits} hits / {pool.pool_misses} misses "
        f"({pool.hit_rate:.1%} hit rate), "
        f"{session.batches_coalesced} coalesced walk batches"
    )
    return 0


def _run_query(args: argparse.Namespace) -> int:
    from repro.core.query import ContinuousQuery, Precision, parse_query
    from repro.core.session import DigestSession, EngineConfig
    from repro.db.aggregates import AggregateOp
    from repro.experiments.harness import build_instance, pick_origin

    instance = build_instance(args.dataset, args.scale, args.seed)
    steps = args.steps if args.steps is not None else instance.n_steps
    delta, epsilon = _default_precision(instance, args.delta, args.epsilon)
    query = parse_query(args.query)
    evaluator = args.evaluator
    if (
        evaluator == "repeated"
        and query.op is AggregateOp.AVG
        and query.predicate is not None
    ):
        emit(
            "note: filtered AVG needs the ratio estimator; "
            "falling back to evaluator=independent"
        )
        evaluator = "independent"
    continuous = ContinuousQuery(
        query,
        Precision(delta=delta, epsilon=epsilon, confidence=args.confidence),
        duration=steps,
    )
    session = DigestSession(
        instance.graph,
        instance.database,
        pick_origin(instance, args.seed),
        np.random.default_rng(args.seed + 1),
    )
    session.add_query(
        continuous,
        config=EngineConfig(scheduler=args.scheduler, evaluator=evaluator),
    )
    emit(f"running: {continuous}")
    emit(f"workload: {args.dataset} (scale {args.scale}), {steps} steps\n")
    for t in range(steps):
        instance.step(t)
        for estimate in session.step(t).values():
            emit(
                f"t={t:4d}  estimate={estimate.aggregate:12.3f}  "
                f"samples={estimate.n_total:4d} (fresh {estimate.n_fresh:4d})"
            )
    metrics = session.metrics
    emit(
        f"\n{metrics.snapshot_queries} snapshot queries, "
        f"{metrics.samples_total} samples "
        f"({metrics.samples_fresh} fresh), {session.ledger.total} messages"
    )
    return 0


def _summarize_trace(args: argparse.Namespace) -> int:
    from repro.obs import analysis, import_trace

    trace = import_trace(args.input)
    emit(f"trace: {args.input}")
    if trace.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        emit(f"meta: {meta}")
    emit(f"{len(trace.spans)} spans, {len(trace.events)} loose events")

    emit("\nmessage attribution:")
    for category, count in analysis.message_attribution(trace).items():
        emit(f"  {category:16s} {count:8d}")

    outcomes = analysis.walk_outcomes(trace)
    if outcomes:
        emit("\nwalk outcomes:")
        for outcome, count in outcomes.items():
            emit(f"  {outcome:16s} {count:8d}")
        histogram = analysis.walk_latency_histogram(trace)
        if histogram.count:
            emit(
                f"\nwalk latency (sim ticks, {histogram.count} walks, "
                f"mean {histogram.mean():.1f}):"
            )
            for label, count in zip(histogram.bucket_labels(), histogram.counts):
                emit(f"  {label:12s} {count:8d}")

    triggers = analysis.trigger_breakdown(trace)
    if triggers:
        emit("\nsnapshot-query triggers:")
        for reason, count in triggers.items():
            emit(f"  {reason:16s} {count:8d}")

    shared = analysis.shared_walk_attribution(trace)
    if shared:
        # only protocol-batch walk spans name their consumers, and only
        # older recorded traces hold them: elsewhere the column reads 0
        show_walks = any(stats["walks"] for stats in shared.values())
        emit("\nshared-walk attribution (per query):")
        for query_id, stats in sorted(shared.items()):
            line = (
                f"  {query_id:12s} pool_hits={stats['pool_hits']:6d}  "
                f"pool_misses={stats['pool_misses']:6d}  "
                f"batches={stats['shared_batches']:4d}"
            )
            emit(f"{line}  walks={stats['walks']:6d}" if show_walks else line)

    degraded = analysis.degraded_timeline(trace)
    emit(f"\ndegraded estimates: {len(degraded)}")
    for span in degraded:
        emit(f"  t={span.start}  {span.attrs.get('trigger', '?')}")

    replayed = analysis.run_metrics_from_trace(trace)
    emit(f"\nfaults: {replayed.faults_injected}")
    faults = analysis.fault_timeline(trace)
    # the rest are lost messages the operator counts on its spans (n_lost)
    kinds = {"lost messages (n_lost)": replayed.faults_injected - len(faults)}
    for event in faults:
        kind = str(event.attrs.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind, count in sorted(kinds.items()):
        if count:
            emit(f"  {kind:24s} {count:8d}")

    emit("\nreplayed counters:")
    for name, value in analysis.counter_dict(replayed).items():
        emit(f"  {name:20s} {value:8d}")
    return 0


def _attribute_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import analysis, import_trace

    attribution = analysis.message_attribution(import_trace(args.input))
    if args.json:
        emit(json.dumps(attribution, sort_keys=True))
    else:
        for category, count in attribution.items():
            emit(f"{category:16s} {count:8d}")
    return 0


def _flame_trace(args: argparse.Namespace) -> int:
    from repro.obs import analysis, import_trace

    stacks = analysis.folded_stacks(import_trace(args.input), weight=args.weight)
    for stack, value in stacks.items():
        emit(f"{stack} {value}")
    return 0


def _critpath_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import analysis, import_trace

    trace = import_trace(args.input)
    assembly = analysis.assemble(trace)
    paths = analysis.critical_paths(trace, assembly)
    attribution = analysis.hop_latency_attribution(assembly)
    if args.json:
        emit(
            json.dumps(
                {
                    "assembly": assembly.summary(),
                    "hop_latency": attribution,
                    "critical_paths": [path.as_dict() for path in paths],
                },
                sort_keys=True,
            )
        )
        return 0

    emit(f"trace: {args.input}")
    summary = assembly.summary()
    emit(
        f"assembled {summary['n_walks']} walks, {summary['n_hops']} hops "
        f"({summary['n_orphans']} orphans, {summary['n_unrooted']} unrooted; "
        f"orphan rate {assembly.orphan_rate:.1%})"
    )
    if attribution:
        emit("\nhop latency by category:")
        for category, stats in attribution.items():
            emit(
                f"  {category:12s} n={stats['count']:6.0f}  "
                f"total={stats['total']:8.0f}  mean={stats['mean']:6.2f}  "
                f"max={stats['max']:5.0f}"
            )
    if not paths:
        emit("\nno walks to bound (v1 trace or non-recording run?)")
        return 0
    emit("\ncritical paths (bounding walk per scope):")
    for path in paths:
        emit(
            f"  {path.scope:12s} walks={path.n_walks:5d}  "
            f"walker={path.walker_id:5d}  "
            f"walk_latency={path.walk_latency:5d}  "
            f"transit={path.chain_latency:5d}  "
            f"supervision={path.supervision_latency:5d}"
        )
        for hop in path.hops:
            emit(
                f"      {hop.from_node:4d} -> {hop.to_node:4d}  "
                f"{hop.category:8s} t=[{hop.start},{hop.end}] "
                f"latency={hop.latency}"
            )
    return 0


def _tail_trace(args: argparse.Namespace) -> int:
    from repro.obs import import_trace
    from repro.obs.alerts import FIRING, AlertReplay, load_rules
    from repro.obs.live import WindowConfig

    trace = import_trace(args.input)
    defaults = WindowConfig()
    config = WindowConfig(
        width=args.width if args.width is not None else defaults.width,
        slide=args.slide if args.slide is not None else defaults.slide,
    )
    rules = load_rules(args.rules) if args.rules else []
    replay = AlertReplay(trace, rules, config)
    engine = replay.engine

    emit(f"trace: {args.input}")
    if trace.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        emit(f"meta: {meta}")
    emit(
        f"window width={config.width} slide={config.slide} "
        f"rules={len(rules)} audit={'on' if replay.auditor else 'off'}\n"
    )

    seen_transitions = 0

    def _print_window(window) -> None:
        nonlocal seen_transitions
        signals = window.signals()
        partial = "~" if window.partial else " "
        line = (
            f"[{window.start:5d},{window.end:5d}){partial} "
            f"walks={signals['walk_count']:5.0f} "
            f"fail={signals['walk_failure_fraction']:5.2f} "
            f"msg/t={signals['message_rate']:7.1f} "
            f"pool={signals['pool_hit_ratio']:5.2f} "
            f"degr={signals['degraded_fraction']:5.2f} "
            f"faults={signals['fault_count']:4.0f}"
        )
        if "audit_burn_rate" in signals:
            line += f" burn={signals['audit_burn_rate']:6.2f}"
        emit(line)
        # the engine's listener ran first (it subscribed first), so any
        # transitions this window produced are already appended
        for transition in engine.transitions[seen_transitions:]:
            state = "FIRING" if transition.state == FIRING else "resolved"
            emit(
                f"  ! {state:8s} {transition.rule}: "
                f"{transition.signal}={transition.value:g} "
                f"(threshold {transition.threshold:g}, {transition.kind})"
            )
        seen_transitions = len(engine.transitions)

    replay.pipeline.add_listener(_print_window)
    replay.run()
    firing = engine.firing
    emit(
        f"\n{seen_transitions} alert transitions; "
        f"still firing at end: {', '.join(firing) if firing else 'none'}"
    )
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summarize":
        return _summarize_trace(args)
    if args.trace_command == "attribute":
        return _attribute_trace(args)
    if args.trace_command == "flame":
        return _flame_trace(args)
    if args.trace_command == "tail":
        return _tail_trace(args)
    if args.trace_command == "critpath":
        return _critpath_trace(args)
    if args.trace_command == "record":
        from repro.datasets.traces import TraceRecorder
        from repro.experiments.harness import build_instance

        instance = build_instance(args.dataset, args.scale, args.seed)
        steps = args.steps if args.steps is not None else instance.n_steps
        recorder = TraceRecorder(instance)
        for t in range(steps):
            instance.step(t)
            recorder.observe(t)
        trace = recorder.finish()
        trace.save(args.output)
        emit(
            f"recorded {len(trace.events)} events over {trace.n_steps} steps "
            f"to {args.output}"
        )
        return 0

    # replay
    from repro.core.query import ContinuousQuery, Precision, parse_query
    from repro.core.session import DigestSession
    from repro.datasets.traces import Trace, replay_trace

    trace = Trace.load(args.input)
    instance = replay_trace(trace)
    delta = args.delta if args.delta is not None else 1.0
    epsilon = args.epsilon if args.epsilon is not None else 1.0
    continuous = ContinuousQuery(
        parse_query(args.query),
        Precision(delta=delta, epsilon=epsilon, confidence=args.confidence),
        duration=trace.n_steps,
    )
    session = DigestSession(
        instance.graph,
        instance.database,
        instance.graph.nodes()[0],
        np.random.default_rng(args.seed),
    )
    result = session.runtime(session.add_query(continuous)).result
    executed = 0
    for t in range(trace.n_steps):
        instance.step(t)
        executed += len(session.step(t))
    if len(result):
        emit(
            f"replayed {trace.n_steps} steps: {executed} snapshot queries, "
            f"final estimate {result.last().estimate:.3f}"
        )
    else:
        emit(f"replayed {trace.n_steps} steps: no snapshot executed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "experiment":
            return _run_experiment(args)
        if args.command == "query":
            return _run_query(args)
        if args.command == "queryset":
            return _run_query_set(args)
        return _run_trace(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit
        # quietly instead of tracebacking. Redirect stdout to devnull so
        # the interpreter's shutdown flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
