"""Aggregate saved benchmark tables into a single RESULTS.md.

Usage::

    pytest benchmarks/ --benchmark-only      # populates benchmarks/results/
    python benchmarks/collect_results.py     # writes RESULTS.md at repo root

Sections are ordered to mirror EXPERIMENTS.md: paper artifacts first,
then guarantee validation, then extensions and ablations. Any JSONL
telemetry trace saved under ``benchmarks/results/`` (e.g. by
``python -m repro.experiments.fault_tolerance --trace-out ...``) is
folded in as well: its per-category message attribution and replayed
counters are written to ``benchmarks/results/trace_attribution.json``
and summarized in a final RESULTS.md section (requires ``repro`` on the
path, i.e. ``PYTHONPATH=src`` or an editable install).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent.parent / "RESULTS.md"
MULTI_QUERY_JSON = Path(__file__).parent.parent / "BENCH_multi_query.json"
FAULTS_JSON = Path(__file__).parent.parent / "BENCH_faults.json"
OBS_JSON = Path(__file__).parent.parent / "BENCH_obs.json"

#: each folded BENCH_*.json and the script whose output it freezes; a
#: payload older than its producer is stale (the producer changed since)
BENCH_PRODUCERS: tuple[tuple[Path, Path], ...] = (
    (OBS_JSON, Path(__file__).parent / "bench_obs_overhead.py"),
    (FAULTS_JSON, Path(__file__).parent / "bench_fault_overhead.py"),
    (
        MULTI_QUERY_JSON,
        Path(__file__).parent.parent
        / "src"
        / "repro"
        / "experiments"
        / "multi_query.py",
    ),
)


def stale_bench_payloads(
    pairs: tuple[tuple[Path, Path], ...] = BENCH_PRODUCERS,
) -> list[str]:
    """Folded BENCH files whose producing bench script is newer (mtime).

    A stale payload means the committed numbers predate the current
    bench code — re-run the producer and re-collect. Returns one warning
    line per stale payload; missing files are not stale (nothing was
    folded yet).
    """
    warnings = []
    for payload, producer in pairs:
        if not payload.exists() or not producer.exists():
            continue
        if payload.stat().st_mtime < producer.stat().st_mtime:
            warnings.append(
                f"{payload.name} is older than {producer.name}; its numbers "
                f"predate the current bench — re-run the bench and re-collect"
            )
    return warnings

SECTIONS: list[tuple[str, list[str]]] = [
    (
        "Paper artifacts",
        [
            "fig4a",
            "fig4b_temperature",
            "fig4b_memory",
            "fig4b_ordering",
            "fig5a_temperature",
            "fig5a_memory",
            "fig5b",
            "table1_rho0.5",
            "table1_rho0.85",
            "table1_rho0.95",
            "table2_temperature",
            "table2_memory",
            "mixing_scaling",
            "mixing_paper_scale",
        ],
    ),
    (
        "Guarantee validation",
        ["coverage_independent", "coverage_repeated", "resolution"],
    ),
    (
        "Extensions",
        [
            "multi_query",
            "analysis_improvement",
            "forward_rho0.5",
            "forward_rho0.85",
            "forward_rho0.95",
            "gossip_crossover",
            "tag_vs_churn",
            "occasion_drift",
            "churn_robustness",
            "protocol_validation",
        ],
    ),
    (
        "Ablations",
        [
            "ablation_laziness",
            "ablation_continued_walks",
            "ablation_cluster",
            "ablation_replacement",
            "ablation_importance",
        ],
    ),
]


def collect() -> str:
    lines = [
        "# RESULTS — regenerated benchmark tables",
        "",
        "Produced by `pytest benchmarks/ --benchmark-only` followed by",
        "`python benchmarks/collect_results.py`. See EXPERIMENTS.md for the",
        "paper-vs-measured discussion of each table.",
        "",
    ]
    seen: set[str] = set()
    for title, names in SECTIONS:
        section_lines: list[str] = []
        for name in names:
            path = RESULTS_DIR / f"{name}.txt"
            if path.exists():
                seen.add(name)
                section_lines.append("```")
                section_lines.append(path.read_text().rstrip())
                section_lines.append("```")
                section_lines.append("")
        if section_lines:
            lines.append(f"## {title}")
            lines.append("")
            lines.extend(section_lines)
    # anything saved but not explicitly ordered
    extras = sorted(
        p.stem for p in RESULTS_DIR.glob("*.txt") if p.stem not in seen
    )
    if extras:
        lines.append("## Other")
        lines.append("")
        for name in extras:
            lines.append("```")
            lines.append((RESULTS_DIR / f"{name}.txt").read_text().rstrip())
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def collect_trace_attribution() -> dict[str, dict[str, object]]:
    """Trace-derived cost attribution for every saved JSONL trace.

    Returns ``{}`` when there are no traces or the ``repro`` package is
    not importable (the tables-only path must keep working standalone).
    """
    traces = sorted(RESULTS_DIR.glob("*.jsonl"))
    if not traces:
        return {}
    try:
        from repro.obs.analysis import (
            counter_dict,
            message_attribution,
            run_metrics_from_trace,
            walk_outcomes,
        )
        from repro.obs.export import import_trace
    except ImportError:
        print(
            "repro not importable (set PYTHONPATH=src); skipping trace "
            "attribution for: "
            + ", ".join(path.name for path in traces),
            file=sys.stderr,
        )
        return {}
    folded: dict[str, dict[str, object]] = {}
    for path in traces:
        trace = import_trace(path)
        folded[path.stem] = {
            "meta": trace.meta,
            "message_attribution": message_attribution(trace),
            "counters": counter_dict(run_metrics_from_trace(trace)),
            "walk_outcomes": walk_outcomes(trace),
        }
    return folded


def render_attribution(folded: dict[str, dict[str, object]]) -> str:
    lines = ["## Trace cost attribution", ""]
    lines.append(
        "Derived by replaying the saved JSONL traces "
        "(`repro trace summarize` shows the same numbers); machine-readable "
        "copy in `benchmarks/results/trace_attribution.json`."
    )
    lines.append("")
    for name, entry in folded.items():
        lines.append(f"### {name}")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(entry, indent=2, sort_keys=True))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def emit_multi_query_json() -> bool:
    """Promote the multi-query bench payload to ``BENCH_multi_query.json``.

    The bench (or the CI smoke run via ``python -m
    repro.experiments.multi_query --json-out``) writes
    ``benchmarks/results/multi_query.json`` with messages per query under
    both regimes, the pool hit rate, and wall-clock; this copies it to the
    repo root under the name CI uploads as an artifact. Returns whether
    the payload existed.
    """
    source = RESULTS_DIR / "multi_query.json"
    if not source.exists():
        return False
    payload = json.loads(source.read_text())
    MULTI_QUERY_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {MULTI_QUERY_JSON}")
    return True


def emit_faults_json() -> bool:
    """Promote the fault-overhead bench payload to ``BENCH_faults.json``.

    ``benchmarks/bench_fault_overhead.py`` writes
    ``benchmarks/results/fault_overhead.json`` with the clean vs
    fully-instrumented wall-clock comparison and the RNG-transparency
    verdict; this copies it to the repo root under the name CI uploads as
    an artifact. Returns whether the payload existed.
    """
    source = RESULTS_DIR / "fault_overhead.json"
    if not source.exists():
        return False
    payload = json.loads(source.read_text())
    FAULTS_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {FAULTS_JSON}")
    return True


def emit_obs_json() -> bool:
    """Promote the observability bench payload to ``BENCH_obs.json``.

    ``benchmarks/bench_obs_overhead.py`` writes
    ``benchmarks/results/obs_overhead.json`` with the no-op tracer vs
    full-telemetry-stack wall-clock comparison (gated end-to-end session
    plus the informational bare-walk hot path) and the RNG-transparency
    verdicts; this copies it to the repo root under the name CI uploads
    as an artifact. Returns whether the payload existed.
    """
    source = RESULTS_DIR / "obs_overhead.json"
    if not source.exists():
        return False
    payload = json.loads(source.read_text())
    OBS_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OBS_JSON}")
    return True


def render_obs_overhead() -> str:
    """RESULTS.md section for the observability-overhead payload ('' if absent)."""
    source = RESULTS_DIR / "obs_overhead.json"
    if not source.exists():
        return ""
    payload = json.loads(source.read_text())
    hot = payload.get("hot_path", {})
    lines = [
        "## Observability overhead",
        "",
        "Full telemetry stack (tracer + counters + live windows + alert",
        "engine + guarantee auditor) vs the no-op `Tracer`, bit-identical",
        "outputs required; machine-readable copy in `BENCH_obs.json`.",
        "",
        "```",
        f"session (gated):  {payload['overhead']:+.1%} "
        f"(budget {payload['overhead_budget']:.0%}), "
        f"{payload['windows_closed']} windows, "
        f"estimates identical: {payload['samples_identical']}",
    ]
    if hot:
        lines.append(
            f"walk hot path:    {hot['overhead']:+.1%} (informational), "
            f"samples identical: {hot['samples_identical']}"
        )
    lines.extend(["```", ""])
    return "\n".join(lines)


def main() -> int:
    if not RESULTS_DIR.exists():
        print(
            "no benchmarks/results/ directory; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    emit_multi_query_json()
    emit_faults_json()
    emit_obs_json()
    for warning in stale_bench_payloads():
        print(f"warning: {warning}", file=sys.stderr)
    output = collect()
    obs_section = render_obs_overhead()
    if obs_section:
        output = output.rstrip("\n") + "\n\n" + obs_section
    folded = collect_trace_attribution()
    if folded:
        attribution_json = RESULTS_DIR / "trace_attribution.json"
        attribution_json.write_text(
            json.dumps(folded, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {attribution_json}")
        output = output.rstrip("\n") + "\n\n" + render_attribution(folded)
    OUTPUT.write_text(output)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
