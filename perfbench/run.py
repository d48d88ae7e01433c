"""Digest end-to-end + per-layer benchmark: one workload per process.

    python3 perfbench/run.py --workload churn-10k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1 --trace 1          # every workload, traced

With ``--workload`` the run builds and checks one workload in this
process and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer split and tracing overhead with
``--trace 1``. Without ``--workload`` each workload runs in a fresh
single-threaded child process and its table is printed. Either way the
exit code is non-zero if a workload fails its correctness checks.

All times are drift-calibrated (see ``calibration.py``); the raw seconds
and the reference kernel's own spread are printed as diagnostics only.
The run's length is a tick budget, ``--seconds`` times the workload's
nominal tick rate, so its count metrics repeat exactly for a seed.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESIGN = HERE / "design.json"


def _workload_names() -> list[str]:
    return list(json.loads(DESIGN.read_text())["workloads"])


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14}  {unit}")


def run_one(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.calibration import Calibrator
    from perfbench.harness import MIN_ANSWERS, run_traced, run_untraced, verdict
    from perfbench.workloads import WORKLOADS

    design = json.loads(DESIGN.read_text())
    calibrator = Calibrator(design["calibration"]["nominal_kernel_s"])
    spec = WORKLOADS[args.workload]
    n_ticks = spec.n_ticks(args.seconds)
    runner = run_traced if args.trace else run_untraced
    _, m, metrics = runner(args.workload, args.seed, n_ticks, 1.0, calibrator)

    _print_table(
        f"{args.workload} seed={args.seed} ticks={n_ticks} "
        f"({'traced' if args.trace else 'untraced'})",
        [(name, f"{value:.6g}", unit) for name, (value, unit) in metrics.items()],
    )
    probes = calibrator.probes
    print(
        f"diagnostics: raw tick seconds {m.raw_tick_s:.4f}, "
        f"calibrated {m.ingest_s + m.step_s:.4f}; kernel n={len(probes)} "
        f"median {statistics.median(probes) * 1e3:.4f} ms, "
        f"min {min(probes) * 1e3:.4f} ms, max {max(probes) * 1e3:.4f} ms"
    )
    problems = verdict(m, MIN_ANSWERS)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": m.due,
                "failed": m.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


def run_all(args: argparse.Namespace) -> int:
    failures = 0
    for name in _workload_names():
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            failures += 1
            print(f"{name}: FAILED (exit {completed.returncode})")
        print()
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the Digest sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in _workload_names():
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
