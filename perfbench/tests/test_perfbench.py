"""Self-tests of the benchmark (run: python3 -m pytest perfbench/tests -q)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.calibration import Calibrator
from perfbench.harness import (
    Measurement,
    coverage_upper_bound,
    run_traced,
    run_untraced,
    verdict,
)
from perfbench.layers import COUNTED, LAYERS
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
TINY = {"n_ticks": 6, "scale": 0.05}
COUNTS = (
    "msgs_per_answer",
    "msgs_per_tick",
    "snapshot_rate",
    "coverage",
    "undegraded_rate",
    "answer_ok_rate",
)


def _calibrator() -> Calibrator:
    return Calibrator(json.loads((HERE / "design.json").read_text())["calibration"]["nominal_kernel_s"])


def _untraced(workload: str, seed: int):
    return run_untraced(workload, seed, calibrator=_calibrator(), **TINY)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_runs_tiny(workload: str) -> None:
    _, m, metrics = _untraced(workload, seed=3)
    assert m.answers > 0 and m.failed == 0
    assert verdict(m, min_answers=1) == []
    for name, (value, _) in metrics.items():
        assert math.isfinite(value) and value > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload: str) -> None:
    _, first, a = _untraced(workload, seed=5)
    _, second, b = _untraced(workload, seed=5)
    assert first.estimates == second.estimates
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}


def test_seed_is_the_source_of_inputs() -> None:
    _, first, _ = _untraced("churn-10k", seed=1)
    _, second, _ = _untraced("churn-10k", seed=2)
    assert first.estimates != second.estimates


def _descriptors() -> list[object]:
    targets = [t for group in LAYERS.values() for t in group] + list(
        COUNTED.values()
    )
    return [vars(owner)[attribute] for owner, attribute in targets]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_does_not_perturb_and_is_removed(
    workload: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # tiny ticks are far shorter than a window: alternate every tick
    monkeypatch.setattr(harness, "WINDOW_S", 0.0)
    originals = _descriptors()
    _, plain, _ = _untraced(workload, seed=7)
    _, traced, layers = run_traced(workload, 7, calibrator=_calibrator(), **TINY)
    assert traced.estimates == plain.estimates
    assert all(a is b for a, b in zip(_descriptors(), originals))
    assert layers["core.session.step.calls"][0] == layers["traced_ticks"][0]
    assert layers["tracing_overhead"][0] > 0


def test_coverage_bound_uses_answer_ticks() -> None:
    # 16 co-due answers per tick are one trial, not sixteen
    assert coverage_upper_bound(1200, 1280, 80) > 0.95
    assert coverage_upper_bound(120, 150, 150) < 0.95


def test_verdict_flags_dishonest_cut_answers() -> None:
    m = Measurement(answers=200, within=200, partitioned=10, dishonest=1)
    m.answer_ticks = set(range(100))
    assert any("honest" in problem for problem in verdict(m, min_answers=100))


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
