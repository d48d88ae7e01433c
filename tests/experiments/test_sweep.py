"""The shared sweep driver and the gates that run through it.

The real smokes pass their gates (each module's own tests run them), so
the failure paths are driven with canned results: each gated ``main``
must print its failure line and return 1, and every experiment module's
``__main__`` block must hand that status to the interpreter.
"""

import argparse
import ast
from pathlib import Path

import pytest

from repro.experiments import (
    fault_tolerance,
    partition_tolerance,
    slo_audit,
    sweep,
)
from repro.obs.tracer import Trace
from repro.sim.metrics import RunMetrics


def _fault_dishonest():
    row = fault_tolerance.FaultRow(
        message_loss=0.1,
        crash_probability=0.05,
        n_required=8,
        n_achieved=3,
        completion_rate=0.4,
        recovery_rate=0.4,
        walks_retried=5,
        retries=5,
        retry_overhead=0.2,
        estimate=10.0,
        true_mean=10.0,
        promised_epsilon=0.5,
        achieved_epsilon=0.9,
        achieved_confidence=0.7,
        degraded=False,
        faults={},
        ledger_breakdown={},
    )
    return fault_tolerance.FaultSweepResult(
        config=fault_tolerance.smoke_config(),
        rows=[row],
        metrics=RunMetrics(),
        trace=Trace(),
    )


def _partition(n_dishonest=0, recovered=True, recovery_occasions=1):
    row = partition_tolerance.PartitionRow(
        width=0.3,
        duration=12,
        heal_policy="repair",
        n_snapshots=30,
        n_partitioned=6,
        n_dishonest=n_dishonest,
        min_fraction=0.7,
        error_clean=0.1,
        error_scoped=0.1,
        recovery_occasions=recovery_occasions,
        recovered=recovered,
        faults={},
    )
    return partition_tolerance.PartitionSweepResult(
        config=partition_tolerance.smoke_config(),
        rows=[row],
        metrics=RunMetrics(),
        trace=Trace(),
    )


def _slo_noisy_clean_cell():
    cell = slo_audit.SloCell(
        message_loss=0.0,
        snapshots=80,
        degraded=0,
        alerts_fired=1,
        alerts_resolved=0,
        fired_rules=["degraded-snapshots"],
        worst_burn_rate=0.0,
        verdicts_ok=2,
        verdicts_total=2,
        ops_counts={},
        consistency_mismatches=[],
        replay_mismatches=[],
        trace=Trace(),
    )
    return slo_audit.SloSweepResult(
        config=slo_audit.smoke_config(),
        rules=slo_audit.default_rules(),
        cells=[cell],
    )


#: (module, canned failing result, its failure line), one per gate rule
FAILING = {
    "fault-dishonest": (
        fault_tolerance,
        _fault_dishonest,
        "dishonest row (loss=0.1, crash=0.05): 3/8 samples, "
        "not flagged degraded",
    ),
    "partition-dishonest": (
        partition_tolerance,
        lambda: _partition(n_dishonest=2),
        "width=0.3 duration=12 heal=repair: 2 dishonest estimates",
    ),
    "partition-unrecovered": (
        partition_tolerance,
        lambda: _partition(recovered=False, recovery_occasions=None),
        "width=0.3 duration=12 heal=repair: still degraded 2 occasions after "
        "the heal",
    ),
    "partition-slow-recovery": (
        partition_tolerance,
        lambda: _partition(recovery_occasions=5),
        "width=0.3 duration=12 heal=repair: still degraded 2 occasions after "
        "the heal",
    ),
    "slo-clean-cell-fired": (
        slo_audit,
        _slo_noisy_clean_cell,
        "loss=0.0: clean run fired alerts (['degraded-snapshots'])",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_failing_gate_prints_its_failures_and_returns_1(
    monkeypatch, capsys, case
):
    module, result, line = FAILING[case]
    monkeypatch.setattr(module, "run", lambda *args, **kwargs: result())
    assert module.main(["--smoke"]) == 1
    out = capsys.readouterr().out
    assert "GATE FAILURES:" in out
    assert f"  {line}\n" in out


def test_run_traced_seeds_every_cell_by_its_indices():
    def run_cell(loss, label, seed, tracer):
        return (loss, label, seed)

    rows, _, trace = sweep.run_traced(
        "demo", 7, [((0.0, 0.1), 1000), (("a", "b"), 10)], run_cell
    )
    assert rows == [
        (0.0, "a", 7),
        (0.0, "b", 17),
        (0.1, "a", 1007),
        (0.1, "b", 1017),
    ]
    assert trace.meta == {"experiment": "demo", "seed": 7}


def _args(tmp_path):
    return argparse.Namespace(trace_out=str(tmp_path / "trace.jsonl"))


def test_conclude_fails_on_a_trace_counter_mismatch(tmp_path, capsys):
    live = RunMetrics()
    live.snapshot_queries = 1
    status = sweep.conclude(_args(tmp_path), "demo", [], Trace(), live)
    assert status == 1
    out = capsys.readouterr().out
    assert "DEMO GATE FAILURES:" in out
    assert "trace-counter mismatch: snapshot_queries: trace=0 live=1" in out
    # the trace is written either way, so a failing run can be diagnosed
    assert (tmp_path / "trace.jsonl").exists()


def test_conclude_passes_a_consistent_trace(tmp_path, capsys):
    status = sweep.conclude(_args(tmp_path), "demo", [], Trace(), RunMetrics())
    assert status == 0
    assert "trace-vs-counters consistency: OK" in capsys.readouterr().out


def _main_blocks():
    """Every ``if __name__ == "__main__":`` block under experiments/."""
    for path in sorted(Path(sweep.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"
            ):
                yield pytest.param(node, id=path.stem)


@pytest.mark.parametrize("block", _main_blocks())
def test_main_blocks_exit_with_mains_status(block):
    assert [ast.unparse(line) for line in block.body] == [
        "raise SystemExit(main())"
    ]
