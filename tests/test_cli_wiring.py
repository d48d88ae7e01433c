"""CLI experiment-dispatch wiring tests (heavy experiments monkeypatched).

`tests/test_cli.py` runs the cheap subcommands for real; these verify the
remaining dispatch branches call the right experiment module without
paying for the computation.
"""

import importlib

import pytest

from repro import cli
from tests.experiments.test_sweep import FAILING


class _Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append(kwargs)
        return 0


@pytest.fixture
def canned(monkeypatch):
    """Monkeypatch every experiment entry point the CLI dispatches to."""
    import repro.experiments.ablations as ablations
    import repro.experiments.fig4a as fig4a
    import repro.experiments.fig4b as fig4b
    import repro.experiments.fig5a as fig5a
    import repro.experiments.fig5b as fig5b
    import repro.experiments.forward as forward
    import repro.experiments.guarantees as guarantees
    import repro.experiments.mixing as mixing
    import repro.experiments.occasion_drift as occasion_drift
    import repro.experiments.protocol_validation as protocol_validation
    import repro.experiments.related_work as related_work

    class _Result:
        improvement_factor = 1.5
        digest_vs_naive = 3.0

        def to_table(self):
            return "CANNED TABLE"

    recorders = {}

    def fake_run(**kwargs):
        return _Result()

    for name, module in {
        "fig4a": fig4a,
        "fig4b": fig4b,
        "fig5a": fig5a,
        "fig5b": fig5b,
        "mixing": mixing,
    }.items():
        recorder = _Recorder()
        monkeypatch.setattr(
            module, "run", lambda recorder=recorder, **kw: (recorder(**kw), _Result())[1]
        )
        recorders[name] = recorder
    for name, module in {
        "ablations": ablations,
        "forward": forward,
        "guarantees": guarantees,
        "related_work": related_work,
        "occasion_drift": occasion_drift,
        "protocol": protocol_validation,
    }.items():
        recorder = _Recorder()
        monkeypatch.setattr(module, "main", recorder)
        recorders[name] = recorder
    return recorders


@pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig5a", "fig5b", "mixing"])
def test_run_experiments_dispatch(canned, capsys, name):
    assert cli.main(["experiment", name, "--scale", "0.07", "--seed", "3"]) == 0
    assert "CANNED TABLE" in capsys.readouterr().out
    assert canned[name].calls, f"{name}.run was not invoked"
    call = canned[name].calls[0]
    if name != "mixing":
        assert call.get("seed") == 3


@pytest.mark.parametrize(
    "name",
    ["ablations", "forward", "guarantees", "related_work", "occasion_drift", "protocol"],
)
def test_main_experiments_dispatch(canned, name):
    assert cli.main(["experiment", name]) == 0
    assert canned[name].calls, f"{name}.main was not invoked"


def test_fig5b_scale_floor(canned):
    """fig5b refuses to run below the push-vs-sample crossover scale."""
    cli.main(["experiment", "fig5b", "--scale", "0.05"])
    assert canned["fig5b"].calls[0]["scale"] >= 0.25


@pytest.mark.parametrize("case", sorted(FAILING))
def test_experiment_applies_the_sweep_gates(monkeypatch, capsys, case):
    """``repro experiment <sweep>`` exits 1 where the module's main does."""
    module, result, line = FAILING[case]
    monkeypatch.setattr(module, "run", lambda *args, **kwargs: result())
    assert cli.main(["experiment", module.__name__.rsplit(".", 1)[1]]) == 1
    assert f"  {line}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name", ["fault_tolerance", "partition_tolerance", "slo_audit"]
)
@pytest.mark.parametrize("scale, smoke", [("0.5", True), ("1", False)])
def test_scale_below_one_runs_the_smoke_sweep(monkeypatch, name, scale, smoke):
    module = importlib.import_module(f"repro.experiments.{name}")
    argvs = []
    monkeypatch.setattr(module, "main", lambda argv: argvs.append(argv) or 0)
    assert cli.main(["experiment", name, "--scale", scale, "--seed", "4"]) == 0
    assert argvs == [["--seed", "4"] + (["--smoke"] if smoke else [])]
