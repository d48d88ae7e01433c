"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import multi_query, slo_audit
from tests.experiments.test_multi_query import _result as multi_query_result

V1_GOLDEN = Path(__file__).parent / "obs" / "golden" / "v1_faulted_trace.jsonl"


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "combined" in out

    def test_table2_small(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05"]) == 0
        assert "rho" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])

    def test_multi_query_applies_the_coverage_gate(self, monkeypatch, capsys):
        # 10 of 15 within: the upper bound 0.944 is below p = 0.95
        monkeypatch.setattr(multi_query, "run", lambda **_: multi_query_result(10))
        assert main(["experiment", "multi_query"]) == 1
        assert "coverage upper bound below p: q0" in capsys.readouterr().out
        monkeypatch.setattr(multi_query, "run", lambda **_: multi_query_result(15))
        assert main(["experiment", "multi_query"]) == 0
        assert "fewer messages per query" in capsys.readouterr().out


class TestQueryCommand:
    def test_basic_query(self, capsys):
        code = main(
            [
                "query",
                "--query",
                "SELECT AVG(temperature) FROM R",
                "--scale",
                "0.04",
                "--steps",
                "6",
                "--scheduler",
                "all",
                "--evaluator",
                "independent",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot queries" in out
        assert "estimate=" in out

    def test_filtered_avg_falls_back(self, capsys):
        code = main(
            [
                "query",
                "--query",
                "SELECT AVG(temperature) FROM R WHERE temperature > 55",
                "--scale",
                "0.04",
                "--steps",
                "4",
            ]
        )
        assert code == 0
        assert "falling back" in capsys.readouterr().out

    def test_query_required(self):
        with pytest.raises(SystemExit):
            main(["query"])


class TestTraceCommands:
    def test_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--output",
                    path,
                    "--scale",
                    "0.04",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        assert "recorded" in capsys.readouterr().out
        assert (
            main(
                [
                    "trace",
                    "replay",
                    "--input",
                    path,
                    "--query",
                    "SELECT AVG(temperature) FROM R",
                    "--delta",
                    "2",
                    "--epsilon",
                    "1.5",
                ]
            )
            == 0
        )
        assert "replayed 5 steps" in capsys.readouterr().out

    def test_summarize_walks_column_only_with_protocol_batches(
        self, tmp_path, capsys
    ):
        """A session trace has no attributed walks, so no ``walks=`` column."""
        path = tmp_path / "slo.jsonl"
        assert slo_audit.main(["--smoke", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shared-walk attribution" in out
        assert "walks=" not in out
        # the v1 golden holds one protocol batch, whose walks name q1 nine times
        assert main(["trace", "summarize", "--input", str(V1_GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  q1 .* walks=\s+9$", out, re.MULTILINE)
