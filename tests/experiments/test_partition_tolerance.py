"""Acceptance tests for the partition-tolerance experiment.

Encodes the PR's robustness criteria directly: during every open cut all
emitted estimates are honestly re-scoped (zero dishonest cells), every
query returns to non-degraded within the configured post-heal bound, the
scoped error beats chasing the unreachable global truth, and the whole
sweep is bit-deterministic under a fixed seed with an exactly-verifiable
trace.
"""

from repro.experiments import partition_tolerance
from repro.obs.analysis import verify_trace_consistency
from repro.obs.schema import (
    EVENT_PARTITION_HEAL,
    EVENT_PARTITION_OPEN,
    SPAN_PARTITION_CELL,
)


def _smoke(seed=0):
    return partition_tolerance.run(
        partition_tolerance.smoke_config(), seed=seed
    )


class TestSweep:
    def test_runs_without_exceptions_and_covers_the_grid(self):
        result = _smoke()
        config = result.config
        assert len(result.rows) == len(config.widths) * len(
            config.durations
        ) * len(config.heal_policies)
        assert {row.heal_policy for row in result.rows} == {
            "repair",
            "passive",
        }

    def test_every_partitioned_estimate_is_honest(self):
        result = _smoke()
        for row in result.rows:
            assert row.n_partitioned > 0, (
                f"cell (width={row.width}, duration={row.duration}, "
                f"heal={row.heal_policy}) never saw an open cut"
            )
            assert row.n_dishonest == 0
            assert row.min_fraction < 1.0

    def test_queries_recover_within_the_bound(self):
        result = _smoke()
        for row in result.rows:
            assert row.recovered
            assert row.recovery_occasions is not None
            assert row.recovery_occasions <= result.config.recovery_bound

    def test_scoped_error_is_the_right_yardstick(self):
        """During the cut the estimate tracks the reachable region; its
        error against the scoped truth stays in the same band as the
        clean-phase error against the global truth."""
        result = _smoke()
        for row in result.rows:
            assert row.error_scoped < 5 * max(row.error_clean, 0.1)

    def test_partition_lifecycle_recorded_per_cell(self):
        result = _smoke()
        for row in result.rows:
            assert row.faults["partition_open"] == 1
            assert row.faults["partition_heal"] == 1

    def test_metrics_and_trace_populated(self):
        result = _smoke()
        assert result.metrics.snapshot_queries > 0
        assert result.metrics.degraded_estimates > 0
        assert result.trace is not None
        cells = [
            span
            for span in result.trace.spans
            if span.name == SPAN_PARTITION_CELL
        ]
        assert len(cells) == len(result.rows)
        for span in cells:
            assert span.attrs["n_dishonest"] == 0
        names = [event.name for event in result.trace.events]
        assert names.count(EVENT_PARTITION_OPEN) == len(result.rows)
        assert names.count(EVENT_PARTITION_HEAL) == len(result.rows)

    def test_trace_counters_verify_exactly(self):
        result = _smoke()
        assert result.trace is not None
        assert verify_trace_consistency(result.trace, result.metrics) == []

    def test_table_renders(self):
        text = _smoke().to_table()
        assert "Partition tolerance" in text
        assert "dishonest" in text
        assert "recovered" in text


class TestDeterminism:
    def test_two_runs_produce_identical_rows(self):
        a, b = _smoke(seed=3), _smoke(seed=3)
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a == row_b

    def test_different_seeds_differ(self):
        a, b = _smoke(seed=0), _smoke(seed=99)
        assert any(
            (ra.error_scoped, ra.faults) != (rb.error_scoped, rb.faults)
            for ra, rb in zip(a.rows, b.rows)
        )


class TestMain:
    def test_main_smoke_exits_zero(self, capsys):
        assert partition_tolerance.main(["--smoke", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Partition tolerance" in out
        assert "consistency: OK" in out

    def test_main_exports_trace(self, tmp_path, capsys):
        path = tmp_path / "partitions.jsonl"
        assert (
            partition_tolerance.main(
                ["--smoke", "--trace-out", str(path)]
            )
            == 0
        )
        assert path.exists()
        assert "trace:" in capsys.readouterr().out
