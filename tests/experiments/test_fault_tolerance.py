"""Acceptance tests for the fault-tolerance experiment.

Encodes the robustness criteria directly: with per-hop loss up to 10% and
per-step crash probability up to 5%, the sweep completes with zero
unhandled exceptions, nearly all walks are recovered via retry, every
estimate either meets the promised ``(epsilon, p)`` or is flagged
``degraded`` — and the whole run is bit-deterministic under a fixed seed.
"""

import numpy as np

from repro.experiments import fault_tolerance


def _smoke(seed=0):
    return fault_tolerance.run(fault_tolerance.smoke_config(), seed=seed)


class TestSweep:
    def test_runs_without_exceptions_and_covers_the_grid(self):
        result = _smoke()
        config = result.config
        assert len(result.rows) == len(config.loss_rates) * len(
            config.crash_rates
        )
        assert max(config.loss_rates) == 0.10
        assert max(config.crash_rates) == 0.05

    def test_recovery_rate_meets_threshold(self):
        result = _smoke()
        for row in result.rows:
            assert row.completion_rate >= 0.95, (
                f"cell (loss={row.message_loss}, crash="
                f"{row.crash_probability}) completed only "
                f"{row.completion_rate:.3f}"
            )
            assert row.recovery_rate >= 0.95

    def test_estimates_are_honest(self):
        """Every row meets the promise or says it did not."""
        result = _smoke()
        for row in result.rows:
            if row.n_achieved < row.n_required:
                assert row.degraded
            if not row.degraded:
                assert row.n_achieved >= row.n_required
            assert np.isfinite(row.estimate)
            assert 0.0 <= row.achieved_confidence <= 1.0

    def test_retry_overhead_rises_with_loss(self):
        result = _smoke()
        lossless = [r for r in result.rows if r.message_loss == 0.0]
        lossy = [r for r in result.rows if r.message_loss > 0.0]
        assert max(r.retry_overhead for r in lossless) <= min(
            r.retry_overhead for r in lossy
        ) or all(r.retry_overhead > 0 for r in lossy)
        assert all(r.retries > 0 for r in lossy)

    def test_fault_free_cell_matches_reliable_baseline(self):
        result = _smoke()
        clean = next(
            r
            for r in result.rows
            if r.message_loss == 0.0 and r.crash_probability == 0.0
        )
        assert clean.retries == 0
        assert clean.retry_overhead == 0.0
        assert clean.faults == {}
        assert not clean.degraded

    def test_metrics_populated(self):
        result = _smoke()
        assert result.metrics.faults_injected > 0
        assert result.metrics.walks_retried > 0
        assert result.metrics.samples_total > 0

    def test_table_renders(self):
        text = _smoke().to_table()
        assert "Fault tolerance" in text
        assert "degraded" in text


class TestDeterminism:
    def test_two_runs_produce_identical_ledgers(self):
        a, b = _smoke(seed=3), _smoke(seed=3)
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.ledger_breakdown == row_b.ledger_breakdown
            assert row_a.faults == row_b.faults
            assert row_a.estimate == row_b.estimate
            assert row_a.n_achieved == row_b.n_achieved

    def test_different_seeds_differ(self):
        a, b = _smoke(seed=0), _smoke(seed=99)
        assert any(
            ra.ledger_breakdown != rb.ledger_breakdown
            for ra, rb in zip(a.rows, b.rows)
        )


class TestMain:
    def test_main_smoke_exits_zero(self, capsys):
        assert fault_tolerance.main(["--smoke", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "worst cell" in out
