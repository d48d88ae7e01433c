"""Tests for confidence-gated threshold monitoring."""

import numpy as np
import pytest

from repro.core.snapshot import SnapshotEstimate
from repro.core.threshold import ThresholdMonitor, ThresholdState
from repro.db.aggregates import AggregateOp
from repro.errors import QueryError


def _estimate(time, aggregate, stderr, population=1):
    """A snapshot whose aggregate CI half-width ~ 1.96 * stderr."""
    return SnapshotEstimate(
        time=time,
        mean=aggregate / population,
        aggregate=aggregate,
        variance=(stderr / population) ** 2,
        n_total=10,
        n_fresh=10,
        n_retained=0,
        population_size=population,
        scale=float(population),
    )


class TestValidation:
    def test_bad_confidence(self):
        with pytest.raises(QueryError):
            ThresholdMonitor(10.0, confidence=1.0)

    def test_bad_margin(self):
        with pytest.raises(QueryError):
            ThresholdMonitor(10.0, margin=-1.0)


class TestDeclarations:
    def test_clear_above(self):
        monitor = ThresholdMonitor(10.0)
        state = monitor.offer(_estimate(0, 20.0, stderr=1.0))
        assert state is ThresholdState.ABOVE
        assert len(monitor.events) == 1

    def test_clear_below(self):
        monitor = ThresholdMonitor(10.0)
        assert monitor.offer(_estimate(0, 2.0, stderr=1.0)) is ThresholdState.BELOW

    def test_uncertain_holds_previous_state(self):
        monitor = ThresholdMonitor(10.0)
        monitor.offer(_estimate(0, 20.0, stderr=1.0))  # ABOVE
        # estimate straddles the threshold: CI = 10.5 +/- ~2
        state = monitor.offer(_estimate(1, 10.5, stderr=1.0))
        assert state is ThresholdState.ABOVE  # held
        assert monitor.uncertain_estimates == 1
        assert len(monitor.events) == 1  # no flip event

    def test_no_flapping_on_noise(self):
        """Estimates oscillating inside the noise band never flap."""
        monitor = ThresholdMonitor(10.0)
        monitor.offer(_estimate(0, 14.0, stderr=1.0))
        rng = np.random.default_rng(0)
        for t in range(1, 30):
            monitor.offer(_estimate(t, 10.0 + rng.normal(0, 0.8), stderr=1.0))
        assert len(monitor.events) == 1  # only the initial declaration

    def test_genuine_crossing_fires(self):
        fired = []
        monitor = ThresholdMonitor(10.0, callback=fired.append)
        monitor.offer(_estimate(0, 20.0, stderr=1.0))
        monitor.offer(_estimate(1, 1.0, stderr=1.0))
        assert [e.state for e in fired] == [
            ThresholdState.ABOVE,
            ThresholdState.BELOW,
        ]
        assert fired[1].time == 1

    def test_margin_adds_dead_band(self):
        plain = ThresholdMonitor(10.0)
        banded = ThresholdMonitor(10.0, margin=5.0)
        estimate = _estimate(0, 13.0, stderr=0.5)  # CI ~ [12, 14]
        assert plain.offer(estimate) is ThresholdState.ABOVE
        assert banded.offer(estimate) is ThresholdState.UNKNOWN  # needs > 15

    def test_initial_state_unknown(self):
        monitor = ThresholdMonitor(10.0)
        assert monitor.state is ThresholdState.UNKNOWN
        assert monitor.offer(_estimate(0, 10.2, stderr=1.0)) is (
            ThresholdState.UNKNOWN
        )


class TestScale:
    def _avg(self, mean):
        return SnapshotEstimate.from_mean(
            AggregateOp.AVG,
            1.0,
            0.95,
            time=0,
            mean=mean,
            variance=0.25,
            n_fresh=50,
            n_retained=0,
            population_size=1000,
            degraded=False,
        )

    def test_zero_mean_avg_keeps_unit_scale(self):
        """An AVG answer of exactly 0 is as certain as one of 1e-9: the
        half-width is the mean's, never N times it."""
        for mean in (0.0, 1e-9):
            monitor = ThresholdMonitor(10.0)
            assert monitor.offer(self._avg(mean)) is ThresholdState.BELOW

    def test_sum_half_width_is_in_aggregate_units(self):
        estimate = SnapshotEstimate.from_mean(
            AggregateOp.SUM,
            100.0,
            0.95,
            time=0,
            mean=0.0,
            variance=0.25,
            n_fresh=50,
            n_retained=0,
            population_size=1000,
            degraded=False,
        )
        assert estimate.scale == pytest.approx(1000.0)
        assert estimate.half_width(0.95) == pytest.approx(1.96 * 0.5 * 1000, rel=1e-3)
        assert self._avg(0.0).half_width(0.95) == pytest.approx(1.96 * 0.5, rel=1e-3)


class TestEngineIntegration:
    def test_grid_scenario(self):
        """SUM query + monitor: declared flips track genuine level shifts."""
        from repro.core.query import ContinuousQuery, Precision, parse_query
        from repro.core.session import DigestSession, EngineConfig
        from repro.db.relation import P2PDatabase, Schema
        from repro.network.graph import OverlayGraph
        from repro.network.topology import mesh_topology

        rng = np.random.default_rng(0)
        graph = OverlayGraph(mesh_topology(25), n_nodes=25)
        database = P2PDatabase(Schema(("mem",)), graph.nodes())
        tids = []
        for node in graph.nodes():
            for _ in range(4):
                tids.append(database.insert(node, {"mem": float(rng.normal(40, 5))}))
        total0 = 40.0 * len(tids)
        continuous = ContinuousQuery(
            parse_query("SELECT SUM(mem) FROM R"),
            Precision(delta=100.0, epsilon=150.0, confidence=0.95),
            duration=10,
        )
        session = DigestSession(graph, database, 0, np.random.default_rng(1))
        query_id = session.add_query(
            continuous,
            config=EngineConfig(scheduler="all", evaluator="independent"),
        )
        monitor = ThresholdMonitor(threshold=total0 * 1.1, confidence=0.95)
        for t in range(10):
            if t == 5:  # a real level shift: +20% memory everywhere
                for tid in tids:
                    database.update(
                        tid, {"mem": database.read(tid)["mem"] * 1.25}
                    )
            monitor.offer(session.step(t)[query_id])
        states = [event.state for event in monitor.events]
        assert states == [ThresholdState.BELOW, ThresholdState.ABOVE]
        assert monitor.events[1].time >= 5
