"""Tests for repeated sampling (Section IV-B2, Table 1, Eq. 7-11)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.independent import PILOT_SIZE, IndependentEvaluator
from repro.core.query import Query
from repro.core.repeated import (
    RepeatedEvaluator,
    _MatchedPairs,
    combined_variance,
    minimum_variance,
    optimal_partition,
    solve_allocation,
)
from repro.db.aggregates import AggregateOp
from repro.db.expression import Expression
from repro.db.relation import P2PDatabase, Schema
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology
from repro.sampling.operator import SamplerConfig, SamplingOperator


class TestOptimalPartition:
    def test_rho_zero_splits_half(self):
        g, f = optimal_partition(100, 0.0)
        assert g == 50 and f == 50

    def test_rho_one_replaces_all(self):
        g, f = optimal_partition(100, 1.0)
        assert g == 0 and f == 100

    def test_partition_sums_to_n(self):
        for rho in (0.0, 0.3, 0.7, 0.95):
            g, f = optimal_partition(37, rho)
            assert g + f == 37

    def test_retained_fraction_decreases_with_rho(self):
        fractions = [optimal_partition(1000, rho)[0] for rho in (0.1, 0.5, 0.9)]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_validation(self):
        with pytest.raises(QueryError):
            optimal_partition(-1, 0.5)
        with pytest.raises(QueryError):
            optimal_partition(10, 1.5)


class TestCombinedVariance:
    def test_extremes_equal_independent(self):
        """g=0 and g=n both give sigma^2/n (the paper's Eq. 8 note)."""
        sigma2, n, rho = 4.0, 100, 0.8
        var_prev = sigma2 / n
        assert combined_variance(sigma2, n, 0, rho, var_prev) == pytest.approx(
            sigma2 / n
        )
        assert combined_variance(sigma2, n, n, rho, var_prev) == pytest.approx(
            sigma2 / n
        )

    def test_matches_eq8_closed_form(self):
        """General form reduces to Eq. 8 when var_prev = sigma^2/n."""
        sigma2, n, rho = 1.0, 100, 0.85
        var_prev = sigma2 / n
        for g in (10, 30, 50, 80):
            f = n - g
            eq8 = sigma2 * (n - f * rho**2) / (n**2 - f**2 * rho**2)
            assert combined_variance(sigma2, n, g, rho, var_prev) == pytest.approx(
                eq8
            )

    def test_optimum_achieves_eq10(self):
        sigma2, n, rho = 1.0, 1000, 0.9
        g, _ = optimal_partition(n, rho)
        optimum = combined_variance(sigma2, n, g, rho, sigma2 / n)
        eq10 = minimum_variance(sigma2, n, rho)
        assert optimum == pytest.approx(eq10, rel=1e-4)

    def test_perfect_prior_gives_zero_variance_limit(self):
        # rho=1 and var_prev=0: regression is exact
        assert combined_variance(1.0, 10, 5, 1.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(QueryError):
            combined_variance(1.0, 0, 0, 0.5, 0.1)
        with pytest.raises(QueryError):
            combined_variance(1.0, 10, 11, 0.5, 0.1)
        with pytest.raises(QueryError):
            combined_variance(-1.0, 10, 5, 0.5, 0.1)

    @given(
        n=st.integers(2, 500),
        g=st.integers(0, 500),
        rho=st.floats(0.0, 0.99),
        sigma2=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_never_beats_eq10_nor_worse_than_independent(
        self, n, g, rho, sigma2
    ):
        g = min(g, n)
        var_prev = sigma2 / n
        variance = combined_variance(sigma2, n, g, rho, var_prev)
        assert variance <= sigma2 / n + 1e-9
        assert variance >= minimum_variance(sigma2, n, rho) - 1e-9


class TestEq11Improvement:
    def test_improvement_ratio(self):
        """Eq. 11: var ratio = 2 / (1 + sqrt(1 - rho^2))."""
        sigma2, n = 1.0, 1000
        for rho in (0.5, 0.89, 0.99):
            ratio = (sigma2 / n) / minimum_variance(sigma2, n, rho)
            expected = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
            assert ratio == pytest.approx(expected)

    def test_max_improvement_is_double(self):
        assert minimum_variance(1.0, 100, 1.0) == pytest.approx(0.5 / 100)


class TestSolveAllocation:
    def test_meets_target(self):
        sigma2, rho = 4.0, 0.8
        var_prev = 0.05
        target = 0.02
        n, g = solve_allocation(sigma2, rho, var_prev, target, retained_available=500)
        assert combined_variance(sigma2, n, g, rho, var_prev) <= target

    def test_minimal(self):
        sigma2, rho = 4.0, 0.8
        var_prev = 0.05
        target = 0.02
        n, g = solve_allocation(
            sigma2, rho, var_prev, target, retained_available=500, min_n=2
        )
        if n > 2:
            # one fewer sample cannot meet the target at any partition
            best = min(
                combined_variance(sigma2, n - 1, candidate, rho, var_prev)
                for candidate in range(0, n)
            )
            assert best > target

    def test_cheaper_than_independent(self):
        """With correlation, the allocation needs fewer samples than Eq. 6."""
        sigma2, rho, target = 4.0, 0.9, 0.01
        n_independent = int(np.ceil(sigma2 / target))
        n_repeated, _ = solve_allocation(
            sigma2, rho, target * 2, target, retained_available=10**6
        )
        assert n_repeated < n_independent

    def test_respects_retained_available(self):
        n, g = solve_allocation(4.0, 0.9, 0.001, 0.01, retained_available=7)
        assert g <= 7

    def test_zero_sigma(self):
        n, g = solve_allocation(0.0, 0.5, 0.1, 0.01, retained_available=10)
        assert n == 2 and g == 0

    def test_infeasible_target(self):
        with pytest.raises(QueryError):
            solve_allocation(1e9, 0.0, 1.0, 1e-12, retained_available=0, max_n=100)

    def test_invalid_target(self):
        with pytest.raises(QueryError):
            solve_allocation(1.0, 0.5, 0.1, 0.0, retained_available=0)


# ----------------------------------------------------------------------
# evaluator integration
# ----------------------------------------------------------------------

def _correlated_world(n_nodes=36, per_node=6, seed=0):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(mesh_topology(n_nodes), n_nodes=n_nodes)
    database = P2PDatabase(Schema(("v",)), graph.nodes())
    tids = []
    for node in graph.nodes():
        for _ in range(per_node):
            tids.append(database.insert(node, {"v": float(rng.normal(50, 10))}))
    return graph, database, tids, rng


def _evolve(database, tids, rng, phi=0.97, mean=50.0, noise=2.0):
    for tid in tids:
        if tid in database:
            current = database.read(tid)["v"]
            database.update(
                tid, {"v": phi * current + (1 - phi) * mean + rng.normal(0, noise)}
            )


def _make_evaluators(graph, database, seed=1):
    query = Query(AggregateOp.AVG, Expression("v"))
    operator_r = SamplingOperator(
        graph, np.random.default_rng(seed), config=SamplerConfig()
    )
    operator_i = SamplingOperator(
        graph, np.random.default_rng(seed), config=SamplerConfig()
    )
    repeated = RepeatedEvaluator(
        database, operator_r, 0, query, np.random.default_rng(seed + 1)
    )
    independent = IndependentEvaluator(database, operator_i, 0, query)
    return independent, repeated


class TestRepeatedEvaluator:
    def test_first_occasion_all_fresh(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        estimate = repeated.evaluate(0, epsilon=2.0, confidence=0.95)
        assert estimate.n_retained == 0
        assert estimate.n_fresh == estimate.n_total

    def test_later_occasions_retain(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=2.0, confidence=0.95)
        _evolve(database, tids, rng)
        estimate = repeated.evaluate(1, epsilon=2.0, confidence=0.95)
        assert estimate.n_retained > 0
        assert estimate.n_fresh > 0  # always replaces a portion

    def test_uses_fewer_samples_than_independent(self):
        graph, database, tids, rng = _correlated_world()
        independent, repeated = _make_evaluators(graph, database)
        totals = {"independent": 0, "repeated": 0}
        for time in range(6):
            _evolve(database, tids, rng)
            totals["independent"] += independent.evaluate(
                time, epsilon=1.0, confidence=0.95
            ).n_total
            totals["repeated"] += repeated.evaluate(
                time, epsilon=1.0, confidence=0.95
            ).n_total
        assert totals["repeated"] < totals["independent"]

    def test_estimates_stay_accurate(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        for time in range(6):
            _evolve(database, tids, rng)
            estimate = repeated.evaluate(time, epsilon=1.5, confidence=0.95)
            truth = float(database.exact_values(Expression("v")).mean())
            # allow 2x epsilon: a single run, and the guarantee is probabilistic
            assert abs(estimate.mean - truth) < 3.0

    def test_measures_correlation(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=1.0, confidence=0.95)
        _evolve(database, tids, rng)
        repeated.evaluate(1, epsilon=1.0, confidence=0.95)
        assert repeated.current_rho is not None
        assert repeated.current_rho > 0.5  # phi=0.97 world is highly correlated

    def test_deleted_tuples_replaced(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=2.0, confidence=0.95)
        # delete most of the relation; retained pool shrinks accordingly
        for tid in tids[: len(tids) // 2]:
            database.delete(tid)
        _evolve(database, tids, rng)
        estimate = repeated.evaluate(1, epsilon=2.0, confidence=0.95)
        assert estimate.n_total > 0
        for kept in (estimate.n_retained, estimate.n_fresh):
            assert kept >= 0

    def test_reset_forgets_state(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=2.0, confidence=0.95)
        repeated.reset()
        estimate = repeated.evaluate(1, epsilon=2.0, confidence=0.95)
        assert estimate.n_retained == 0


class TestDegenerateOccasions:
    def test_all_fresh_when_no_sample_survives(self):
        """g=0: the whole retained pool died; falls back to the regular
        (all-fresh) estimate without dividing by zero."""
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=2.0, confidence=0.95)
        # kill exactly the evaluator's sample-set; replace the rows so the
        # relation itself stays populated and samplable
        for tid in set(repeated._state.tuple_ids):
            if tid in database:
                database.delete(tid)
        for node in graph.nodes():
            database.insert(node, {"v": float(rng.normal(50, 10))})
        estimate = repeated.evaluate(1, epsilon=2.0, confidence=0.95)
        assert estimate.n_retained == 0
        assert estimate.n_fresh == estimate.n_total > 0
        truth = float(database.exact_values(Expression("v")).mean())
        assert abs(estimate.mean - truth) < 5.0

    def test_combine_all_retained_uses_regression_only(self):
        """f=0: no fresh draws; the combination is the regression estimate
        alone (no division by the zero fresh count)."""
        matched_prev = np.array([48.0, 50.0, 52.0, 49.0, 51.0])
        matched_curr = matched_prev * 0.9 + 5.0  # perfectly correlated
        pairs = _MatchedPairs.measure(
            matched_prev, matched_curr, prev_estimate=50.0, prev_variance=0.5
        )
        estimate, variance, sigma2 = pairs.combine(np.array([]))
        assert math.isfinite(estimate) and math.isfinite(variance)
        assert variance > 0
        # perfect correlation, clipped to the working range
        assert pairs.rho == pytest.approx(0.999)
        # regression estimate: curr_mean + b * (prev_est - prev_mean);
        # prev mean == prev estimate == 50, so it is just the current mean
        assert estimate == pytest.approx(float(matched_curr.mean()))

    def test_combine_all_retained_small_g_uses_matched_mean(self):
        """f=0 with g<3: too few pairs for a regression; falls back to the
        plain matched mean."""
        matched_prev = np.array([48.0, 52.0])
        matched_curr = np.array([47.0, 53.0])
        pairs = _MatchedPairs.measure(
            matched_prev, matched_curr, prev_estimate=50.0, prev_variance=0.5
        )
        estimate, variance, _ = pairs.combine(np.array([]))
        assert pairs.rho is None
        assert estimate == pytest.approx(50.0)
        assert math.isfinite(variance) and variance > 0

    def test_combine_zero_samples_rejected(self):
        pairs = _MatchedPairs.measure(np.array([]), np.array([]), 50.0, 0.5)
        with pytest.raises(QueryError):
            pairs.combine(np.array([]))

    def test_constant_previous_values_fall_back_to_matched_mean(self):
        """Zero variance among the retained previous values: regression is
        undefined (b = cov/0); falls back to the matched mean, combined
        with the fresh portion."""
        matched_prev = np.full(5, 50.0)
        matched_curr = np.array([49.0, 50.0, 51.0, 50.0, 50.0])
        fresh = np.array([48.0, 52.0, 50.0])
        pairs = _MatchedPairs.measure(matched_prev, matched_curr, 50.0, 0.5)
        estimate, variance, _ = pairs.combine(fresh)
        assert pairs.rho is None
        assert math.isfinite(estimate) and math.isfinite(variance)


class TestPlanDemand:
    def test_pilot_before_first_occasion(self):
        graph, database, tids, rng = _correlated_world()
        independent, repeated = _make_evaluators(graph, database)
        assert independent.plan_demand(2.0, 0.95) == PILOT_SIZE
        assert repeated.plan_demand(2.0, 0.95) == PILOT_SIZE

    def test_forecast_sized_from_measured_sigma(self):
        graph, database, tids, rng = _correlated_world()
        independent, _ = _make_evaluators(graph, database)
        independent.evaluate(0, epsilon=1.0, confidence=0.95)
        forecast = independent.plan_demand(1.0, 0.95)
        assert forecast >= PILOT_SIZE
        # a looser epsilon can never demand more samples
        assert independent.plan_demand(4.0, 0.95) <= forecast

    def test_repeated_forecast_excludes_retained_portion(self):
        """RPT retention means fewer *fresh* walks than INDEP forecasts."""
        graph, database, tids, rng = _correlated_world()
        independent, repeated = _make_evaluators(graph, database)
        for time in range(3):
            _evolve(database, tids, rng)
            independent.evaluate(time, epsilon=1.0, confidence=0.95)
            repeated.evaluate(time, epsilon=1.0, confidence=0.95)
        assert (
            repeated.plan_demand(1.0, 0.95)
            < independent.plan_demand(1.0, 0.95)
        )

    def test_plan_is_a_pure_read(self):
        graph, database, tids, rng = _correlated_world()
        _, repeated = _make_evaluators(graph, database)
        repeated.evaluate(0, epsilon=1.5, confidence=0.95)
        first = repeated.plan_demand(1.5, 0.95)
        assert repeated.plan_demand(1.5, 0.95) == first  # no state change
        assert repeated._operator.samples_drawn > 0  # only evaluate() draws
        drawn_before = repeated._operator.samples_drawn
        repeated.plan_demand(1.5, 0.95)
        assert repeated._operator.samples_drawn == drawn_before

    def test_one_allocation_per_occasion(self, monkeypatch):
        """plan_demand and the evaluate() after it share one solve.

        The memoized evaluator solves once per later occasion (the
        bootstrap solves none), and its forecasts and estimates are the
        ones it gives when every call solves afresh.
        """
        from repro.core import repeated as repeated_module

        def run(memoized):
            graph, database, tids, rng = _correlated_world()
            _, repeated = _make_evaluators(graph, database)
            calls = []

            def counting(*args, **kwargs):
                calls.append(args)
                return solve_allocation(*args, **kwargs)

            monkeypatch.setattr(repeated_module, "solve_allocation", counting)
            outputs = []
            for time in range(6):
                _evolve(database, tids, rng)
                if not memoized:
                    repeated._last_allocation = None
                demand = repeated.plan_demand(1.0, 0.95)
                if not memoized:
                    repeated._last_allocation = None
                estimate = repeated.evaluate(time, epsilon=1.0, confidence=0.95)
                outputs.append(
                    (demand, estimate.n_fresh, estimate.n_retained)
                    + (estimate.mean, estimate.variance)
                )
            return outputs, len(calls)

        memoized, memoized_calls = run(True)
        plain, plain_calls = run(False)
        assert memoized == plain
        assert memoized_calls == 5
        assert plain_calls == 10
