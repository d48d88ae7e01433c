"""Tests for the CLT estimation machinery (Eq. 5-6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from repro.core.estimators import (
    achieved_epsilon,
    confidence_quantile,
    ratio_estimate,
    required_sample_size,
    sample_mean_and_variance,
    variance_target,
)
from repro.errors import QueryError


class TestQuantile:
    def test_known_values(self):
        assert confidence_quantile(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert confidence_quantile(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_monotone(self):
        assert confidence_quantile(0.99) > confidence_quantile(0.9)

    def test_rejects_bounds(self):
        with pytest.raises(QueryError):
            confidence_quantile(0.0)
        with pytest.raises(QueryError):
            confidence_quantile(1.0)

    def test_memoized_value_is_bit_identical(self):
        for confidence in (0.9, 0.95, np.float64(0.95), 0.99):
            expected = float(norm.ppf((confidence + 1.0) / 2.0))
            assert confidence_quantile(confidence) == expected
            assert confidence_quantile(confidence) == expected

    def test_rejection_survives_memoization(self):
        confidence_quantile(0.95)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(QueryError):
                confidence_quantile(bad)


class TestRequiredSampleSize:
    def test_eq6_value(self):
        # n = (sigma * z / eps)^2 = (8 * 1.96 / 2)^2 ~= 61.5 -> 62
        assert required_sample_size(8.0, 2.0, 0.95) == 62

    def test_monotonicity(self):
        base = required_sample_size(5.0, 1.0, 0.95)
        assert required_sample_size(10.0, 1.0, 0.95) > base  # more spread
        assert required_sample_size(5.0, 0.5, 0.95) > base  # tighter eps
        assert required_sample_size(5.0, 1.0, 0.99) > base  # more confidence

    def test_zero_sigma(self):
        assert required_sample_size(0.0, 1.0, 0.95, minimum=3) == 3

    def test_minimum_enforced(self):
        assert required_sample_size(0.1, 100.0, 0.95, minimum=5) == 5

    def test_infeasible_rejected(self):
        with pytest.raises(QueryError, match="exceeds"):
            required_sample_size(1e6, 1e-6, 0.99, maximum=1000)

    def test_invalid_inputs(self):
        with pytest.raises(QueryError):
            required_sample_size(-1.0, 1.0, 0.95)
        with pytest.raises(QueryError):
            required_sample_size(1.0, 0.0, 0.95)

    def test_consistency_with_clt(self):
        """Empirical coverage at the computed n is ~the confidence level."""
        rng = np.random.default_rng(0)
        sigma, epsilon, confidence = 4.0, 1.0, 0.9
        n = required_sample_size(sigma, epsilon, confidence)
        hits = 0
        trials = 2000
        for _ in range(trials):
            sample = rng.normal(0.0, sigma, n)
            hits += abs(sample.mean()) <= epsilon
        coverage = hits / trials
        assert abs(coverage - confidence) < 0.04


class TestVarianceTarget:
    def test_inverse_of_epsilon(self):
        target = variance_target(2.0, 0.95)
        assert achieved_epsilon(target, 0.95) == pytest.approx(2.0)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(QueryError):
            variance_target(0.0, 0.95)


class TestSampleMoments:
    def test_population_style_variance(self):
        mean, variance = sample_mean_and_variance(np.array([1.0, 3.0]))
        assert mean == pytest.approx(2.0, rel=1e-12)
        # (1 + 1) / 2, the 1/n convention
        assert variance == pytest.approx(1.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            sample_mean_and_variance(np.array([]))

    def test_achieved_epsilon_negative_variance(self):
        with pytest.raises(QueryError):
            achieved_epsilon(-1.0, 0.95)


_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_ZERO_ONE = st.sampled_from([0.0, 1.0])


def _columns(*elements):
    """Equal-length float64 columns of 1-2000 values, one per ``elements``."""
    return st.integers(1, 2000).flatmap(
        lambda n: st.tuples(
            *(arrays(np.float64, n, elements=element) for element in elements)
        )
    )


def _bits(*numbers):
    return [float(number).hex() for number in numbers]


def _np_mean_moments(values):
    """The fits' moments as ``np.mean`` computes them."""
    mean = float(values.mean())
    return mean, float(np.mean((values - mean) ** 2))


def _np_mean_ratio(values, indicators):
    """The ratio estimator as ``np.mean`` computes it."""
    indicator_mean = float(indicators.mean())
    ratio = float(values.mean()) / indicator_mean
    residuals = values - ratio * indicators
    return ratio, float(np.mean(residuals**2)) / (
        values.size * indicator_mean**2
    )


class TestBareReductions:
    """The fits reduce with ``np.add.reduce``, bit for bit ``np.mean``."""

    @given(columns=st.one_of(_columns(_FLOATS), _columns(_ZERO_ONE)))
    @settings(max_examples=200, deadline=None)
    def test_moments_match_np_mean(self, columns):
        (values,) = columns
        assert _bits(*sample_mean_and_variance(values)) == _bits(
            *_np_mean_moments(values)
        )

    @given(columns=_columns(_FLOATS, _ZERO_ONE))
    @settings(max_examples=200, deadline=None)
    def test_ratio_matches_np_mean(self, columns):
        expressed, indicators = columns
        indicators[0] = 1.0  # some tuple qualifies
        for values in (expressed * indicators, indicators):
            assert _bits(*ratio_estimate(values, indicators)) == _bits(
                *_np_mean_ratio(values, indicators)
            )
