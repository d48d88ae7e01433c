"""Tests for Taylor-polynomial extrapolation (Section IV-A).

PRED-k fits over the last ``2k`` snapshot results, so each history below
has exactly ``2k`` points.
"""

import pytest

from repro.core.extrapolation import TaylorExtrapolator
from repro.errors import QueryError


def _history(function, n, start=0):
    return [(start + t, function(start + t)) for t in range(n)]


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(QueryError):
            TaylorExtrapolator(n_points=1)
        with pytest.raises(QueryError):
            TaylorExtrapolator(max_horizon=0)
        with pytest.raises(QueryError):
            TaylorExtrapolator(safety_factor=-1)

    def test_required_history(self):
        assert TaylorExtrapolator(n_points=3).required_history == 6
        assert TaylorExtrapolator(n_points=2).required_history == 4


class TestPrediction:
    def test_linear_growth_exact(self):
        """X = 2t: drift exceeds delta=5 after 3 steps (ceil(5/2))."""
        extrapolator = TaylorExtrapolator(n_points=2)
        history = _history(lambda t: 2.0 * t, 4)
        result = extrapolator.predict_next_update(history, delta=5.0)
        assert result.next_time == history[-1][0] + 3
        assert not result.capped
        assert result.remainder_rate == pytest.approx(0.0, abs=1e-9)

    def test_constant_history_capped(self):
        extrapolator = TaylorExtrapolator(n_points=3, max_horizon=10)
        history = _history(lambda t: 42.0, 6)
        result = extrapolator.predict_next_update(history, delta=1.0)
        assert result.capped
        assert result.next_time == history[-1][0] + 10

    def test_quadratic_exact(self):
        """X = t^2 with degree-2 fit: drift from t_u grows as offsets."""
        extrapolator = TaylorExtrapolator(n_points=3)
        history = _history(lambda t: float(t * t), 6)
        t_u = history[-1][0]
        result = extrapolator.predict_next_update(history, delta=30.0)
        # the degree-3 remainder fit of an exact quadratic has leading
        # coefficient 0, so only the drift counts:
        # drift = (t_u + k)^2 - t_u^2 = k^2 + 2*k*t_u = k^2 + 10k;
        # k=2 gives 24 <= 30, k=3 gives 39 > 30 -> k=3
        assert result.next_time == t_u + 3

    def test_faster_change_means_earlier_update(self):
        extrapolator = TaylorExtrapolator(n_points=2)
        slow = extrapolator.predict_next_update(
            _history(lambda t: 0.5 * t, 4), delta=5.2
        )
        fast = extrapolator.predict_next_update(
            _history(lambda t: 5.0 * t, 4), delta=5.2
        )
        # drift 0.5k > 5.2 first at k=11; drift 5k > 5.2 first at k=2
        assert slow.next_time == 3 + 11
        assert fast.next_time == 3 + 2

    def test_remainder_makes_prediction_conservative(self):
        """Curvature the linear fit ignores shortens the predicted interval."""
        smooth = TaylorExtrapolator(n_points=2)
        linear = _history(lambda t: 2.0 * t, 4)
        # a bump e = (-3, 3, 3, -3) is orthogonal to 1 and t on t = 0..3, so
        # the linear fit keeps slope 2; its projection on the centred
        # quadratic (1, -1, -1, 1) is -12/4, a leading coefficient of -3
        bump = {0: -3.0, 1: 3.0, 2: 3.0, 3: -3.0}
        wiggly = [(t, x + bump[t]) for t, x in linear]
        prediction_linear = smooth.predict_next_update(linear, delta=11.0)
        prediction_wiggly = smooth.predict_next_update(wiggly, delta=11.0)
        assert prediction_wiggly.remainder_rate == pytest.approx(3.0, rel=1e-12)
        # linear: 2k > 11 first at k=6; wiggly: 2k + 3k^2 is 5 at k=1 and
        # 16 > 11 at k=2
        assert prediction_linear.next_time == 3 + 6
        assert prediction_wiggly.next_time == 3 + 2

    def test_safety_factor_more_conservative(self):
        history = [(0, 0.0), (1, 1.9), (2, 4.1), (3, 6.0), (4, 8.1), (5, 9.9)]
        plain = TaylorExtrapolator(n_points=3, safety_factor=1.0)
        careful = TaylorExtrapolator(n_points=3, safety_factor=10.0)
        assert (
            careful.predict_next_update(history, 30.0).next_time
            <= plain.predict_next_update(history, 30.0).next_time
        )

    def test_irregular_spacing_supported(self):
        """Update times are not equally spaced (that is the whole point)."""
        extrapolator = TaylorExtrapolator(n_points=2)
        history = [(0, 0.0), (3, 6.0), (7, 14.0), (12, 24.0)]  # still X = 2t
        result = extrapolator.predict_next_update(history, delta=5.0)
        assert result.next_time == 15  # 12 + ceil(5/2)


class TestValidation:
    def test_insufficient_history(self):
        extrapolator = TaylorExtrapolator(n_points=3)
        with pytest.raises(QueryError, match="history points"):
            extrapolator.predict_next_update([(0, 1.0)], delta=1.0)

    def test_negative_delta(self):
        extrapolator = TaylorExtrapolator(n_points=2)
        with pytest.raises(QueryError):
            extrapolator.predict_next_update(_history(float, 4), delta=-1.0)

    def test_non_increasing_times(self):
        extrapolator = TaylorExtrapolator(n_points=2)
        with pytest.raises(QueryError):
            extrapolator.predict_next_update(
                [(0, 1.0), (0, 2.0), (1, 3.0), (2, 4.0)], delta=1.0
            )

