"""Property-based tests for the extrapolation scheduler's invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.extrapolation import TaylorExtrapolator


@st.composite
def smooth_history(draw):
    """A strictly-increasing-time history from a random quadratic + noise."""
    a = draw(st.floats(-0.5, 0.5))
    b = draw(st.floats(-3.0, 3.0))
    c = draw(st.floats(-50.0, 50.0))
    noise = draw(st.floats(0.0, 0.5))
    n = draw(st.integers(6, 10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    history = []
    for t in range(n):
        value = a * t * t + b * t + c + float(rng.normal(0, noise))
        history.append((t, value))
    return history


@given(history=smooth_history(), delta=st.floats(0.5, 50.0))
@settings(max_examples=120, deadline=None)
def test_property_prediction_strictly_future_and_capped(history, delta):
    extrapolator = TaylorExtrapolator(n_points=3, max_horizon=32)
    result = extrapolator.predict_next_update(history, delta)
    t_u = history[-1][0]
    assert t_u < result.next_time <= t_u + 32
    assert result.remainder_rate >= 0.0


@given(history=smooth_history())
@settings(max_examples=80, deadline=None)
def test_property_monotone_in_delta(history):
    """A looser resolution never schedules the next snapshot earlier."""
    extrapolator = TaylorExtrapolator(n_points=3, max_horizon=64)
    small = extrapolator.predict_next_update(history, delta=1.0)
    large = extrapolator.predict_next_update(history, delta=20.0)
    assert large.next_time >= small.next_time


@given(history=smooth_history(), factor=st.floats(1.5, 10.0))
@settings(max_examples=80, deadline=None)
def test_property_safety_factor_never_later(history, factor):
    plain = TaylorExtrapolator(n_points=3, safety_factor=1.0)
    careful = TaylorExtrapolator(n_points=3, safety_factor=factor)
    assert (
        careful.predict_next_update(history, 10.0).next_time
        <= plain.predict_next_update(history, 10.0).next_time
    )


@given(
    history=smooth_history(),
    offset=st.integers(1, 1000),
    scale_value=st.floats(0.1, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_property_time_translation_invariance(history, offset, scale_value):
    """Shifting all timestamps shifts the prediction by the same amount."""
    extrapolator = TaylorExtrapolator(n_points=3, max_horizon=32)
    base = extrapolator.predict_next_update(history, delta=5.0)
    shifted_history = [(t + offset, x) for t, x in history]
    shifted = extrapolator.predict_next_update(shifted_history, delta=5.0)
    assert shifted.next_time == base.next_time + offset


def _reference_margins(extrapolator, history, delta):
    """Eq. 4's ``drift + remainder - delta`` at offsets 1..horizon, one at
    a time, with the power-sum polynomial."""
    window = history[-extrapolator.required_history :]
    times = np.array([t for t, _ in window], dtype=float)
    values = np.array([x for _, x in window], dtype=float)
    shifted = times - times[-1]
    ascending = np.polyfit(shifted, values, extrapolator.n_points - 1)[::-1]
    rate = extrapolator.safety_factor * abs(
        float(np.polyfit(shifted, values, extrapolator.n_points)[0])
    )
    margins = []
    for offset in range(1, extrapolator.max_horizon + 1):
        drift = abs(
            sum(c * float(offset) ** p for p, c in enumerate(ascending))
            - ascending[0]
        )
        margins.append(
            drift + rate * float(offset) ** extrapolator.n_points - delta
        )
    return margins


#: a linear history with slope exactly ``delta``: offset 1 is a tie that
#: ``np.polyval``'s Horner rule and the power sum round 1 ulp apart
_SLOPE_TIE = [(t, 2.59375 * t + 0.9175255092254277) for t in range(6)]


@given(history=smooth_history(), delta=st.floats(0.5, 50.0))
@example(history=_SLOPE_TIE, delta=2.59375)
@settings(max_examples=120, deadline=None)
def test_property_scan_matches_reference_loop(history, delta):
    """The vectorised Eq. 4 scan picks the offset the scalar loop picks.

    The two sum the polynomial in different orders, so they may disagree
    only at an exact tie: where the reference's margin at the first
    offset they differ on is within rounding of zero.
    """
    extrapolator = TaylorExtrapolator(n_points=3, max_horizon=32)
    result = extrapolator.predict_next_update(history, delta)
    margins = _reference_margins(extrapolator, history, delta)
    t_u = history[-1][0]
    reference = next(
        (offset for offset, m in enumerate(margins, 1) if m > 0), None
    )
    scanned = None if result.capped else result.next_time - t_u
    if result.capped:
        assert result.next_time == t_u + extrapolator.max_horizon
    if scanned != reference:
        first = min(o for o in (scanned, reference) if o is not None)
        assert abs(margins[first - 1]) <= 1e-12 * max(1.0, delta)
