"""Threshold monitoring with statistical confidence.

The paper's second motivating query — "notify me whenever the total
amount of available memory is more than 4GB" — is a *threshold* query: the
user cares about crossings, not values. Naively comparing each estimate
against the threshold flaps whenever the truth is within the estimate's
noise band. :class:`ThresholdMonitor` does it properly:

* a crossing is declared only when the estimate's confidence interval
  ``estimate ± z_p sqrt(var)`` lies entirely on one side of the threshold
  — otherwise the state is *uncertain* and the previous declared state
  holds (statistical hysteresis);
* an optional margin adds deterministic hysteresis on top for
  applications that want a dead band.

Feed it snapshot estimates (e.g. from ``DigestSession.step``); it fires a
callback on every *declared* state change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.snapshot import SnapshotEstimate
from repro.errors import QueryError


class ThresholdState(enum.Enum):
    """Declared relation of the aggregate to the threshold."""

    UNKNOWN = "unknown"
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class ThresholdEvent:
    """One declared state change."""

    time: int
    state: ThresholdState
    estimate: float
    half_width: float  # confidence half width at declaration


class ThresholdMonitor:
    """Confidence-gated threshold crossing detector.

    Parameters
    ----------
    threshold:
        The aggregate-level threshold (same units as the query result).
    confidence:
        Confidence level of the declaration test (a crossing is declared
        when the CI at this level clears the threshold).
    margin:
        Optional extra dead band: the CI must clear ``threshold ± margin``
        to flip the state.
    callback:
        Called with a :class:`ThresholdEvent` on every declared change.
    """

    def __init__(
        self,
        threshold: float,
        confidence: float = 0.95,
        margin: float = 0.0,
        callback: Callable[[ThresholdEvent], None] | None = None,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise QueryError(f"confidence must be in (0, 1), got {confidence}")
        if margin < 0:
            raise QueryError(f"margin must be >= 0, got {margin}")
        self.threshold = threshold
        self.confidence = confidence
        self.margin = margin
        self._callback = callback
        self.state = ThresholdState.UNKNOWN
        self.events: list[ThresholdEvent] = []
        self.estimates_seen = 0
        self.uncertain_estimates = 0

    def offer(self, estimate: SnapshotEstimate) -> ThresholdState:
        """Feed a snapshot estimate; returns the (possibly new) state.

        The interval is the estimate's own aggregate-unit half width: the
        mean estimator's variance scaled by ``estimate.scale``.
        """
        self.estimates_seen += 1
        half_width = estimate.half_width(self.confidence)
        low = estimate.aggregate - half_width
        high = estimate.aggregate + half_width
        if low > self.threshold + self.margin:
            decided = ThresholdState.ABOVE
        elif high < self.threshold - self.margin:
            decided = ThresholdState.BELOW
        else:
            self.uncertain_estimates += 1
            return self.state  # uncertain: hold the declared state
        if decided is not self.state:
            self.state = decided
            event = ThresholdEvent(
                time=estimate.time,
                state=decided,
                estimate=estimate.aggregate,
                half_width=half_width,
            )
            self.events.append(event)
            if self._callback is not None:
                self._callback(event)
        return self.state
