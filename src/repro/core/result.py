"""The running result ``X_hat[t]`` of a continuous query.

Between updates the estimate *holds* its last value (Section II's "holding"
semantics): ``X_hat[t] = X_hat[t_u]`` for ``t in (t_u, t_{u+1})``. The
record keeps every update so experiments can compare the estimated
trajectory against the oracle trajectory at any time.

:class:`NotificationFilter` implements the user-facing semantics of the
paper's motivating queries ("notify me whenever the average temperature
changes more than 2F"): it turns the stream of result updates into
notifications fired only when the result has moved by at least ``delta``
since the last notification — the false-alarm suppression Section II
attributes to the ``delta`` parameter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class UpdateRecord:
    """One result update: when, the estimate, and how many samples it cost.

    ``original_estimate`` differs from ``estimate`` only when forward
    regression retrospectively revised this record (see
    :mod:`repro.core.forward`); it preserves the value as first published.
    """

    time: int
    estimate: float
    n_samples: int = 0
    n_fresh: int = 0
    original_estimate: float | None = None

    @property
    def was_revised(self) -> bool:
        return (
            self.original_estimate is not None
            and self.original_estimate != self.estimate
        )


class NotificationFilter:
    """Delta-threshold notifications over a stream of result updates.

    Fires ``callback(record)`` on the first update seen and then whenever
    the estimate has moved by at least ``delta`` since the last *fired*
    notification. This is the user-visible behavior of the paper's
    "notify me whenever ... changes more than delta" queries; smaller
    result wobbles (within the query's own epsilon, say) never reach the
    user.
    """

    def __init__(self, delta: float, callback: Callable[[UpdateRecord], None]) -> None:
        if delta < 0:
            raise QueryError(f"delta must be >= 0, got {delta}")
        self._delta = delta
        self._callback = callback
        self._last_notified: float | None = None
        self.notifications_fired = 0
        self.updates_seen = 0

    def offer(self, record: UpdateRecord) -> bool:
        """Feed one update; returns True when a notification fired."""
        self.updates_seen += 1
        if (
            self._last_notified is not None
            and abs(record.estimate - self._last_notified) < self._delta
        ):
            return False
        self._last_notified = record.estimate
        self.notifications_fired += 1
        self._callback(record)
        return True


class RunningResult:
    """Piecewise-constant estimated aggregate trajectory."""

    def __init__(self) -> None:
        self._times: list[int] = []
        self._updates: list[UpdateRecord] = []

    def update(self, record: UpdateRecord) -> None:
        """Append an update (times must be strictly increasing)."""
        if self._times and record.time <= self._times[-1]:
            raise QueryError(
                f"updates must have increasing times; got {record.time} "
                f"after {self._times[-1]}"
            )
        self._times.append(record.time)
        self._updates.append(record)

    def __len__(self) -> int:
        return len(self._updates)

    @property
    def updates(self) -> list[UpdateRecord]:
        return list(self._updates)

    @property
    def update_times(self) -> list[int]:
        return list(self._times)

    def value_at(self, time: int) -> float:
        """Hold semantics: the most recent estimate at or before ``time``."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            raise QueryError(
                f"no estimate at time {time}; first update is at "
                f"{self._times[0] if self._times else 'never'}"
            )
        return self._updates[index].estimate

    def trajectory(self, times: list[int] | np.ndarray) -> np.ndarray:
        """Vector of held values at each requested time."""
        return np.array([self.value_at(int(t)) for t in times], dtype=float)

    def last(self) -> UpdateRecord:
        if not self._updates:
            raise QueryError("no updates recorded yet")
        return self._updates[-1]

    def amend(self, time: int, revised_estimate: float) -> None:
        """Retrospectively revise the record at ``time`` (forward regression).

        The original value is preserved in ``original_estimate``; hold
        semantics afterwards serve the revised value.
        """
        index = bisect.bisect_left(self._times, time)
        if index >= len(self._times) or self._times[index] != time:
            raise QueryError(f"no update recorded at time {time}")
        record = self._updates[index]
        original = (
            record.original_estimate
            if record.original_estimate is not None
            else record.estimate
        )
        self._updates[index] = UpdateRecord(
            time=record.time,
            estimate=revised_estimate,
            n_samples=record.n_samples,
            n_fresh=record.n_fresh,
            original_estimate=original,
        )
