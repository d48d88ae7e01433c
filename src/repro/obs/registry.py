"""Deterministic histograms for trace analysis.

A :class:`Histogram` uses *fixed, explicit bucket boundaries* — never
quantile sketches or adaptive buckets — so two runs observing the same
values produce identical bucket counts, which the trace round-trip and
determinism tests rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Default buckets for simulated-time durations (ticks). Chosen to cover
#: one hop (1) through a long supervised walk with retries (~1000).
DEFAULT_DURATION_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
)


@dataclass
class Histogram:
    """Fixed-boundary histogram.

    ``boundaries`` are strictly increasing upper bounds; an observation
    ``v`` lands in the first bucket with ``v <= bound``, and anything
    above the last bound lands in the implicit overflow bucket, so
    ``counts`` has ``len(boundaries) + 1`` entries. ``total`` and
    ``count`` allow exact mean reconstruction without per-sample storage.
    """

    name: str
    boundaries: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ValueError(f"histogram {self.name!r} needs >= 1 boundary")
        if any(
            b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])
        ):
            raise ValueError(
                f"histogram {self.name!r} boundaries must be strictly "
                f"increasing, got {self.boundaries}"
            )
        if not self.counts:
            self.counts = [0] * (len(self.boundaries) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def bucket_labels(self) -> list[str]:
        """Human-readable per-bucket range labels (upper-bound inclusive)."""
        labels = [f"<= {self.boundaries[0]:g}"]
        for low, high in zip(self.boundaries, self.boundaries[1:]):
            labels.append(f"({low:g}, {high:g}]")
        labels.append(f"> {self.boundaries[-1]:g}")
        return labels
