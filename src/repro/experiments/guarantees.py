"""Statistical validation of the fixed-precision guarantees.

The paper *defines* the semantics (Section II) but never directly
measures them; a credible reproduction should. Two checks:

* **confidence coverage** — at each executed snapshot query,
  ``|X_hat - X| <= epsilon`` must hold with probability >= ``p``.
  Measured as the empirical hit rate over many snapshot queries across
  independent trials.
* **resolution adherence** — between updates the held result must not
  silently drift: we measure the fraction of *skipped* steps where the
  true aggregate had moved more than ``delta + epsilon`` away from the
  held estimate (the natural combined tolerance: delta for the resolution
  filter, epsilon for the estimate's own error). Extrapolation is
  predictive, so a small violation rate is inherent; it should stay small
  and shrink as the safety factor grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.query import Precision
from repro.core.session import DigestSession, EngineConfig
from repro.experiments.harness import (
    build_instance,
    canonical_query,
    make_engine,
    pick_origin,
)
from repro.experiments.report import format_table
from repro.obs.console import emit


@dataclass
class CoverageResult:
    dataset: str
    evaluator: str
    epsilon: float
    confidence: float
    snapshots: int
    hits: int

    @property
    def coverage(self) -> float:
        return self.hits / self.snapshots if self.snapshots else 0.0

    def to_table(self) -> str:
        return format_table(
            ["quantity", "value"],
            [
                ["snapshot queries", self.snapshots],
                ["within epsilon", self.hits],
                ["empirical coverage", self.coverage],
                ["required confidence p", self.confidence],
            ],
            title=(
                f"Confidence coverage ({self.dataset}, {self.evaluator}, "
                f"epsilon={self.epsilon:g})"
            ),
        )


def coverage(
    dataset: str = "temperature",
    evaluator: str = "repeated",
    scale: float = 0.08,
    epsilon_ratio: float = 0.25,
    confidence: float = 0.95,
    trials: int = 5,
    steps_per_trial: int = 30,
    seed: int = 0,
) -> CoverageResult:
    """Empirical ``(epsilon, p)`` coverage over many snapshot queries."""
    probe = build_instance(dataset, scale, seed)
    sigma = probe.config.expected_sigma  # type: ignore[attr-defined]
    epsilon = epsilon_ratio * sigma
    precision = Precision(delta=sigma, epsilon=epsilon, confidence=confidence)
    snapshots = hits = 0
    for trial in range(trials):
        instance = build_instance(dataset, scale, seed + 100 * trial)
        origin = pick_origin(instance, seed + trial)
        session = make_engine(
            instance, precision, "all", evaluator, origin, seed + trial
        )
        for time in range(min(steps_per_trial, instance.n_steps)):
            instance.step(time)
            session.step(time, truth=lambda _: instance.true_average())
        judged = session.auditor.coverage()
        snapshots += judged.answers
        hits += judged.within
    return CoverageResult(
        dataset=dataset,
        evaluator=evaluator,
        epsilon=epsilon,
        confidence=confidence,
        snapshots=snapshots,
        hits=hits,
    )


@dataclass
class ResolutionResult:
    dataset: str
    delta: float
    epsilon: float
    safety_factor: float
    skipped_steps: int
    violations: int
    snapshot_queries: int
    total_steps: int

    @property
    def violation_rate(self) -> float:
        return self.violations / self.skipped_steps if self.skipped_steps else 0.0

    def to_table(self) -> str:
        return format_table(
            ["quantity", "value"],
            [
                ["total steps", self.total_steps],
                ["snapshot queries", self.snapshot_queries],
                ["skipped steps", self.skipped_steps],
                ["drift violations", self.violations],
                ["violation rate", self.violation_rate],
            ],
            title=(
                f"Resolution adherence ({self.dataset}, delta={self.delta:g}, "
                f"safety={self.safety_factor:g})"
            ),
        )


def resolution(
    dataset: str = "temperature",
    scale: float = 0.08,
    delta_ratio: float = 1.0,
    epsilon_ratio: float = 0.25,
    safety_factor: float = 1.0,
    seed: int = 0,
    n_steps: int | None = None,
) -> ResolutionResult:
    """Drift-violation rate of PRED-3 on skipped steps."""
    instance = build_instance(dataset, scale, seed)
    sigma = instance.config.expected_sigma  # type: ignore[attr-defined]
    delta = delta_ratio * sigma
    epsilon = epsilon_ratio * sigma
    precision = Precision(delta=delta, epsilon=epsilon, confidence=0.95)
    session = DigestSession(
        instance.graph,
        instance.database,
        pick_origin(instance, seed),
        np.random.default_rng(seed + 1),
    )
    query_id = session.add_query(
        canonical_query(instance, precision),
        config=EngineConfig(
            scheduler="pred",
            evaluator="repeated",
            safety_factor=safety_factor,
        ),
    )
    result = session.runtime(query_id).result
    steps = n_steps if n_steps is not None else instance.n_steps
    skipped = 0
    violations = 0
    for time in range(steps):
        instance.step(time)
        if query_id not in session.step(time) and len(result):
            skipped += 1
            truth = instance.true_average()
            held = result.value_at(time)
            if abs(truth - held) > delta + epsilon:
                violations += 1
    return ResolutionResult(
        dataset=dataset,
        delta=delta,
        epsilon=epsilon,
        safety_factor=safety_factor,
        skipped_steps=skipped,
        violations=violations,
        snapshot_queries=session.metrics.snapshot_queries,
        total_steps=steps,
    )


def main() -> int:
    for evaluator in ("independent", "repeated"):
        emit(coverage(evaluator=evaluator).to_table())
        emit()
    for safety in (1.0, 2.0):
        emit(resolution(safety_factor=safety).to_table())
        emit()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
