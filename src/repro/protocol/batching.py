"""Coalesced walk batches: one prefetch serving several queries.

When several continuous queries come due at the same tick, each would
independently launch ``n_q`` sampling walks — yet a uniformly random
tuple serves every query equally well, so one batch of ``max_q n_q``
walks covers them all. :func:`coalesce_demands` folds the per-query
:class:`WalkDemand`\\ s into a :class:`WalkBatchPlan` that knows how many
walks to launch and, for each walk, *which queries consume it* (walk
``i`` feeds every query demanding more than ``i`` samples) — the
attribution carried on shared-walk trace spans so per-query cost
accounting survives the sharing.

These types live at the protocol layer because a batch is a property of
the *walk lifecycle* (how many supervised walks to launch and who reads
their samples), not of any single query's scheduling policy; the session
layer builds plans from its schedulers and hands them down. The
packages :mod:`repro.protocol` and :mod:`repro.core` both export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import QueryError


@dataclass(frozen=True)
class WalkDemand:
    """One query's sample demand at a tick: ``n_samples`` uniform tuples."""

    query: str
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise QueryError(
                f"demand for {self.query!r} must be >= 0, got {self.n_samples}"
            )


@dataclass(frozen=True)
class WalkBatchPlan:
    """A coalesced walk batch serving several queries' demands at once.

    ``demands`` is deterministic (sorted by query id, zero demands
    dropped). Walks are fungible, so the batch needs only the *maximum*
    demand many walks; walk ``i`` (0-based) is consumed by every query
    whose demand exceeds ``i`` — the first ``n_q`` delivered samples go to
    query ``q``, giving maximal overlap between consumers.
    """

    demands: tuple[WalkDemand, ...]

    @property
    def n_walks(self) -> int:
        """Walks the coalesced batch launches (the maximum demand)."""
        return max((d.n_samples for d in self.demands), default=0)

    @property
    def consumers(self) -> tuple[str, ...]:
        """All consuming query ids, in demand order."""
        return tuple(d.query for d in self.demands)

    def consumers_of(self, walk_index: int) -> tuple[str, ...]:
        """Query ids consuming walk ``walk_index`` (0-based)."""
        if not 0 <= walk_index < self.n_walks:
            raise QueryError(
                f"walk index {walk_index} outside batch of {self.n_walks}"
            )
        return tuple(
            d.query for d in self.demands if d.n_samples > walk_index
        )


def coalesce_demands(demands: Iterable[WalkDemand]) -> WalkBatchPlan:
    """Fold per-query demands into one deterministic batch plan.

    Zero demands are dropped; duplicate query ids are rejected (a query
    states its demand once per tick); ordering is by query id so the same
    demands always produce the same plan and trace attribution.
    """
    kept = sorted(
        (d for d in demands if d.n_samples > 0), key=lambda d: d.query
    )
    queries = [d.query for d in kept]
    if len(set(queries)) != len(queries):
        raise QueryError(f"duplicate demand for a query in {queries}")
    return WalkBatchPlan(demands=tuple(kept))
