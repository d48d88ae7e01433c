"""Session-based churn for the overlay.

The MEMORY workload (SETI@HOME-like) exhibits frequent node join/leave
(Section VI-A), while the TEMPERATURE network is "almost stable". The churn
process here is memoryless per step: each live, unprotected node departs
with probability ``leave_probability`` and a Poisson number of new nodes
(mean ``join_rate``) arrive and bootstrap-link to ``n_links`` random peers.

The paper's sampling analysis assumes the overlay is effectively static
*within* one sampling occasion (Section II); the simulation honors that by
applying churn only between discrete time steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.graph import OverlayGraph


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the per-step churn process.

    ``leave_probability`` is the chance each unprotected node departs in a
    step; ``join_rate`` is the expected number of arrivals per step;
    ``n_links`` is how many bootstrap links each arrival opens; with
    ``rewire=True`` departures stitch their neighbors together so the
    overlay stays connected.
    """

    leave_probability: float = 0.0
    join_rate: float = 0.0
    n_links: int = 2
    rewire: bool = True
    min_nodes: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.leave_probability <= 1.0:
            raise ValueError(
                f"leave_probability must be in [0, 1], got {self.leave_probability}"
            )
        if self.join_rate < 0:
            raise ValueError(f"join_rate must be >= 0, got {self.join_rate}")
        if self.n_links < 1:
            raise ValueError(f"n_links must be >= 1, got {self.n_links}")
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")


@dataclass
class ChurnEvent:
    """Outcome of one churn step: ids that joined and ids that left."""

    joined: list[int] = field(default_factory=list)
    left: list[int] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.joined and not self.left


class ChurnProcess:
    """Applies :class:`ChurnConfig` dynamics to an :class:`OverlayGraph`.

    ``protected`` nodes (typically the querying node) never leave. The
    process refuses to shrink the overlay below ``config.min_nodes``.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        config: ChurnConfig,
        rng: np.random.Generator,
        protected: set[int] | None = None,
    ) -> None:
        self._graph = graph
        self._config = config
        self._rng = rng
        self._protected = set(protected or ())

    @property
    def protected(self) -> set[int]:
        return set(self._protected)

    def protect(self, node: int) -> None:
        """Exempt ``node`` from departures."""
        self._protected.add(node)

    def step(self) -> ChurnEvent:
        """Run one churn round and return what changed."""
        event = ChurnEvent()
        config = self._config
        if config.leave_probability > 0.0:
            candidates = np.fromiter(
                self._graph.nodes(), dtype=np.int64, count=len(self._graph)
            )
            candidates = candidates[
                ~np.isin(candidates, np.fromiter(self._protected, np.int64))
            ]
            if candidates.size:
                draws = self._rng.random(candidates.size)
                leavers: list[int] = candidates[
                    draws < config.leave_probability
                ].tolist()
                headroom = len(self._graph) - config.min_nodes
                if 0 <= headroom < len(leavers):
                    # the min_nodes cap truncates the leaver list; shuffle
                    # (seeded) first so survival is not biased toward the
                    # high node ids that sort to the back of the candidates
                    order = self._rng.permutation(len(leavers))
                    leavers = [leavers[int(i)] for i in order]
                for node in leavers[: max(0, headroom)]:
                    self._graph.leave(node, rewire=config.rewire)
                    event.left.append(node)
        if config.join_rate > 0.0:
            arrivals = int(self._rng.poisson(config.join_rate))
            for _ in range(arrivals):
                node = self._graph.join(n_links=config.n_links, rng=self._rng)
                event.joined.append(node)
        return event
