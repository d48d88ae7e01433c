"""Importance-sampling alternative to Metropolis targeting.

Why does Digest bias the walk *itself* (Metropolis, Section V) instead of
running a plain random walk and re-weighting the samples? This module
implements that alternative so the question is answerable empirically:

* a plain (lazy) random walk has stationary distribution proportional to
  node degree ``d_v``;
* two-stage sampling through it reaches tuple ``u`` at node ``v`` with
  probability proportional to ``d_v / m_v``;
* the self-normalized importance-sampling (Hansen-Hurwitz style) mean
  estimator corrects with weights ``w = m_v / d_v``::

      R_hat = sum(w_i * y_i) / sum(w_i)

The correction needs no global normalizer (that is why it is the fair
comparison — an exact Hansen-Hurwitz estimator would need ``sum_v d_v``),
but it is only *asymptotically* unbiased and its variance inflates with
the spread of the weights — precisely when content sizes are skewed
against degrees, the regime unstructured P2P databases live in. The
ablation (:func:`repro.experiments.ablations.importance_sampling_ablation`)
quantifies the gap against Metropolis two-stage sampling at equal sample
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.expression import Expression
from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import degree_weights


@dataclass(frozen=True)
class WeightedSample:
    """A tuple sample with its importance weight ``m_v / d_v``."""

    tuple_id: int
    node: int
    value: float
    weight: float


class ImportanceSampler:
    """Plain-random-walk tuple sampling with self-normalized reweighting."""

    def __init__(
        self,
        graph: OverlayGraph,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        walk_length: int = 80,
        laziness: float = 0.5,
    ) -> None:
        if walk_length < 1:
            raise SamplingError(f"walk_length must be >= 1, got {walk_length}")
        self._graph = graph
        self._rng = rng
        self._ledger = ledger
        self._walk_length = walk_length
        self._laziness = laziness

    def sample_weighted_tuples(
        self,
        database: P2PDatabase,
        expression: Expression,
        n: int,
        origin: int,
        max_retries: int = 8,
    ) -> list[WeightedSample]:
        """Draw ``n`` weighted tuple samples via plain random walks."""
        if n <= 0:
            raise SamplingError(f"need n >= 1 samples, got {n}")
        if origin not in self._graph:
            raise SamplingError(f"origin {origin} is not in the overlay")
        context = WalkContext.from_graph(self._graph, degree_weights(self._graph))
        samples: list[WeightedSample] = []
        need = n
        for _ in range(max_retries):
            if need == 0:
                break
            starts = np.full(need, context.compact_index(origin), dtype=np.int64)
            ends, _ = batch_walk(
                context,
                starts,
                self._walk_length,
                self._rng,
                self._ledger,
                self._laziness,
            )
            for end in ends:
                node = int(context.node_ids[end])
                store = database.store(node)
                if len(store) == 0:
                    continue  # plain walks do land on empty nodes
                tuple_id = store.sample_uniform(self._rng)
                samples.append(
                    WeightedSample(
                        tuple_id=tuple_id,
                        node=node,
                        value=expression.evaluate(database.read(tuple_id)),
                        weight=len(store) / self._graph.degree(node),
                    )
                )
            need = n - len(samples)
        if need > 0:
            raise SamplingError(
                f"failed to draw {n} weighted tuples after {max_retries} "
                f"rounds ({len(samples)} drawn)"
            )
        return samples


def self_normalized_mean(samples: list[WeightedSample]) -> float:
    """``sum(w y) / sum(w)`` — the SNIS estimate of the tuple mean."""
    if not samples:
        raise SamplingError("cannot estimate from zero samples")
    total_weight = sum(s.weight for s in samples)
    if total_weight <= 0:
        raise SamplingError("all importance weights are zero")
    return sum(s.weight * s.value for s in samples) / total_weight


def effective_sample_size(samples: list[WeightedSample]) -> float:
    """Kish effective sample size ``(sum w)^2 / sum(w^2)``.

    Measures how much the weight spread has cost: equals ``n`` for
    uniform weights and collapses toward 1 when a few samples dominate.
    """
    if not samples:
        raise SamplingError("cannot compute ESS of zero samples")
    weights = np.array([s.weight for s in samples])
    total = weights.sum()
    if total <= 0:
        raise SamplingError("all importance weights are zero")
    return float(total**2 / (weights**2).sum())
