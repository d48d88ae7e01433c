"""Metropolis forwarding probabilities (Section V-A, Eq. 12).

The Metropolis construction turns a uniform neighbor proposal into a walk
whose stationary distribution matches an arbitrary target ``p_v ~ w_v``:

* at node ``i``, propose a uniformly random neighbor ``j`` (probability
  ``1/d_i``);
* accept the move with probability ``min(1, (w_j * d_i) / (w_i * d_j))``;
* a laziness factor of 1/2 (stay put with probability 1/2 before anything
  else) makes the chain aperiodic on any graph, bipartite or not.

So the off-diagonal forwarding probability is::

    P_ij = (1/2) * (1/d_i) * min(1, (w_j * d_i) / (w_i * d_j))
         = (1/2) * min(1/d_i, w_j / (w_i * d_j))

and ``P_ii`` absorbs the rest. Detailed balance ``p_i P_ij = p_j P_ji``
holds because ``w_i * min(1/d_i, w_j/(w_i d_j)) = min(w_i/d_i, w_j/d_j)``
is symmetric in ``(i, j)``; combined with irreducibility (the proposal
graph is the connected overlay) and aperiodicity (laziness), Theorem 1
gives convergence to ``p_v`` from any start.

Only the ratio ``w_j / w_i`` enters ``P_ij`` — each node computes its
forwarding row from its neighbors' advertised weights, with no global
normalization (the property the paper emphasizes).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError, TopologyError
from repro.network.graph import OverlayGraph
from repro.sampling.weights import WeightFunction, validate_weights


def acceptance_probability(
    weight_i: float, degree_i: int, weight_j: float, degree_j: int
) -> float:
    """Metropolis acceptance ``min(1, (w_j * d_i) / (w_i * d_j))``.

    A zero-weight current node accepts every proposal (the walk should
    leave a state the target assigns no mass) — the limit of the ratio as
    ``w_i -> 0``.
    """
    if degree_i < 1 or degree_j < 1:
        raise SamplingError(
            f"degrees must be positive (got d_i={degree_i}, d_j={degree_j})"
        )
    if weight_i < 0 or weight_j < 0:
        raise SamplingError(
            f"weights must be non-negative (got w_i={weight_i}, w_j={weight_j})"
        )
    return unchecked_acceptance(weight_i, degree_i, weight_j, degree_j)


def unchecked_acceptance(
    weight_i: float, degree_i: int, weight_j: float, degree_j: int
) -> float:
    """:func:`acceptance_probability` without its argument checks.

    For callers whose arguments are valid by construction and that must
    not raise: the protocol's delivery handlers (digest-lint DGL013).
    """
    if weight_i == 0.0:
        return 1.0
    return min(1.0, (weight_j * degree_i) / (weight_i * degree_j))


def metropolis_matrix(
    graph: OverlayGraph,
    weight: WeightFunction,
    laziness: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense forwarding matrix ``P`` for analysis and testing.

    Returns ``(node_ids, P)`` where ``P[a, b]`` is the transition
    probability from ``node_ids[a]`` to ``node_ids[b]``. Dense is fine at
    the scales the experiments use (hundreds to a few thousand nodes); the
    walker never materializes this matrix.

    ``laziness`` is the self-loop mass added for aperiodicity; the paper
    uses 1/2. ``laziness=0`` is allowed for ablation (beware bipartite
    graphs).
    """
    if not 0.0 <= laziness < 1.0:
        raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
    node_ids = np.array(graph.nodes(), dtype=np.int64)
    if node_ids.size == 0:
        raise TopologyError("cannot build a transition matrix on an empty graph")
    validate_weights(weight, node_ids.tolist())
    index_of = {int(node): a for a, node in enumerate(node_ids)}
    n = node_ids.size
    matrix = np.zeros((n, n), dtype=float)
    move_mass = 1.0 - laziness
    for a, node in enumerate(node_ids):
        i = int(node)
        degree_i = graph.degree(i)
        weight_i = weight(i)
        if degree_i == 0:
            matrix[a, a] = 1.0
            continue
        proposal = move_mass / degree_i
        for j in graph.neighbors(i):
            accept = acceptance_probability(
                weight_i, degree_i, weight(j), graph.degree(j)
            )
            matrix[a, index_of[j]] = proposal * accept
        matrix[a, a] = 1.0 - matrix[a].sum()
    return node_ids, matrix


def stationary_distribution(
    graph: OverlayGraph, weight: WeightFunction
) -> tuple[np.ndarray, np.ndarray]:
    """Target distribution ``p_v = w_v / sum_u w_u`` over the live nodes.

    Returns ``(node_ids, probabilities)`` aligned with
    :func:`metropolis_matrix`'s ordering.
    """
    node_ids = np.array(graph.nodes(), dtype=np.int64)
    weights = np.array([weight(int(node)) for node in node_ids], dtype=float)
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise SamplingError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise SamplingError("all node weights are zero")
    return node_ids, weights / total
