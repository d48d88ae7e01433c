"""Convergence analysis for the sampling walk (Section V-B).

Implements the quantities of Definitions 1-2 and Theorems 3-4:

* :func:`total_variation` — the total-variation difference
  ``||pi_t, p|| = (1/2) * sum_i |pi_t(i) - p(i)||``;
* :func:`eigengap` — ``theta_P = 1 - |lambda_2|`` of the forwarding matrix;
* :func:`mixing_time_bound` — Theorem 3's bound
  ``tau(gamma) <= theta^-1 * log((p_min * gamma)^-1)``;
* :func:`empirical_mixing_time` — exact mixing time by power iteration of
  the worst-case start distribution (feasible at experiment scales);
* :func:`relaxation_time` — ``1/theta``, used as the *reset time* between
  successive samples taken from a continued walk (Section VI-A).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from repro.errors import SamplingError
from repro.sampling.walker import WalkContext


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance ``(1/2) * ||p - q||_1`` between distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SamplingError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def eigengap(transition_matrix: np.ndarray) -> float:
    """Spectral gap ``1 - |lambda_2|`` of a row-stochastic matrix.

    Uses a dense eigendecomposition; the experiment-scale matrices are at
    most a few thousand rows. For a lazy reversible chain all eigenvalues
    are real and lie in ``[0, 1]``, but we take magnitudes to stay correct
    for non-lazy (possibly periodic) variants used in ablations.
    """
    matrix = np.asarray(transition_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SamplingError(f"transition matrix must be square, got {matrix.shape}")
    rows = matrix.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-8):
        raise SamplingError("matrix rows must sum to 1")
    eigenvalues = scipy.linalg.eigvals(matrix)
    magnitudes = np.sort(np.abs(eigenvalues))[::-1]
    if magnitudes.size < 2:
        return 1.0
    # magnitudes[0] is the Perron eigenvalue 1 (up to numerical noise)
    return float(max(0.0, 1.0 - magnitudes[1]))


def mixing_time_bound(
    gap: float, p_min: float, gamma: float
) -> int:
    """Theorem 3: ``tau(gamma) <= gap^-1 * log(1 / (p_min * gamma))``.

    Returns the bound rounded up to an integer step count.
    """
    if not 0.0 < gap <= 1.0:
        raise SamplingError(f"eigengap must be in (0, 1], got {gap}")
    if not 0.0 < p_min <= 1.0:
        raise SamplingError(f"p_min must be in (0, 1], got {p_min}")
    if not 0.0 < gamma < 1.0:
        raise SamplingError(f"gamma must be in (0, 1), got {gamma}")
    return max(1, int(math.ceil(math.log(1.0 / (p_min * gamma)) / gap)))


def relaxation_time(gap: float) -> int:
    """``ceil(1/theta)`` — the reset time for continued walks."""
    if not 0.0 < gap <= 1.0:
        raise SamplingError(f"eigengap must be in (0, 1], got {gap}")
    return max(1, int(math.ceil(1.0 / gap)))


def empirical_mixing_time(
    transition_matrix: np.ndarray,
    target: np.ndarray,
    gamma: float,
    max_steps: int = 100_000,
) -> int:
    """Exact mixing time by iterating the worst-case point-mass start.

    For a reversible chain the slowest-converging start is a point mass, so
    we iterate all point-mass rows at once (matrix powers) and report the
    first ``t`` with ``max_i ||e_i P^t - target|| <= gamma`` — matching
    Definition 2's worst-case-over-starts semantics.
    """
    matrix = np.asarray(transition_matrix, dtype=float)
    target = np.asarray(target, dtype=float)
    if not 0.0 < gamma < 1.0:
        raise SamplingError(f"gamma must be in (0, 1), got {gamma}")
    if matrix.shape[0] != target.size:
        raise SamplingError(
            f"target size {target.size} does not match matrix {matrix.shape}"
        )
    power = np.eye(matrix.shape[0])
    for step in range(1, max_steps + 1):
        power = power @ matrix
        worst = 0.5 * np.abs(power - target[None, :]).sum(axis=1).max()
        if worst <= gamma:
            return step
    raise SamplingError(
        f"chain did not mix to gamma={gamma} within {max_steps} steps"
    )


def sparse_transition_matrix(
    context: WalkContext, laziness: float = 0.5
) -> scipy.sparse.csr_matrix:
    """Metropolis forwarding matrix in CSR form from a walk snapshot.

    Vectorized equivalent of :func:`repro.sampling.metropolis.metropolis_matrix`
    for large overlays: the off-diagonal entry of edge ``e`` leaving ``i``
    is ``(1 - laziness) / d_i * context.accept[e]``, and the diagonal
    absorbs the rest of each row. The context has already rejected
    isolated nodes.
    """
    if not 0.0 <= laziness < 1.0:
        raise SamplingError(f"laziness must be in [0, 1), got {laziness}")
    n = context.n_nodes
    source = np.repeat(np.arange(n, dtype=np.int64), context.degrees)
    values = (1.0 - laziness) / context.degrees[source] * context.accept
    matrix = scipy.sparse.csr_matrix(
        (values, context.targets, context.offsets), shape=(n, n)
    )
    diagonal = 1.0 - np.asarray(matrix.sum(axis=1)).ravel()
    return matrix + scipy.sparse.diags(diagonal)


def eigengap_sparse(transition_matrix: scipy.sparse.spmatrix) -> float:
    """Spectral gap of a sparse row-stochastic matrix via Lanczos/Arnoldi.

    Falls back to the dense path when the iterative solver fails to
    converge (small or ill-conditioned chains).
    """
    n = transition_matrix.shape[0]
    if n <= 64:
        return eigengap(np.asarray(transition_matrix.todense()))
    try:
        eigenvalues = scipy.sparse.linalg.eigs(
            transition_matrix.astype(float),
            k=2,
            which="LM",
            return_eigenvectors=False,
            maxiter=5000,
            tol=1e-8,
        )
        magnitudes = np.sort(np.abs(eigenvalues))[::-1]
        second = min(magnitudes[1], 1.0)
        return float(max(0.0, 1.0 - second))
    except (scipy.sparse.linalg.ArpackNoConvergence, RuntimeError):
        return eigengap(np.asarray(transition_matrix.todense()))


def walk_length_for(
    transition_matrix: np.ndarray,
    target: np.ndarray,
    gamma: float,
) -> int:
    """Walk length satisfying ``||pi_t, p|| <= gamma`` via Theorem 3.

    Computes the eigengap of ``transition_matrix`` and applies the bound
    with ``p_min = min(target)``. This is what the sampling operator uses
    when asked for an analytically guaranteed walk length.
    """
    gap = eigengap(transition_matrix)
    if gap <= 0.0:
        raise SamplingError("zero eigengap: the chain does not converge")
    p_min = float(np.min(target))
    if p_min <= 0.0:
        raise SamplingError("target assigns zero mass to some node")
    return mixing_time_bound(gap, p_min, gamma)
