"""Tests for convergence analysis (Definitions 1-2, Theorem 3)."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.network.graph import OverlayGraph
from repro.network.topology import mesh_topology, power_law_topology, ring_topology
from repro.sampling.metropolis import metropolis_matrix, stationary_distribution
from repro.sampling.mixing import (
    eigengap,
    eigengap_sparse,
    empirical_mixing_time,
    mixing_time_bound,
    relaxation_time,
    sparse_transition_matrix,
    total_variation,
    walk_length_for,
)
from repro.sampling.walker import WalkContext
from repro.sampling.weights import table_weights, uniform_weights


class TestTotalVariation:
    def test_identical(self):
        p = np.array([0.5, 0.5])
        assert total_variation(p, p) == 0.0

    def test_disjoint(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_symmetric(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        assert total_variation(p, q) == total_variation(q, p) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(SamplingError):
            total_variation(np.ones(2) / 2, np.ones(3) / 3)


class TestEigengap:
    def test_identity_has_zero_gap(self):
        assert eigengap(np.eye(3)) == 0.0

    def test_uniform_chain_has_full_gap(self):
        matrix = np.full((4, 4), 0.25)
        assert eigengap(matrix) == pytest.approx(1.0, abs=1e-9)

    def test_two_state_chain(self):
        # P = [[1-a, a], [b, 1-b]]: lambda_2 = 1 - a - b
        a, b = 0.3, 0.2
        matrix = np.array([[1 - a, a], [b, 1 - b]])
        assert eigengap(matrix) == pytest.approx(a + b)

    def test_rejects_non_stochastic(self):
        with pytest.raises(SamplingError):
            eigengap(np.array([[0.5, 0.2], [0.5, 0.5]]))

    def test_rejects_non_square(self):
        with pytest.raises(SamplingError):
            eigengap(np.ones((2, 3)))

    def test_sparse_matches_dense(self):
        graph = OverlayGraph(mesh_topology(36), n_nodes=36)
        # the table weights (0-3) give every fourth node zero weight, so
        # the edge table's w_i = 0 rule meets the scalar reference too
        zeros = table_weights({node: float(node % 4) for node in graph.nodes()})
        for weight in (uniform_weights(), zeros):
            node_ids, dense = metropolis_matrix(graph, weight)
            context = WalkContext.from_graph(graph, weight)
            assert node_ids.tolist() == context.node_ids.tolist()
            sparse = sparse_transition_matrix(context)
            np.testing.assert_allclose(sparse.toarray(), dense, atol=1e-12)
            assert eigengap_sparse(sparse) == pytest.approx(
                eigengap(dense), abs=1e-6
            )

    def test_sparse_larger_graph(self):
        rng = np.random.default_rng(0)
        graph = OverlayGraph(power_law_topology(200, rng=rng), n_nodes=200)
        context = WalkContext.from_graph(graph, uniform_weights())
        sparse = sparse_transition_matrix(context)
        dense_gap = eigengap(sparse.toarray())
        sparse_gap = eigengap_sparse(sparse)
        assert sparse_gap == pytest.approx(dense_gap, rel=1e-3)


class TestBounds:
    def test_mixing_time_bound_formula(self):
        # gap=0.5, p_min=0.1, gamma=0.01 -> ceil(ln(1000)/0.5) = 14
        assert mixing_time_bound(0.5, 0.1, 0.01) == 14

    def test_bound_validation(self):
        with pytest.raises(SamplingError):
            mixing_time_bound(0.0, 0.1, 0.01)
        with pytest.raises(SamplingError):
            mixing_time_bound(0.5, 0.0, 0.01)
        with pytest.raises(SamplingError):
            mixing_time_bound(0.5, 0.1, 1.5)

    def test_relaxation_time(self):
        assert relaxation_time(0.25) == 4
        assert relaxation_time(1.0) == 1
        with pytest.raises(SamplingError):
            relaxation_time(0.0)

    def test_theorem3_bound_dominates_empirical(self):
        """The analytic bound must upper-bound the exact mixing time."""
        for topology in (ring_topology(12), mesh_topology(16)):
            graph = OverlayGraph(topology)
            node_ids, matrix = metropolis_matrix(graph, uniform_weights())
            _, target = stationary_distribution(graph, uniform_weights())
            gamma = 0.05
            empirical = empirical_mixing_time(matrix, target, gamma)
            bound = walk_length_for(matrix, target, gamma)
            assert empirical <= bound

    def test_empirical_mixing_monotone_in_gamma(self):
        graph = OverlayGraph(mesh_topology(16))
        _, matrix = metropolis_matrix(graph, uniform_weights())
        _, target = stationary_distribution(graph, uniform_weights())
        loose = empirical_mixing_time(matrix, target, 0.2)
        tight = empirical_mixing_time(matrix, target, 0.01)
        assert tight >= loose

    def test_empirical_mixing_times_out(self):
        # periodic two-state chain never mixes
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        target = np.array([0.5, 0.5])
        with pytest.raises(SamplingError, match="did not mix"):
            empirical_mixing_time(matrix, target, 0.01, max_steps=50)

    def test_walk_length_rejects_zero_mass_target(self):
        graph = OverlayGraph(ring_topology(4))
        _, matrix = metropolis_matrix(graph, uniform_weights())
        target = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(SamplingError):
            walk_length_for(matrix, target, 0.05)
