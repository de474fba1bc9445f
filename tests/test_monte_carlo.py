"""Tests for the Monte-Carlo RWR estimator."""

import numpy as np
import pytest

from repro import Graph, InvalidParameterError
from repro.approximate.monte_carlo import MonteCarloSolver

from .conftest import exact_rwr


class TestEstimation:
    def test_converges_to_exact_scores(self, small_graph):
        exact = exact_rwr(small_graph, 0.05, 0)
        solver = MonteCarloSolver(n_walks=60_000, seed=1).preprocess(small_graph)
        estimate = solver.query(0)
        # Allow ~5 standard errors entry-wise.
        tolerance = 5 * solver.standard_error(exact) + 1e-4
        assert np.all(np.abs(estimate - exact) <= tolerance)

    def test_error_shrinks_with_walks(self, small_graph):
        exact = exact_rwr(small_graph, 0.05, 2)
        few = MonteCarloSolver(n_walks=500, seed=3).preprocess(small_graph)
        many = MonteCarloSolver(n_walks=50_000, seed=3).preprocess(small_graph)
        err_few = np.linalg.norm(few.query(2) - exact)
        err_many = np.linalg.norm(many.query(2) - exact)
        assert err_many < err_few

    def test_deadend_leak_reproduced(self, small_graph):
        """Walk absorption at deadends matches the linear system's mass leak."""
        exact_total = exact_rwr(small_graph, 0.05, 0).sum()
        solver = MonteCarloSolver(n_walks=40_000, seed=5).preprocess(small_graph)
        estimated_total = solver.query(0).sum()
        assert estimated_total == pytest.approx(exact_total, abs=0.02)
        assert estimated_total < 1.0

    def test_scores_sum_near_one_without_deadends(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        solver = MonteCarloSolver(n_walks=20_000, seed=7).preprocess(g)
        assert solver.query(0).sum() == pytest.approx(1.0, abs=0.01)

    def test_seed_node_has_at_least_restart_mass(self, small_graph):
        solver = MonteCarloSolver(n_walks=30_000, seed=9).preprocess(small_graph)
        seed = int(np.flatnonzero(~small_graph.deadend_mask())[0])
        scores = solver.query(seed)
        # The surfer stops at step 0 with probability c.
        assert scores[seed] >= 0.05 - 0.01


class TestInterface:
    def test_deterministic_given_seed(self, small_graph):
        a = MonteCarloSolver(n_walks=2000, seed=11).preprocess(small_graph)
        b = MonteCarloSolver(n_walks=2000, seed=11).preprocess(small_graph)
        assert np.array_equal(a.query(0), b.query(0))

    def test_different_rng_seed_differs(self, small_graph):
        a = MonteCarloSolver(n_walks=2000, seed=11).preprocess(small_graph)
        b = MonteCarloSolver(n_walks=2000, seed=12).preprocess(small_graph)
        assert not np.array_equal(a.query(0), b.query(0))

    def test_no_preprocessed_memory(self, small_graph):
        solver = MonteCarloSolver(n_walks=100).preprocess(small_graph)
        assert solver.memory_bytes() == 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloSolver(n_walks=0)
        with pytest.raises(InvalidParameterError):
            MonteCarloSolver(max_steps=0)

    def test_zero_mass_query_rejected(self, small_graph):
        solver = MonteCarloSolver(n_walks=100).preprocess(small_graph)
        with pytest.raises(InvalidParameterError):
            solver.query_vector(np.zeros(small_graph.n_nodes))

    def test_standard_error_shape(self, small_graph):
        solver = MonteCarloSolver(n_walks=100).preprocess(small_graph)
        scores = solver.query(0)
        se = solver.standard_error(scores)
        assert se.shape == scores.shape
        assert np.all(se >= 0)

    def test_all_deadends_graph(self):
        g = Graph.empty(3)
        solver = MonteCarloSolver(n_walks=5000, seed=1).preprocess(g)
        scores = solver.query(1)
        # Only the step-0 stop contributes: r[1] ~= c.
        assert scores[1] == pytest.approx(0.05, abs=0.02)
        assert scores[0] == 0.0

