"""Tests for the BePI solver family (Algorithms 1-4)."""

import numpy as np
import pytest

from repro import (
    BePI,
    BePIB,
    BePIS,
    Graph,
    InvalidParameterError,
    NotPreprocessedError,
    generate_bipartite,
)

from .conftest import exact_rwr


class TestCorrectness:
    @pytest.mark.parametrize("cls", [BePI, BePIS, BePIB])
    def test_matches_exact_solution(self, medium_graph, cls):
        solver = cls(c=0.05, tol=1e-12).preprocess(medium_graph)
        for seed in (0, 7, 100):
            scores = solver.query(seed)
            assert np.allclose(scores, exact_rwr(medium_graph, 0.05, seed), atol=1e-8)

    @pytest.mark.parametrize("c", [0.05, 0.15, 0.5, 0.85])
    def test_various_restart_probabilities(self, small_graph, c):
        solver = BePI(c=c, tol=1e-12).preprocess(small_graph)
        scores = solver.query(1)
        assert np.allclose(scores, exact_rwr(small_graph, c, 1), atol=1e-8)

    def test_query_vector_linearity(self, small_graph):
        """RWR is linear in q: r(a q1 + b q2) = a r(q1) + b r(q2)."""
        solver = BePI(tol=1e-12).preprocess(small_graph)
        n = small_graph.n_nodes
        q1 = np.zeros(n)
        q1[0] = 1.0
        q2 = np.zeros(n)
        q2[3] = 1.0
        combined = solver.query_vector(0.3 * q1 + 0.7 * q2).scores
        separate = 0.3 * solver.query(0) + 0.7 * solver.query(3)
        assert np.allclose(combined, separate, atol=1e-8)

    def test_scores_nonnegative(self, medium_graph):
        solver = BePI(tol=1e-11).preprocess(medium_graph)
        scores = solver.query(5)
        assert (scores >= -1e-9).all()

    def test_deadend_heavy_graph(self):
        g = generate_bipartite(40, 60, 300, seed=1)
        solver = BePI(tol=1e-12, hub_ratio=0.3).preprocess(g)
        scores = solver.query(0)
        assert np.allclose(scores, exact_rwr(g, 0.05, 0), atol=1e-8)

    def test_seed_on_deadend(self, tiny_graph):
        solver = BePI(tol=1e-12, hub_ratio=0.3).preprocess(tiny_graph)
        scores = solver.query(7)  # node 7 is the deadend
        assert np.allclose(scores, exact_rwr(tiny_graph, 0.05, 7), atol=1e-9)
        # A deadend seed: the surfer leaves 7 only by restart, so r[7] = c.
        assert scores[7] == pytest.approx(0.05, abs=1e-9)

    def test_all_deadends_graph(self):
        g = Graph.empty(4)
        solver = BePI().preprocess(g)
        scores = solver.query(2)
        expected = np.zeros(4)
        expected[2] = solver.c
        assert np.allclose(scores, expected)

    def test_hub_ratio_one(self, small_graph):
        solver = BePI(hub_ratio=1.0, tol=1e-12).preprocess(small_graph)
        assert solver.stats["n1"] == 0
        assert np.allclose(solver.query(0), exact_rwr(small_graph, 0.05, 0), atol=1e-8)


class TestVariantPolicies:
    def test_names(self):
        assert BePI().name == "BePI"
        assert BePIS().name == "BePI-S"
        assert BePIB().name == "BePI-B"

    def test_bepib_has_no_preconditioner(self, small_graph):
        solver = BePIB().preprocess(small_graph)
        assert solver.ilu_factors is None
        assert not solver.stats["preconditioned"]
        assert "L2" not in solver.retained_matrices()

    def test_bepi_has_preconditioner(self, small_graph):
        solver = BePI().preprocess(small_graph)
        assert solver.ilu_factors is not None
        assert solver.stats["preconditioned"]
        retained = solver.retained_matrices()
        assert "L2" in retained and "U2" in retained

    def test_bepib_uses_small_hub_ratio(self):
        assert BePIB().hub_ratio < BePIS().hub_ratio

    def test_preconditioner_reduces_iterations(self, medium_graph):
        plain = BePIS(tol=1e-10).preprocess(medium_graph)
        preconditioned = BePI(tol=1e-10).preprocess(medium_graph)
        it_plain = plain.query_detailed(0).iterations
        it_pre = preconditioned.query_detailed(0).iterations
        assert it_pre < it_plain

    def test_auto_policy_minimizes_schur_nnz(self, medium_graph):
        """BePI-S semantics: hub_ratio='auto' picks the |S|-minimizing k."""
        from repro.core.hub_ratio import DEFAULT_CANDIDATES
        from repro import sweep_hub_ratios

        sparse = BePIS(hub_ratio="auto").preprocess(medium_graph)
        records = sweep_hub_ratios(medium_graph, c=0.05, candidates=DEFAULT_CANDIDATES)
        assert sparse.stats["nnz_schur"] == min(rec.nnz_schur for rec in records)

    def test_auto_hub_ratio(self, small_graph):
        solver = BePI(hub_ratio="auto").preprocess(small_graph)
        assert 0.0 < solver.stats["hub_ratio"] <= 0.5
        assert solver.stats["hub_ratio_sweep_seconds"] > 0


class TestNJobs:
    def test_invalid_n_jobs(self):
        """The thread count is retired: every ``n_jobs`` value, formerly
        valid or not, is rejected as an unknown keyword."""
        for n_jobs in (0, -2, -1, 1, 4):
            with pytest.raises(TypeError):
                BePI(n_jobs=n_jobs)


class TestInterface:
    def test_query_before_preprocess_raises(self):
        with pytest.raises(NotPreprocessedError):
            BePI().query(0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            BePI(c=1.5)
        with pytest.raises(InvalidParameterError):
            BePI(tol=-1)
        with pytest.raises(InvalidParameterError):
            BePI(hub_ratio=0.0)
        with pytest.raises(InvalidParameterError):
            BePI(hub_ratio="magic")
        # Rejected at construction, not by the first query's GMRES call.
        for option in ("max_iterations", "gmres_restart"):
            for value in (0, -3):
                with pytest.raises(InvalidParameterError, match=option):
                    BePI(**{option: value})
        # The preconditioner engine, Krylov method and fallback switch are
        # no longer options.
        for option in ("ilu_engine", "iterative_method", "fallback_chain"):
            with pytest.raises(TypeError):
                BePI(**{option: None})

    def test_invalid_seed(self, small_graph):
        solver = BePI().preprocess(small_graph)
        with pytest.raises(InvalidParameterError):
            solver.query(small_graph.n_nodes)

    def test_invalid_query_vector_shape(self, small_graph):
        solver = BePI().preprocess(small_graph)
        with pytest.raises(InvalidParameterError):
            solver.query_vector(np.zeros(3))

    def test_stats_populated(self, medium_graph):
        solver = BePI().preprocess(medium_graph)
        for key in (
            "n1",
            "n2",
            "n3",
            "n_blocks",
            "nnz_schur",
            "slashburn_iterations",
            "preprocess_seconds",
            "memory_bytes",
        ):
            assert key in solver.stats

    def test_memory_accounting_matches_retained(self, medium_graph):
        from repro.bench.memory import matrix_memory_bytes

        solver = BePI().preprocess(medium_graph)
        manual = sum(
            matrix_memory_bytes(m) for m in solver.retained_matrices().values()
        )
        assert solver.memory_bytes() == manual

    def test_repreprocess_resets_state(self, small_graph, medium_graph):
        solver = BePI()
        solver.preprocess(small_graph)
        mem_small = solver.memory_bytes()
        solver.preprocess(medium_graph)
        assert solver.graph is medium_graph
        assert solver.memory_bytes() != mem_small

    def test_query_detailed_metadata(self, medium_graph):
        solver = BePI().preprocess(medium_graph)
        result = solver.query_detailed(0)
        assert result.seconds > 0
        assert result.iterations >= 1
        assert result.scores.shape == (medium_graph.n_nodes,)

    def test_preprocess_returns_self(self, small_graph):
        solver = BePI()
        assert solver.preprocess(small_graph) is solver


class TestAutoKAdoption:
    def test_auto_scores_bit_match_fixed_k(self, medium_graph):
        """Auto-k adopts the sweep winner's artifacts, so its scores are
        bit-identical to a fresh solver preprocessed at the chosen k."""
        auto = BePI(hub_ratio="auto", tol=1e-11).preprocess(medium_graph)
        chosen = auto.stats["hub_ratio"]
        fixed = BePI(hub_ratio=chosen, tol=1e-11).preprocess(medium_graph)
        for seed in (0, 7, 100):
            assert np.array_equal(auto.query(seed), fixed.query(seed))

    def test_auto_counts_passes_without_rebuild(self, medium_graph):
        from repro.core.hub_ratio import DEFAULT_CANDIDATES

        auto = BePI(hub_ratio="auto").preprocess(medium_graph)
        assert auto.stats["preprocess_passes"] == len(DEFAULT_CANDIDATES)
        fixed = BePI(hub_ratio=0.2).preprocess(medium_graph)
        assert fixed.stats["preprocess_passes"] == 1

