"""Batched multi-seed queries: equivalence, memory, and bugfix regressions."""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    BePI,
    BePIB,
    BePIS,
    BearSolver,
    ConvergenceWarning,
    DenseSolver,
    GMRESSolver,
    InvalidParameterError,
    LUSolver,
    PowerSolver,
)
from repro.linalg.gmres import (
    GMRESWorkspace,
    gmres,
    gmres_multi,
)
from repro.linalg.ilu import ILUFactors
from repro.linalg.rwr_matrix import build_h_matrix

SOLVER_FACTORIES = {
    "BePI": lambda: BePI(c=0.05, tol=1e-10),
    "BePI-S": lambda: BePIS(c=0.05, tol=1e-10),
    "BePI-B": lambda: BePIB(c=0.05, tol=1e-10),
    "Bear": lambda: BearSolver(c=0.05),
    "LU": lambda: LUSolver(c=0.05),
    "GMRES": lambda: GMRESSolver(c=0.05, tol=1e-10),
    "Power": lambda: PowerSolver(c=0.05, tol=1e-10),
    "Inversion": lambda: DenseSolver(c=0.05),
}


@pytest.fixture(scope="module", params=sorted(SOLVER_FACTORIES))
def solver(request, small_graph):
    return SOLVER_FACTORIES[request.param]().preprocess(small_graph)


# ----------------------------------------------------------------------
# Batched == looped, for every solver
# ----------------------------------------------------------------------
class TestBatchedEqualsLooped:
    def test_query_many_matches_stacked_single_queries(self, solver, small_graph):
        n = small_graph.n_nodes
        seeds = [0, 1, n // 2, n - 1]
        batched = solver.query_many(seeds)
        assert batched.shape == (len(seeds), n)
        for i, seed in enumerate(seeds):
            single = solver.query(seed)
            np.testing.assert_allclose(batched[i], single, atol=1e-12, rtol=0)

    def test_detailed_batch_metadata(self, solver, small_graph):
        seeds = [2, 5, 9]
        result = solver.query_many_detailed(seeds)
        assert result.n_queries == 3
        assert result.scores.shape == (3, small_graph.n_nodes)
        assert result.iterations.shape == (3,)
        assert result.per_seed_seconds.shape == (3,)
        assert np.all(result.per_seed_seconds >= 0)
        assert result.seconds > 0
        assert result.all_converged

    def test_chunked_equals_unchunked(self, solver):
        seeds = list(range(7))
        full = solver.query_many(seeds)
        chunked = solver.query_many(seeds, batch_size=3)
        np.testing.assert_allclose(chunked, full, atol=1e-12, rtol=0)

    def test_empty_seed_list(self, solver, small_graph):
        result = solver.query_many_detailed([])
        assert result.scores.shape == (0, small_graph.n_nodes)
        assert result.n_queries == 0
        assert result.all_converged


def test_batch_counts_queries_in_stats(small_graph):
    solver = BePI(c=0.05).preprocess(small_graph)
    assert solver.stats["queries"] == 0
    solver.query_many([0, 1, 2])
    assert solver.stats["queries"] == 3
    solver.query(0)
    assert solver.stats["queries"] == 4


def test_wide_block_matches_looped_single_seeds(medium_graph, monkeypatch):
    """A 64-seed block applies the preconditioner to blocks of up to 64
    columns, single-seed queries to one column at a time, by the same
    sweep.  Both agree to round-off."""
    solver = BePI(c=0.05, tol=1e-10).preprocess(medium_graph)
    widths = []
    sweep = ILUFactors.solve

    def recording_solve(self, rhs):
        widths.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return sweep(self, rhs)

    monkeypatch.setattr(ILUFactors, "solve", recording_solve)
    seeds = np.random.default_rng(0).choice(medium_graph.n_nodes, 64, replace=False)
    batched = solver.query_many(seeds.tolist())
    assert widths and max(widths) == 64
    n_block = len(widths)
    looped = np.stack([solver.query(int(seed)) for seed in seeds])
    assert len(widths) > n_block and max(widths[n_block:]) == 1
    np.testing.assert_allclose(batched, looped, atol=1e-12, rtol=0)


# ----------------------------------------------------------------------
# Satellite 1 regression: full GMRES must not pre-allocate an O(n^2) basis
# ----------------------------------------------------------------------
class TestWorkspaceGrowth:
    def test_full_gmres_allocates_by_iterations_not_dimension(self, small_graph):
        h = build_h_matrix(small_graph.adjacency, 0.05)
        n = h.shape[0]
        rhs = np.zeros(n)
        rhs[0] = 0.05
        workspace = GMRESWorkspace()
        result = gmres(h, rhs, tol=1e-10, restart=None, workspace=workspace)
        assert result.converged
        # The bug was a (max_iterations + 1, n) = (n + 1, n) basis for full
        # GMRES; the workspace must instead track iterations actually used.
        assert workspace.capacity < n
        assert workspace.capacity >= result.n_iterations
        assert workspace.basis.shape[1] == n

    def test_workspace_grows_past_initial_capacity(self):
        rng = np.random.default_rng(0)
        n = 200
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 0.1)
        a = sp.csr_matrix(dense)
        workspace = GMRESWorkspace(initial_capacity=4)
        result = gmres(a, rng.standard_normal(n), tol=1e-12, restart=None, workspace=workspace)
        x_ref = gmres(a, a @ np.zeros(n), tol=1e-12)  # exercise default path too
        assert result.converged
        assert result.n_iterations > 4
        assert workspace.capacity >= result.n_iterations
        assert x_ref.converged

    def test_gmres_multi_shares_workspace_and_matches_single(self, dd_matrix):
        rng = np.random.default_rng(7)
        n = dd_matrix.shape[0]
        block = rng.standard_normal((n, 3))
        workspace = GMRESWorkspace()
        batch = gmres_multi(dd_matrix, block, tol=1e-12, workspace=workspace)
        assert batch.all_converged
        assert batch.x.shape == (n, 3)
        assert batch.n_iterations.shape == (3,)
        for j in range(3):
            single = gmres(dd_matrix, block[:, j].copy(), tol=1e-12)
            np.testing.assert_allclose(batch.x[:, j], single.x, atol=1e-12, rtol=0)

    def test_gmres_rejects_matrix_rhs(self, dd_matrix):
        with pytest.raises(InvalidParameterError, match="gmres_multi"):
            gmres(dd_matrix, np.ones((dd_matrix.shape[0], 2)))

    @pytest.mark.parametrize("engine", ["block", "sequential"])
    def test_gmres_multi_engines_match_single(self, dd_matrix, engine, monkeypatch):
        """A matrix operator takes the lockstep block engine; a bare callable
        cannot be assumed to accept blocks and runs column by column."""
        gmres_module = importlib.import_module("repro.linalg.gmres")
        block_calls = []
        run_block = gmres_module._run_gmres_block

        def spy(*args, **kwargs):
            block_calls.append(1)
            return run_block(*args, **kwargs)

        monkeypatch.setattr(gmres_module, "_run_gmres_block", spy)
        operator = dd_matrix if engine == "block" else (lambda v: dd_matrix @ v)
        rng = np.random.default_rng(11)
        n = dd_matrix.shape[0]
        block = rng.standard_normal((n, 4))
        batch = gmres_multi(operator, block, tol=1e-12)
        assert len(block_calls) == (1 if engine == "block" else 0)
        assert batch.all_converged
        for j in range(4):
            single = gmres(dd_matrix, block[:, j].copy(), tol=1e-12)
            np.testing.assert_allclose(batch.x[:, j], single.x, atol=1e-12, rtol=0)


# ----------------------------------------------------------------------
# Satellite 2 regression: Schur-solve convergence must be surfaced
# ----------------------------------------------------------------------
class TestConvergencePropagation:
    def test_converged_reported_in_extras(self, small_graph):
        solver = BePI(c=0.05).preprocess(small_graph)
        result = solver.query_detailed(0)
        assert bool(result.extras["converged"]) is True

    def test_unconverged_query_warns_and_counts(self, small_graph):
        solver = BePI(c=0.05, tol=1e-14, max_iterations=1).preprocess(small_graph)
        with pytest.warns(ConvergenceWarning):
            result = solver.query_detailed(0)
        assert bool(result.extras["converged"]) is False
        assert solver.stats["unconverged_queries"] == 1

    def test_unconverged_batch_warns_and_counts(self, small_graph):
        solver = BePI(c=0.05, tol=1e-14, max_iterations=1).preprocess(small_graph)
        with pytest.warns(ConvergenceWarning):
            result = solver.query_many_detailed([0, 1, 2])
        assert not result.all_converged
        assert solver.stats["unconverged_queries"] == 3

    def test_converged_query_does_not_warn(self, small_graph):
        solver = BePI(c=0.05).preprocess(small_graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            solver.query_many([0, 1])
        assert solver.stats["unconverged_queries"] == 0


# ----------------------------------------------------------------------
# Satellite 3 regression: seed validation
# ----------------------------------------------------------------------
class TestSeedValidation:
    def test_negative_seed_rejected(self, small_graph):
        solver = LUSolver(c=0.05).preprocess(small_graph)
        with pytest.raises(InvalidParameterError, match="out of range"):
            solver.query_detailed(-1)

    def test_seed_at_n_rejected_in_batch(self, small_graph):
        solver = LUSolver(c=0.05).preprocess(small_graph)
        n = small_graph.n_nodes
        with pytest.raises(InvalidParameterError, match="out of range"):
            solver.query_many([0, n])

    def test_non_integer_seed_rejected(self, small_graph):
        solver = LUSolver(c=0.05).preprocess(small_graph)
        with pytest.raises(InvalidParameterError, match="integer"):
            solver.query_detailed(1.5)

    def test_bad_batch_size_rejected(self, small_graph):
        solver = LUSolver(c=0.05).preprocess(small_graph)
        with pytest.raises(InvalidParameterError, match="batch_size"):
            solver.query_many([0], batch_size=0)
