"""Tests for the from-scratch GMRES (plain and preconditioned)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.linalg.gmres import gmres
from repro.linalg.ilu import sgs_factors


def _dd_system(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    mat = sp.csr_matrix(dense)
    x_true = rng.standard_normal(n)
    return mat, x_true, mat @ x_true


class TestBasicSolve:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_dd_system(self, seed):
        mat, x_true, b = _dd_system(50, 0.2, seed)
        result = gmres(mat, b, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_identity_system(self):
        b = np.arange(5, dtype=float)
        result = gmres(sp.identity(5, format="csr"), b)
        assert result.converged
        assert np.allclose(result.x, b)
        assert result.n_iterations <= 1

    def test_zero_rhs(self):
        mat, _, _ = _dd_system(10, 0.3, 0)
        result = gmres(mat, np.zeros(10))
        assert result.converged
        assert np.allclose(result.x, 0.0)
        assert result.n_iterations == 0

    def test_callable_operator(self):
        mat, x_true, b = _dd_system(20, 0.3, 3)
        result = gmres(lambda v: mat @ v, b, tol=1e-10)
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_dense_operator(self):
        mat, x_true, b = _dd_system(20, 0.3, 4)
        result = gmres(mat.toarray(), b, tol=1e-10)
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_x0_warm_start(self):
        mat, x_true, b = _dd_system(30, 0.2, 5)
        cold = gmres(mat, b, tol=1e-10)
        warm = gmres(mat, b, tol=1e-10, x0=x_true + 1e-8)
        assert warm.n_iterations <= cold.n_iterations
        assert np.allclose(warm.x, x_true, atol=1e-6)

    def test_exact_x0_returns_immediately(self):
        mat, x_true, b = _dd_system(15, 0.3, 6)
        result = gmres(mat, b, x0=x_true, tol=1e-9)
        assert result.converged
        assert result.n_iterations == 0


class TestResidualTracking:
    def test_residuals_match_true_residuals(self):
        mat, _, b = _dd_system(40, 0.2, 7)
        result = gmres(mat, b, tol=1e-12)
        final_true = np.linalg.norm(mat @ result.x - b) / np.linalg.norm(b)
        assert final_true == pytest.approx(result.final_residual, abs=1e-9)

    def test_residuals_monotone_nonincreasing(self):
        mat, _, b = _dd_system(60, 0.15, 8)
        result = gmres(mat, b, tol=1e-12)
        res = np.array(result.residual_norms)
        assert np.all(np.diff(res) <= 1e-12)

    def test_callback_invoked(self):
        mat, _, b = _dd_system(20, 0.3, 9)
        seen = []
        gmres(mat, b, callback=lambda it, res: seen.append((it, res)))
        assert seen
        assert seen[0][0] == 1


class TestRestartAndBudget:
    def test_restarted_still_converges(self):
        mat, x_true, b = _dd_system(60, 0.15, 10)
        result = gmres(mat, b, tol=1e-10, restart=5, max_iterations=600)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_iteration_budget_respected(self):
        mat, _, b = _dd_system(60, 0.15, 11)
        result = gmres(mat, b, tol=1e-16, max_iterations=3)
        assert result.n_iterations <= 3
        assert not result.converged

    def test_raise_on_stagnation(self):
        mat, _, b = _dd_system(60, 0.15, 12)
        with pytest.raises(ConvergenceError):
            gmres(mat, b, tol=1e-16, max_iterations=3, raise_on_stagnation=True)

    def test_invalid_parameters(self):
        mat, _, b = _dd_system(5, 0.5, 13)
        with pytest.raises(InvalidParameterError):
            gmres(mat, b, tol=0.0)
        with pytest.raises(InvalidParameterError):
            gmres(mat, b, restart=0)
        with pytest.raises(InvalidParameterError):
            gmres(mat, b, preconditioner=42)


class TestPreconditioning:
    def test_ilu_preconditioner_reduces_iterations(self):
        mat, _, b = _dd_system(120, 0.08, 14)
        plain = gmres(mat, b, tol=1e-10)
        preconditioned = gmres(mat, b, tol=1e-10, preconditioner=sgs_factors(mat))
        assert preconditioned.converged
        assert preconditioned.n_iterations < plain.n_iterations

    def test_preconditioned_solution_is_same(self):
        mat, x_true, b = _dd_system(50, 0.2, 15)
        result = gmres(mat, b, tol=1e-11, preconditioner=sgs_factors(mat))
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_callable_preconditioner(self):
        mat, x_true, b = _dd_system(30, 0.2, 16)
        diag = mat.diagonal()
        result = gmres(mat, b, tol=1e-10, preconditioner=lambda v: v / diag)
        assert np.allclose(result.x, x_true, atol=1e-6)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_gmres(self, seed):
        mat, _, b = _dd_system(40, 0.25, seed + 50)
        ours = gmres(mat, b, tol=1e-12)
        theirs, info = spla.gmres(mat, b, rtol=1e-12, restart=40)
        assert info == 0
        assert np.allclose(ours.x, theirs, atol=1e-8)


class TestProperty:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_solves_random_dd_systems(self, seed):
        mat, x_true, b = _dd_system(25, 0.3, seed)
        result = gmres(mat, b, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)
