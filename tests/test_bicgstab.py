"""Tests for the from-scratch BiCGSTAB and the Jacobi preconditioner."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError, InvalidParameterError, SingularMatrixError
from repro.linalg.bicgstab import bicgstab
from repro.linalg.gmres import gmres
from repro.linalg.ilu import sgs_factors
from repro.linalg.preconditioners import JacobiPreconditioner


def _dd_system(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    mat = sp.csr_matrix(dense)
    x_true = rng.standard_normal(n)
    return mat, x_true, mat @ x_true


class TestBiCGSTAB:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_dd_system(self, seed):
        mat, x_true, b = _dd_system(50, 0.2, seed)
        result = bicgstab(mat, b, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_zero_rhs(self):
        mat, _, _ = _dd_system(10, 0.3, 0)
        result = bicgstab(mat, np.zeros(10))
        assert result.converged
        assert np.allclose(result.x, 0.0)

    def test_exact_x0(self):
        mat, x_true, b = _dd_system(15, 0.3, 3)
        result = bicgstab(mat, b, x0=x_true)
        assert result.converged
        assert result.n_iterations == 0

    def test_with_ilu_preconditioner(self):
        mat, x_true, b = _dd_system(80, 0.1, 4)
        plain = bicgstab(mat, b, tol=1e-10)
        preconditioned = bicgstab(mat, b, tol=1e-10, preconditioner=sgs_factors(mat))
        assert preconditioned.converged
        assert preconditioned.n_iterations <= plain.n_iterations
        assert np.allclose(preconditioned.x, x_true, atol=1e-5)

    def test_matches_gmres_solution(self):
        mat, _, b = _dd_system(40, 0.2, 5)
        a = bicgstab(mat, b, tol=1e-11)
        g = gmres(mat, b, tol=1e-11)
        assert np.allclose(a.x, g.x, atol=1e-7)

    def test_iteration_budget(self):
        mat, _, b = _dd_system(60, 0.15, 6)
        result = bicgstab(mat, b, tol=1e-16, max_iterations=2)
        assert not result.converged

    def test_raise_on_stagnation(self):
        mat, _, b = _dd_system(60, 0.15, 7)
        with pytest.raises(ConvergenceError):
            bicgstab(mat, b, tol=1e-16, max_iterations=2, raise_on_stagnation=True)

    def test_invalid_tol(self):
        mat, _, b = _dd_system(5, 0.5, 8)
        with pytest.raises(InvalidParameterError):
            bicgstab(mat, b, tol=0.0)

    def test_callback(self):
        mat, _, b = _dd_system(20, 0.3, 9)
        seen = []
        bicgstab(mat, b, callback=lambda it, res: seen.append(res))
        assert seen and seen[-1] <= 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_random_systems(self, seed):
        mat, x_true, b = _dd_system(25, 0.3, seed)
        result = bicgstab(mat, b, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-4)


class TestJacobiPreconditioner:
    def test_solve_divides_by_diagonal(self):
        mat = sp.diags([2.0, 4.0, 8.0]).tocsr()
        pre = JacobiPreconditioner(mat)
        assert np.allclose(pre.solve(np.array([2.0, 4.0, 8.0])), 1.0)

    def test_zero_diagonal_raises(self):
        mat = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            JacobiPreconditioner(mat)

    def test_speeds_up_gmres_on_badly_scaled_system(self):
        rng = np.random.default_rng(0)
        n = 60
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
        scales = 10.0 ** rng.uniform(-3, 3, size=n)
        np.fill_diagonal(dense, (np.abs(dense).sum(axis=1) + 1.0) * scales)
        mat = sp.csr_matrix(dense)
        b = rng.standard_normal(n)
        plain = gmres(mat, b, tol=1e-10)
        jacobi = gmres(mat, b, tol=1e-10, preconditioner=JacobiPreconditioner(mat))
        assert jacobi.converged
        assert jacobi.n_iterations <= plain.n_iterations

    def test_nnz(self):
        pre = JacobiPreconditioner(sp.identity(7, format="csr"))
        assert pre.nnz == 7


class TestBePIIntegration:
    def test_bicgstab_engine_is_exact(self, medium_graph):
        from repro import BePI

        from .conftest import exact_rwr

        solver = BePI(tol=1e-12, iterative_method="bicgstab").preprocess(medium_graph)
        assert np.allclose(solver.query(0), exact_rwr(medium_graph, 0.05, 0), atol=1e-7)

    def test_jacobi_engine_is_exact(self, medium_graph):
        from repro import BePI

        from .conftest import exact_rwr

        solver = BePI(tol=1e-12, ilu_engine="jacobi").preprocess(medium_graph)
        assert np.allclose(solver.query(0), exact_rwr(medium_graph, 0.05, 0), atol=1e-7)
        assert "M_diag" in solver.retained_matrices()

    def test_ilu_beats_jacobi_iterations(self, medium_graph):
        from repro import BePI

        ilu = BePI(tol=1e-10).preprocess(medium_graph)
        jacobi = BePI(tol=1e-10, ilu_engine="jacobi").preprocess(medium_graph)
        assert (ilu.query_detailed(0).iterations
                <= jacobi.query_detailed(0).iterations)

    def test_invalid_iterative_method(self):
        from repro import BePI

        with pytest.raises(InvalidParameterError):
            BePI(iterative_method="sor")
