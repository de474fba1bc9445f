"""Tests for the reference sparse triangular solves (the ILU test oracles)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SingularMatrixError
from repro.linalg.triangular import solve_lower_triangular, solve_upper_triangular


def _random_triangular(n, seed, lower=True, density=0.3):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    dense = np.tril(dense, -1) if lower else np.triu(dense, 1)
    np.fill_diagonal(dense, rng.random(n) + 0.5)
    return sp.csr_matrix(dense)


class TestReferenceSolvers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lower_matches_numpy(self, seed):
        mat = _random_triangular(20, seed, lower=True)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(20)
        x = solve_lower_triangular(mat, b)
        assert np.allclose(mat.toarray() @ x, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_upper_matches_numpy(self, seed):
        mat = _random_triangular(20, seed, lower=False)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(20)
        x = solve_upper_triangular(mat, b)
        assert np.allclose(mat.toarray() @ x, b)

    def test_unit_diagonal_lower(self):
        mat = _random_triangular(15, 3, lower=True)
        strict = sp.tril(mat, k=-1).tocsr()
        b = np.ones(15)
        x = solve_lower_triangular(strict, b, unit_diagonal=True)
        unit = strict + sp.identity(15, format="csr")
        assert np.allclose(unit.toarray() @ x, b)

    def test_zero_diagonal_raises(self):
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            solve_lower_triangular(mat, np.ones(2))
        mat_u = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            solve_upper_triangular(mat_u, np.ones(2))

    def test_diagonal_matrix(self):
        mat = sp.diags([2.0, 4.0, 8.0]).tocsr()
        b = np.array([2.0, 4.0, 8.0])
        assert np.allclose(solve_lower_triangular(mat, b), 1.0)
        assert np.allclose(solve_upper_triangular(mat, b), 1.0)
