"""Tests for sparse triangular solves (reference and level-ordered)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SingularMatrixError
from repro.linalg.ilu import LEVEL_SOLVE_CROSSOVER, ilu0
from repro.linalg.triangular import (
    TriangularSolver,
    solve_lower_triangular,
    solve_upper_triangular,
)


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


class TestLevelScheduledSolver:
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, lower, seed):
        mat = _random_triangular(40, seed, lower=lower)
        rng = np.random.default_rng(seed + 7)
        b = rng.standard_normal(40)
        solver = TriangularSolver(mat, lower=lower)
        if lower:
            expected = solve_lower_triangular(mat, b)
        else:
            expected = solve_upper_triangular(mat, b)
        assert np.allclose(solver.solve(b), expected)

    def test_unit_diagonal(self):
        mat = _random_triangular(25, 5, lower=True)
        strict = sp.tril(mat, k=-1).tocsr()
        solver = TriangularSolver(strict, lower=True, unit_diagonal=True)
        b = np.arange(25, dtype=float)
        unit = strict + sp.identity(25, format="csr")
        assert np.allclose(unit.toarray() @ solver.solve(b), b)

    def test_reusable_across_rhs(self):
        mat = _random_triangular(30, 8, lower=True)
        solver = TriangularSolver(mat, lower=True)
        for seed in range(4):
            b = np.random.default_rng(seed).standard_normal(30)
            assert np.allclose(mat.toarray() @ solver.solve(b), b)

    def test_levels_of_diagonal_matrix(self):
        solver = TriangularSolver(sp.identity(10, format="csr"), lower=True)
        assert solver.n_levels == 1

    def test_levels_of_dense_chain(self):
        # Bidiagonal matrix: every row depends on the previous -> n levels.
        n = 12
        mat = sp.diags([np.ones(n - 1), np.ones(n)], offsets=[-1, 0]).tocsr()
        solver = TriangularSolver(mat, lower=True)
        assert solver.n_levels == n

    def test_zero_diag_raises(self):
        mat = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(SingularMatrixError):
            TriangularSolver(mat, lower=True)

    def test_rhs_length_mismatch(self):
        solver = TriangularSolver(sp.identity(4, format="csr"), lower=True)
        with pytest.raises(SingularMatrixError):
            solver.solve(np.ones(5))

    def test_non_square_raises(self):
        with pytest.raises(SingularMatrixError):
            TriangularSolver(sp.csr_matrix((3, 4)), lower=True)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_property_random_triangulars(self, seed, lower):
        mat = _random_triangular(15, seed, lower=lower, density=0.4)
        b = np.random.default_rng(seed ^ 0xABCD).standard_normal(15)
        solver = TriangularSolver(mat, lower=lower)
        x = solver.solve(b)
        assert np.allclose(mat.toarray() @ x, b, atol=1e-8)


def _reference_solve(mat, rhs, lower, unit_diagonal):
    """Column-by-column row substitution: the oracle for the level solver."""
    if unit_diagonal and not lower:
        mat = sp.triu(mat, k=1) + sp.identity(mat.shape[0], format="csr")
    columns = rhs.reshape(rhs.shape[0], -1)
    solved = [
        solve_lower_triangular(mat, columns[:, j], unit_diagonal=unit_diagonal)
        if lower
        else solve_upper_triangular(mat, columns[:, j])
        for j in range(columns.shape[1])
    ]
    return np.stack(solved, axis=1).reshape(rhs.shape)


def _laid_out(block, layout):
    """``block`` as a C-order, F-order or non-contiguous array."""
    if layout == "C":
        return np.ascontiguousarray(block)
    if layout == "F":
        return np.asfortranarray(block)
    # Every other row of a twice-as-tall array: a strided, non-contiguous view.
    tall = np.zeros((2 * block.shape[0],) + block.shape[1:])
    tall[::2] = block
    return tall[::2]


@st.composite
def triangular_systems(draw):
    """A triangular system with random shape, sparsity, diagonal and rhs."""
    n = draw(st.integers(min_value=1, max_value=24))
    lower = draw(st.booleans())
    unit_diagonal = draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    dense = np.tril(dense, -1) if lower else np.triu(dense, 1)
    # Some rows without off-diagonal entries; unit-diagonal systems store
    # either no diagonal or one the solver must ignore.
    dense[rng.random(n) < 0.3] = 0.0
    if not unit_diagonal or draw(st.booleans()):
        np.fill_diagonal(dense, rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n))
    width = draw(st.sampled_from([None, 1, 3, 8]))
    shape = (n,) if width is None else (n, width)
    rhs = _laid_out(rng.standard_normal(shape), draw(st.sampled_from(["C", "F", "strided"])))
    return sp.csr_matrix(dense), lower, unit_diagonal, rhs


class TestLevelOrderedProperties:
    @given(triangular_systems())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_substitution(self, system):
        mat, lower, unit_diagonal, rhs = system
        before = rhs.copy()
        solver = TriangularSolver(mat, lower=lower, unit_diagonal=unit_diagonal)
        x = solver.solve(rhs)
        np.testing.assert_array_equal(rhs, before)
        expected = _reference_solve(mat, before, lower, unit_diagonal)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(x, expected, rtol=1e-10, atol=1e-10)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_diagonal_raises(self, n, seed, lower):
        mat = _random_triangular(n, seed, lower=lower).tolil()
        mat[int(np.random.default_rng(seed).integers(n)), :] = 0.0
        with pytest.raises(SingularMatrixError):
            TriangularSolver(mat.tocsr(), lower=lower)


class TestILUWidthDispatch:
    @pytest.fixture(scope="class")
    def factors(self):
        rng = np.random.default_rng(3)
        n = 300
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.03)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        return ilu0(sp.csr_matrix(dense))

    @pytest.mark.parametrize("width", [LEVEL_SOLVE_CROSSOVER - 1, LEVEL_SOLVE_CROSSOVER])
    def test_block_matches_single_column_superlu(self, factors, width):
        block = np.random.default_rng(width).standard_normal((factors.l.shape[0], width))
        x = factors.solve(block)
        # A one-dimensional rhs always takes the SuperLU path.
        for j in range(width):
            single = factors.solve(block[:, j])
            np.testing.assert_allclose(x[:, j], single, rtol=1e-12, atol=0)

    def test_level_solver_built_only_for_wide_blocks(self):
        factors = ilu0(sp.csr_matrix(np.eye(5) * 2.0 + np.eye(5, k=1)))
        factors.solve(np.ones((5, LEVEL_SOLVE_CROSSOVER - 1)))
        assert not hasattr(factors, "_cached_level_solvers")
        factors.solve(np.ones((5, LEVEL_SOLVE_CROSSOVER)))
        assert hasattr(factors, "_cached_level_solvers")
