"""Tests for the Schur preconditioner: SGS factors of ``S`` and their sweep."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BePI, generate_rmat
from repro.core.engine import BePIQueryEngine
from repro.exceptions import SingularMatrixError
from repro.linalg.ilu import ILUFactors, sgs_factors
from repro.linalg.triangular import solve_lower_triangular, solve_upper_triangular


def reference_ilu0(matrix: sp.spmatrix):
    """Row-by-row IKJ ILU(0) with one dict per row: the paper's factors.

    Row ``i`` eliminates its lower entries ``(i, k)`` in ascending ``k``
    against the finished rows ``k``, updating only positions already in
    row ``i``'s pattern.  Returns ``(L, U)`` with ``L`` unit lower (diagonal
    stored) and ``U`` upper.  Every row needs a stored diagonal entry.
    """
    work = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    work.sort_indices()
    n = work.shape[0]
    indptr, indices, data = work.indptr, work.indices, work.data
    col_index = [
        dict(zip(indices[indptr[i] : indptr[i + 1]].tolist(), range(indptr[i], indptr[i + 1])))
        for i in range(n)
    ]
    assert all(i in row for i, row in enumerate(col_index)), "missing diagonal entry"
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        for pos in range(lo, hi):
            k = indices[pos]
            if k >= i:
                break
            pivot = data[col_index[k][k]]
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot at row {k} during ILU(0)")
            factor = data[pos] / pivot
            data[pos] = factor
            k_row = col_index[k]
            for pos_j in range(pos + 1, hi):
                k_offset = k_row.get(indices[pos_j], -1)
                if k_offset >= 0:
                    data[pos_j] -= factor * data[k_offset]
    lower = (sp.tril(work, k=-1) + sp.identity(n, format="csr")).tocsr()
    return lower, sp.triu(work, k=0).tocsr()


class Ilu0Sweep:
    """Exact ILU(0) factors applied by the same one-sweep-per-factor rule."""

    def __init__(self, matrix):
        self.l, self.u = reference_ilu0(matrix)
        self.d = self.u.diagonal()

    def solve(self, rhs):
        d = self.d.reshape((-1,) + (1,) * (rhs.ndim - 1))
        y = 2.0 * rhs - self.l @ rhs
        z = y / d
        return z - (self.u @ z - y) / d


@st.composite
def sgs_inputs(draw):
    """Square CSR matrices with non-zero diagonals (dominant or not), empty
    off-diagonal rows, and small-integer or Gaussian values."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
    else:
        values = rng.standard_normal((n, n))
    dense = values * (rng.random((n, n)) < density)
    if draw(st.booleans()):
        dense[rng.random(n) < 0.1] = 0.0  # rows with nothing off the diagonal
    diagonal = np.abs(dense).sum(axis=1) + 1.0
    if draw(st.booleans()):
        diagonal = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.1, 2.0, size=n)
    np.fill_diagonal(dense, diagonal)
    return sp.csr_matrix(dense)


def _dd_matrix(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return sp.csr_matrix(dense)


def dense_sweep(matrix: sp.spmatrix, block: np.ndarray) -> np.ndarray:
    """``(I - D^{-1} U_s) D^{-1} (I - L_s) B`` with dense matrices built from
    ``S`` alone: ``L_s = tril(S, -1) D^{-1}``, ``U_s = triu(S, 1)``."""
    s = matrix.toarray()
    d = np.diag(s)
    strict_l = np.tril(s, -1) / d[None, :]
    scaled_u = np.triu(s, 1) / d[:, None]
    identity = np.eye(d.size)
    inner = (identity - strict_l) @ block
    inner = inner / (d[:, None] if block.ndim == 2 else d)
    return (identity - scaled_u) @ inner


class TestExactness:
    """The SGS factors, and the ILU(0) oracle the parity tests compare with."""

    def test_dense_pattern_equals_exact_lu(self):
        """The oracle's ILU(0) with a fully dense pattern IS the exact LU."""
        rng = np.random.default_rng(0)
        n = 12
        dense = rng.standard_normal((n, n))
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        lower, upper = reference_ilu0(sp.csr_matrix(dense))
        assert np.allclose((lower @ upper).toarray(), dense)

    def test_product_matches_on_pattern(self, dd_matrix):
        """The oracle's L U agrees with A on A's own sparsity pattern."""
        lower, upper = reference_ilu0(dd_matrix)
        product = (lower @ upper).tocsr()
        coo = dd_matrix.tocoo()
        recon = np.asarray(product[coo.row, coo.col]).ravel()
        np.testing.assert_allclose(recon, coo.data, atol=1e-10)

    def test_triangular_input_is_reproduced(self):
        mat = sp.csr_matrix(np.triu(np.random.default_rng(1).random((8, 8)) + np.eye(8)))
        factors = sgs_factors(mat)
        assert np.allclose(factors.l.toarray(), np.eye(8))
        assert np.allclose(factors.u.toarray(), mat.toarray())

    def test_factor_shapes(self, dd_matrix):
        factors = sgs_factors(dd_matrix)
        n = dd_matrix.shape[0]
        # L unit diagonal, strictly-lower pattern from A; U upper pattern.
        assert np.allclose(factors.l.diagonal(), 1.0)
        assert sp.triu(factors.l, k=1).nnz == 0
        assert sp.tril(factors.u, k=-1).nnz == 0
        assert factors.l.shape == (n, n)

    def test_pattern_is_no_larger_than_input(self, dd_matrix):
        factors = sgs_factors(dd_matrix)
        n = dd_matrix.shape[0]
        # |L| + |U| <= |A| + n (unit diagonal stored in L, diagonal in U).
        assert factors.l.nnz + factors.u.nnz <= dd_matrix.nnz + n
        assert factors.nnz <= dd_matrix.nnz + n

    def test_derivation_waits_for_the_first_application(self, dd_matrix):
        factors = ILUFactors(dd_matrix)
        assert "_parts" not in factors.__dict__
        factors.solve(np.ones(dd_matrix.shape[0]))
        assert "_parts" in factors.__dict__


class TestPreconditionerQuality:
    def test_solve_is_approximate_inverse(self, dd_matrix):
        factors = sgs_factors(dd_matrix)
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(dd_matrix.shape[0])
        b = dd_matrix @ x_true
        x_approx = factors.solve(b)
        # For a diagonally dominant matrix the sweep is a strong approximation.
        rel = np.linalg.norm(x_approx - x_true) / np.linalg.norm(x_true)
        assert rel < 0.5

    def test_reduces_condition_number(self):
        mat = _dd_matrix(40, 0.2, seed=5)
        factors = sgs_factors(mat)
        m_inv_a = np.linalg.solve((factors.l @ factors.u).toarray(), mat.toarray())
        cond_before = np.linalg.cond(mat.toarray())
        cond_after = np.linalg.cond(m_inv_a)
        assert cond_after <= cond_before * 1.01

    def test_solve_matches_reference_substitutions(self, dd_matrix):
        """One sweep is exact substitution with the Neumann tail removed.

        With ``L = I + L_s`` and ``U = D (I + N)``: ``(I - L_s) b`` equals
        ``L^{-1} (b - L_s^2 b)`` and ``(I - N) D^{-1} y`` equals
        ``U^{-1} D (y - N^2 y) / d`` exactly, so the row-by-row
        substitutions of those right-hand sides reproduce the sweep.
        """
        factors = sgs_factors(dd_matrix)
        d = factors.u.diagonal()
        strict_l = sp.tril(factors.l, k=-1).tocsr()
        scaled_u = (sp.diags(1.0 / d) @ sp.triu(factors.u, k=1)).tocsr()
        b = np.random.default_rng(4).standard_normal(dd_matrix.shape[0])
        y = solve_lower_triangular(
            factors.l, b - strict_l @ (strict_l @ b), unit_diagonal=True
        )
        z = y / d
        slow = solve_upper_triangular(factors.u, d * (z - scaled_u @ (scaled_u @ z)))
        fast = factors.solve(b)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


class TestEdgeCases:
    def test_empty_matrix(self):
        factors = sgs_factors(sp.csr_matrix((0, 0)))
        assert factors.nnz == 0
        assert factors.solve(np.zeros(0)).shape == (0,)

    def test_missing_diagonal_raises(self):
        # Row 1 has no diagonal entry: without elimination nothing fills it.
        mat = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(SingularMatrixError, match="row 1"):
            sgs_factors(mat)

    def test_zero_pivot_raises(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            sgs_factors(mat)

    def test_non_square_raises(self):
        with pytest.raises(SingularMatrixError):
            sgs_factors(sp.csr_matrix((2, 3)))

    def test_identity(self):
        factors = sgs_factors(sp.identity(5, format="csr"))
        assert np.allclose(factors.solve(np.arange(5.0)), np.arange(5.0))


class TestJacobiSweep:
    """:meth:`ILUFactors.solve` against the dense formula built from ``S``."""

    @given(sgs_inputs(), st.sampled_from([None, 1, 15, 16, 64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_formula(self, matrix, width, seed):
        factors = sgs_factors(matrix)
        n = matrix.shape[0]
        shape = (n,) if width is None else (n, width)
        block = np.random.default_rng(seed).standard_normal(shape)
        got = factors.solve(block)
        want = dense_sweep(matrix, block)
        assert got.shape == block.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    @pytest.fixture(scope="class")
    def schur(self):
        return BePI(use_preconditioner=False).preprocess(
            generate_rmat(10, 6000, seed=3)
        ).solver_artifacts.preprocess.schur

    def test_matches_dense_formula_on_a_schur_complement(self, schur):
        block = np.random.default_rng(7).standard_normal((schur.shape[0], 16))
        want = dense_sweep(schur, block)
        got = sgs_factors(schur).solve(block)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("width", [1, 15, 16, 64])
    def test_block_columns_bit_equal_single_vectors(self, schur, width):
        factors = sgs_factors(schur)
        block = np.random.default_rng(width).standard_normal((schur.shape[0], width))
        x = factors.solve(block)
        for j in range(width):
            assert np.array_equal(x[:, j], factors.solve(block[:, j])), j

    def test_rhs_is_not_modified(self, dd_matrix):
        factors = sgs_factors(dd_matrix)
        block = np.asfortranarray(np.random.default_rng(8).standard_normal((dd_matrix.shape[0], 5)))
        before = block.copy()
        factors.solve(block)
        np.testing.assert_array_equal(block, before)


class TestProperty:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pattern_agreement_property(self, seed):
        """The ILU(0) oracle reproduces A on A's pattern (its defining property)."""
        mat = _dd_matrix(15, 0.3, seed)
        lower, upper = reference_ilu0(mat)
        product = (lower @ upper).tocsr()
        coo = mat.tocoo()
        recon = np.asarray(product[coo.row, coo.col]).ravel()
        assert np.allclose(recon, coo.data, atol=1e-8)

    @given(sgs_inputs())
    @settings(max_examples=100, deadline=None)
    def test_factors_reproduce_s_property(self, matrix):
        """``tril(L, -1) D + U = S`` (to rounding), and ``L U = S + tril(S, -1)
        D^{-1} triu(S, 1)``: ILU(0) without its fill-correction products."""
        factors = sgs_factors(matrix)
        s = matrix.toarray()
        d = np.diag(s)
        lower, upper = factors.l.toarray(), factors.u.toarray()
        np.testing.assert_allclose(np.tril(lower, -1) * d[None, :] + upper, s, rtol=1e-15)
        dropped = np.tril(s, -1) @ (np.triu(s, 1) / d[:, None])
        np.testing.assert_allclose(lower @ upper, s + dropped, atol=1e-12 * max(np.abs(s).max(), 1))


class TestMatchesReferenceLoop:
    """SGS factors take the GMRES iterations of the row-by-row ILU(0) loop:
    the mean per seed differs by at most half an iteration."""

    @staticmethod
    def assert_iteration_parity(scale, seed):
        graph = generate_rmat(scale, 8 * 2**scale, seed=seed)
        solver = BePI(tol=1e-9).preprocess(graph)
        bundle = solver.solver_artifacts
        schur = bundle.preprocess.schur
        assert schur.shape[0] > 100
        seeds = np.random.default_rng(seed).choice(graph.n_nodes, size=32, replace=False)
        rhs = np.zeros((graph.n_nodes, seeds.size))
        rhs[seeds, np.arange(seeds.size)] = 1.0
        _, sgs_iterations, _ = BePIQueryEngine(bundle).query_block(rhs)
        reference = replace(bundle, preconditioner=Ilu0Sweep(schur))
        _, ilu0_iterations, _ = BePIQueryEngine(reference).query_block(rhs)
        assert abs(np.mean(sgs_iterations) - np.mean(ilu0_iterations)) <= 0.5

    @pytest.mark.parametrize("scale, seed", [(10, 3), (11, 7)])
    def test_iteration_parity_on_rmat_schur_complements(self, scale, seed):
        self.assert_iteration_parity(scale, seed)

    def test_bepi_schur_complement_rmat_scale_12(self):
        self.assert_iteration_parity(12, 5)
