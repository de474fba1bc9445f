"""Tests for the from-scratch ILU(0) factorization."""

from math import isqrt
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spilu

from repro import BePI, generate_rmat
from repro.exceptions import SingularMatrixError
from repro.linalg import ilu as ilu_module
from repro.linalg.ilu import (
    ILUFactors,
    _diagonal_positions,
    _ensure_diagonal,
    ilu0,
    spilu_factors,
)


def reference_ilu0(matrix: sp.spmatrix) -> ILUFactors:
    """Row-by-row IKJ ILU(0) with one dict per row: the oracle for :func:`ilu0`.

    Row ``i`` eliminates its lower entries ``(i, k)`` in ascending ``k``
    against the finished rows ``k``, updating only positions already in
    row ``i``'s pattern.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    n = csr.shape[0]
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return ILUFactors(empty, empty)
    work = _ensure_diagonal(csr)
    work.sort_indices()
    indptr, indices, data = work.indptr, work.indices, work.data

    col_index = [
        dict(zip(indices[indptr[i] : indptr[i + 1]].tolist(), range(indptr[i], indptr[i + 1])))
        for i in range(n)
    ]
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        for pos in range(lo, hi):
            k = indices[pos]
            if k >= i:
                break
            pivot_offset = col_index[k].get(k, -1)
            pivot = data[pivot_offset] if pivot_offset >= 0 else 0.0
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot at row {k} during ILU(0)")
            factor = data[pos] / pivot
            data[pos] = factor
            k_row = col_index[k]
            for pos_j in range(pos + 1, hi):
                j = indices[pos_j]
                k_offset = k_row.get(j, -1)
                if k_offset >= 0:
                    data[pos_j] -= factor * data[k_offset]

    lower = sp.tril(work, k=-1).tocsr()
    lower = (lower + sp.identity(n, format="csr")).tocsr()
    upper = sp.triu(work, k=0).tocsr()
    u_diag = upper.diagonal()
    if np.any(u_diag == 0.0):
        bad = int(np.flatnonzero(u_diag == 0.0)[0])
        raise SingularMatrixError(f"zero pivot at row {bad} in ILU(0) result")
    lower.sort_indices()
    upper.sort_indices()
    return ILUFactors(l=lower, u=upper)


def _outcome(factorize, matrix):
    """The factors, or ``"singular"`` if the factorization raised."""
    try:
        return factorize(matrix.copy())
    except SingularMatrixError:
        return "singular"


def assert_bit_identical(got: ILUFactors, want: ILUFactors) -> None:
    for name in ("l", "u"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        for field in ("indptr", "indices", "data"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype, (name, field)
            assert np.array_equal(x, y), (name, field)
            # array_equal treats 0.0 == -0.0; bit identity does not.
            assert np.array_equal(np.signbit(x), np.signbit(y)), (name, field)


def assert_same_outcome(matrix: sp.spmatrix) -> None:
    got = _outcome(ilu0, matrix)
    want = _outcome(reference_ilu0, matrix)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert_bit_identical(got, want)


@st.composite
def ilu_inputs(draw):
    """Square CSR matrices with missing, stored-zero and dominant diagonals,
    empty rows, and small-integer values whose cancellations give zero
    pivots mid-elimination."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
    else:
        values = rng.standard_normal((n, n))
    dense = values * (rng.random((n, n)) < density)
    diagonal = draw(st.sampled_from(["dominant", "as drawn", "missing", "stored zero"]))
    if diagonal != "as drawn":
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    dropped = rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.5))
    if diagonal in ("missing", "stored zero"):
        dense[dropped, dropped] = 0.0
    if draw(st.booleans()):
        dense[rng.random(n) < 0.1] = 0.0  # empty rows
    coo = sp.coo_matrix(dense)
    if diagonal == "stored zero":
        rows = np.flatnonzero(dropped)
        coo = sp.coo_matrix(
            (np.concatenate((coo.data, np.zeros(rows.size))),
             (np.concatenate((coo.row, rows)), np.concatenate((coo.col, rows)))),
            shape=(n, n),
        )
    return coo.tocsr()


def _dd_matrix(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return sp.csr_matrix(dense)


class TestExactness:
    def test_dense_pattern_equals_exact_lu(self):
        """ILU(0) with a fully dense pattern IS the exact LU factorization."""
        rng = np.random.default_rng(0)
        n = 12
        dense = rng.standard_normal((n, n))
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        factors = ilu0(sp.csr_matrix(dense))
        product = (factors.l @ factors.u).toarray()
        assert np.allclose(product, dense)

    def test_triangular_input_is_reproduced(self):
        mat = sp.csr_matrix(np.triu(np.random.default_rng(1).random((8, 8)) + np.eye(8)))
        factors = ilu0(mat)
        assert np.allclose(factors.l.toarray(), np.eye(8))
        assert np.allclose(factors.u.toarray(), mat.toarray())

    def test_product_matches_on_pattern(self, dd_matrix):
        """L U agrees with A exactly on A's own sparsity pattern."""
        factors = ilu0(dd_matrix)
        product = (factors.l @ factors.u).tocsr()
        coo = dd_matrix.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            assert product[i, j] == pytest.approx(v, abs=1e-10)

    def test_factor_shapes(self, dd_matrix):
        factors = ilu0(dd_matrix)
        n = dd_matrix.shape[0]
        # L unit diagonal, strictly-lower pattern from A; U upper pattern.
        assert np.allclose(factors.l.diagonal(), 1.0)
        assert sp.triu(factors.l, k=1).nnz == 0
        assert sp.tril(factors.u, k=-1).nnz == 0
        assert factors.l.shape == (n, n)

    def test_pattern_is_no_larger_than_input(self, dd_matrix):
        factors = ilu0(dd_matrix)
        n = dd_matrix.shape[0]
        # |L| + |U| <= |A| + n (unit diagonal stored in L, diagonal in U).
        assert factors.nnz <= dd_matrix.nnz + n


class TestPreconditionerQuality:
    def test_solve_is_approximate_inverse(self, dd_matrix):
        factors = ilu0(dd_matrix)
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(dd_matrix.shape[0])
        b = dd_matrix @ x_true
        x_approx = factors.solve(b)
        # For a diagonally dominant matrix ILU(0) is a strong approximation.
        rel = np.linalg.norm(x_approx - x_true) / np.linalg.norm(x_true)
        assert rel < 0.5

    def test_reduces_condition_number(self):
        mat = _dd_matrix(40, 0.2, seed=5)
        factors = ilu0(mat)
        m_inv_a = np.linalg.solve((factors.l @ factors.u).toarray(), mat.toarray())
        cond_before = np.linalg.cond(mat.toarray())
        cond_after = np.linalg.cond(m_inv_a)
        assert cond_after <= cond_before * 1.01

    def test_solve_matches_reference_substitutions(self, dd_matrix):
        from repro.linalg.triangular import (
            solve_lower_triangular,
            solve_upper_triangular,
        )

        factors = ilu0(dd_matrix)
        b = np.random.default_rng(4).standard_normal(dd_matrix.shape[0])
        fast = factors.solve(b)
        slow = solve_upper_triangular(
            factors.u, solve_lower_triangular(factors.l, b, unit_diagonal=True)
        )
        assert np.allclose(fast, slow)


class TestEdgeCases:
    def test_empty_matrix(self):
        factors = ilu0(sp.csr_matrix((0, 0)))
        assert factors.nnz == 0

    def test_missing_diagonal_gets_pattern_entry(self):
        # Row 1 has no diagonal entry; ILU(0) must still produce factors.
        mat = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
        factors = ilu0(mat)
        assert factors.u.shape == (3, 3)

    def test_zero_pivot_raises(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            ilu0(mat)

    def test_non_square_raises(self):
        with pytest.raises(SingularMatrixError):
            ilu0(sp.csr_matrix((2, 3)))

    def test_identity(self):
        factors = ilu0(sp.identity(5, format="csr"))
        assert np.allclose(factors.solve(np.arange(5.0)), np.arange(5.0))


class TestSpiluAdapter:
    def test_solve_approximates_inverse(self, dd_matrix):
        factors = spilu_factors(dd_matrix)
        rng = np.random.default_rng(6)
        x_true = rng.standard_normal(dd_matrix.shape[0])
        b = dd_matrix @ x_true
        rel = np.linalg.norm(factors.solve(b) - x_true) / np.linalg.norm(x_true)
        assert rel < 0.5

    @pytest.mark.parametrize("width", [None, 1, ilu_module.LEVEL_SOLVE_CROSSOVER + 4])
    def test_permuted_factors_match_superlu_solve(self, width):
        """The stored factors plus permutations are SuperLU's own operator."""
        schur = BePI(use_preconditioner=False).preprocess(
            generate_rmat(10, 6000, seed=3)
        ).solver_artifacts.preprocess.schur
        factors = spilu_factors(schur)
        reference = spilu(sp.csc_matrix(schur))
        assert not np.array_equal(factors.perm_r, np.arange(schur.shape[0]))
        shape = schur.shape[0] if width is None else (schur.shape[0], width)
        rhs = np.random.default_rng(7).standard_normal(shape)
        want = reference.solve(rhs)
        assert np.abs(factors.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()


class TestProperty:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pattern_agreement_property(self, seed):
        mat = _dd_matrix(15, 0.3, seed)
        factors = ilu0(mat)
        product = (factors.l @ factors.u).tocsr()
        coo = mat.tocoo()
        recon = np.array([product[i, j] for i, j in zip(coo.row, coo.col)]).ravel()
        assert np.allclose(recon, coo.data, atol=1e-8)


class TestMatchesReferenceLoop:
    """The wavefront ILU(0) is bit-identical to the row-by-row IKJ loop."""

    @given(ilu_inputs(), st.sampled_from([1, 3, 7, None]))
    @settings(max_examples=300, deadline=None)
    def test_property_bit_identical_or_both_singular(self, matrix, candidate_slice):
        # Tiny slices cut wavefronts mid-row, at every possible offset.
        slice_size = candidate_slice or ilu_module._CANDIDATE_SLICE
        with mock.patch.object(ilu_module, "_CANDIDATE_SLICE", slice_size):
            assert_same_outcome(matrix)

    def test_zero_pivot_mid_elimination_raises_in_both(self):
        # u_11 = 1 - 1 * 1 = 0 only after row 1 is eliminated against row 0.
        mat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            ilu0(mat)
        with pytest.raises(SingularMatrixError):
            reference_ilu0(mat)

    def test_dense_block_crosses_the_candidate_slice(self):
        # The first wavefront of a dense m x m block has (m - 1)^2 candidates.
        m = isqrt(ilu_module._CANDIDATE_SLICE) + 2
        assert (m - 1) ** 2 > ilu_module._CANDIDATE_SLICE
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((m, m))
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        matrix = sp.block_diag([dense, _dd_matrix(30, 0.2, seed=12)], format="csr")
        assert_bit_identical(ilu0(matrix), reference_ilu0(matrix))

    def test_bepi_schur_complement_rmat_scale_12(self):
        graph = generate_rmat(12, 8 * 2**12, seed=5)
        schur = BePI(use_preconditioner=False).preprocess(graph).solver_artifacts.preprocess.schur
        assert schur.shape[0] > 500
        assert_bit_identical(ilu0(schur), reference_ilu0(schur))


class TestDiagonalPositions:
    @given(ilu_inputs())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_search(self, matrix):
        matrix.sort_indices()
        want = np.full(matrix.shape[0], -1)
        for i in range(matrix.shape[0]):
            lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
            hits = np.flatnonzero(matrix.indices[lo:hi] == i)
            if hits.size:
                want[i] = lo + hits[0]
        assert np.array_equal(_diagonal_positions(matrix), want)

    def test_padding_adds_zero_diagonals_only_where_missing(self):
        mat = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        padded = _ensure_diagonal(mat)
        assert np.all(_diagonal_positions(padded) >= 0)
        assert np.array_equal(padded.toarray(), mat.toarray())
        assert padded.nnz == mat.nnz + 2
