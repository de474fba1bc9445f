"""Tests for block-diagonal LU factorization with inverted factors.

The batched factorization is checked against :func:`reference_factorize`,
the per-block ``scipy.linalg.lu`` + ``solve_triangular`` loop it replaced:
the factors must be bit-equal, and a singular block must be reported with
the same message (and so the same block index).
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generate_rmat
from repro.core.bepi import DEFAULT_SPARSE_HUB_RATIO
from repro.core.pipeline import build_artifacts
from repro.exceptions import InvalidParameterError, SingularMatrixError
from repro.linalg.block_lu import _PIVOT_RTOL, BlockDiagonalLU, factorize_block_diagonal

from .test_query_paths import graphs


def _reference_invert_block(block: np.ndarray, index: int) -> tuple:
    """``(inv(L) P^T, inv(U))`` of one block by LAPACK, one call each."""
    size = block.shape[0]
    scale = float(np.abs(block).max()) if block.size else 0.0
    tolerance = size * _PIVOT_RTOL * scale
    if size == 1:
        value = block[0, 0]
        if abs(value) <= tolerance or value == 0.0:
            raise SingularMatrixError(f"singular 1x1 diagonal block (block {index})")
        return np.array([[1.0]]), np.array([[1.0 / value]])
    p, l, u = sla.lu(block)
    smallest = float(np.abs(np.diag(u)).min())
    if smallest <= tolerance:
        raise SingularMatrixError(
            f"numerically singular diagonal block {index} of size {size}: "
            f"pivot {smallest:.3e} <= tolerance {tolerance:.3e} "
            f"(relative to block magnitude {scale:.3e})"
        )
    l_inv = sla.solve_triangular(l, p.T, lower=True, unit_diagonal=True)
    u_inv = sla.solve_triangular(u, np.eye(size), lower=False)
    return l_inv, u_inv


def reference_factorize(matrix, block_sizes) -> BlockDiagonalLU:
    """One block at a time: dense block, LAPACK LU, two triangular solves,
    then ``sp.block_diag`` over the inverted blocks."""
    dense = sp.csr_matrix(matrix, dtype=np.float64).toarray()
    l_blocks, u_blocks = [], []
    start = 0
    for index, size in enumerate(block_sizes):
        block = dense[start:start + size, start:start + size]
        l_inv, u_inv = _reference_invert_block(block, index)
        l_blocks.append(l_inv)
        u_blocks.append(u_inv)
        start += size
    factors = []
    for blocks in (l_blocks, u_blocks):
        factor = sp.block_diag(blocks, format="csr")
        factor.eliminate_zeros()
        factors.append(factor)
    return BlockDiagonalLU(factors[0], factors[1], np.asarray(block_sizes))


def assert_bit_equal(actual: BlockDiagonalLU, expected: BlockDiagonalLU) -> None:
    for name in ("l_inv", "u_inv"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)


def _block_diag_matrix(block_sizes, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for size in block_sizes:
        block = rng.standard_normal((size, size))
        # Make comfortably invertible.
        block += np.eye(size) * (np.abs(block).sum(axis=1).max() + 1.0)
        blocks.append(block)
    return sp.block_diag(blocks, format="csr"), blocks


class TestFactorization:
    def test_solve_matches_dense(self):
        mat, _ = _block_diag_matrix([3, 1, 5, 2], seed=0)
        factors = factorize_block_diagonal(mat, [3, 1, 5, 2])
        rng = np.random.default_rng(1)
        b = rng.standard_normal(11)
        assert np.allclose(factors.solve(b), np.linalg.solve(mat.toarray(), b))

    def test_solve_matrix(self):
        mat, _ = _block_diag_matrix([2, 4], seed=2)
        factors = factorize_block_diagonal(mat, [2, 4])
        rhs = sp.random(6, 3, density=0.5, random_state=3, format="csr")
        result = factors.solve_matrix(rhs).toarray()
        expected = np.linalg.solve(mat.toarray(), rhs.toarray())
        assert np.allclose(result, expected)

    def test_explicit_inverse_identity(self):
        mat, _ = _block_diag_matrix([4, 4], seed=4)
        factors = factorize_block_diagonal(mat, [4, 4])
        product = (factors.u_inv @ factors.l_inv @ mat).toarray()
        assert np.allclose(product, np.eye(8), atol=1e-10)

    def test_factors_stay_block_diagonal(self):
        mat, _ = _block_diag_matrix([3, 2, 3], seed=5)
        factors = factorize_block_diagonal(mat, [3, 2, 3])
        starts = np.concatenate(([0], np.cumsum([3, 2, 3])))
        for factor in (factors.l_inv, factors.u_inv):
            coo = factor.tocoo()
            rb = np.searchsorted(starts, coo.row, side="right") - 1
            cb = np.searchsorted(starts, coo.col, side="right") - 1
            assert np.array_equal(rb, cb)

    def test_single_block_is_full_lu(self):
        mat, _ = _block_diag_matrix([6], seed=6)
        factors = factorize_block_diagonal(mat, [6])
        b = np.arange(6, dtype=float)
        assert np.allclose(factors.solve(b), np.linalg.solve(mat.toarray(), b))

    def test_all_singleton_blocks(self):
        mat = sp.diags([2.0, 4.0, 5.0]).tocsr()
        factors = factorize_block_diagonal(mat, [1, 1, 1])
        assert np.allclose(factors.solve(np.array([2.0, 4.0, 5.0])), 1.0)

    def test_empty_matrix(self):
        factors = factorize_block_diagonal(sp.csr_matrix((0, 0)), [])
        assert factors.solve(np.zeros(0)).size == 0
        assert factors.nnz == 0

    def test_nnz_accounting(self):
        mat, _ = _block_diag_matrix([3, 3], seed=7)
        factors = factorize_block_diagonal(mat, [3, 3])
        assert factors.nnz == factors.l_inv.nnz + factors.u_inv.nnz


class TestValidation:
    def test_wrong_block_sum(self):
        mat, _ = _block_diag_matrix([2, 2], seed=0)
        with pytest.raises(InvalidParameterError):
            factorize_block_diagonal(mat, [2, 3])

    def test_non_positive_block(self):
        mat, _ = _block_diag_matrix([2, 2], seed=0)
        with pytest.raises(InvalidParameterError):
            factorize_block_diagonal(mat, [4, 0])

    def test_entry_outside_blocks(self):
        mat = sp.csr_matrix(np.array([[1.0, 0.0, 0.5], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(InvalidParameterError):
            factorize_block_diagonal(mat, [1, 1, 1])

    def test_singular_block(self):
        mat = sp.csr_matrix(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            factorize_block_diagonal(mat, [1, 1])

    def test_singular_larger_block(self):
        block = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            factorize_block_diagonal(sp.csr_matrix(block), [2])

    def test_near_singular_relative_to_scale(self):
        """A block singular *relative to its magnitude* is caught even though
        its pivots are not exactly zero."""
        scale = 1e12
        eps = np.finfo(np.float64).eps
        block = np.array([[scale, scale], [scale, scale * (1.0 + eps)]])
        # Elimination leaves the non-zero pivot scale * eps, far below
        # size * eps * max|block|.
        mat = sp.block_diag([np.eye(2), block], format="csr")
        with pytest.raises(SingularMatrixError) as excinfo:
            factorize_block_diagonal(mat, [2, 2])
        # The error names the offending block.
        assert "block 1" in str(excinfo.value)

    def test_zero_singleton_block_names_index(self):
        mat = sp.diags([2.0, 0.0]).tocsr()
        with pytest.raises(SingularMatrixError) as excinfo:
            factorize_block_diagonal(mat, [1, 1])
        assert "block 1" in str(excinfo.value)

    def test_well_conditioned_small_values_accepted(self):
        """Uniformly tiny but well-conditioned blocks must NOT be rejected —
        the tolerance is relative, not absolute."""
        mat = sp.diags([1e-30, 2e-30]).tocsr()
        factors = factorize_block_diagonal(mat, [1, 1])
        assert np.allclose(
            factors.solve(np.array([1e-30, 2e-30])), np.ones(2)
        )


class TestProperty:
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_solve_property(self, block_sizes, seed):
        mat, _ = _block_diag_matrix(block_sizes, seed)
        factors = factorize_block_diagonal(mat, block_sizes)
        n = sum(block_sizes)
        b = np.random.default_rng(seed ^ 0x5A5A).standard_normal(n)
        assert np.allclose(mat.toarray() @ factors.solve(b), b, atol=1e-8)


def _column_dominant_blocks(block_sizes, seed, density=1.0):
    """Blocks whose diagonal exceeds the rest of its column, like ``H11``'s."""
    rng = np.random.default_rng(seed)
    blocks = []
    for size in block_sizes:
        block = rng.standard_normal((size, size)) * (rng.random((size, size)) < density)
        np.fill_diagonal(block, 0.0)
        np.fill_diagonal(block, np.abs(block).sum(axis=0) + rng.uniform(0.1, 2.0, size))
        blocks.append(block)
    return blocks


#: Block sizes 1-40, about half of them 1x1 (as in ``H11``).
block_size_lists = st.lists(
    st.one_of(st.just(1), st.integers(min_value=1, max_value=40)), min_size=1, max_size=12
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestReferenceOracle:
    @given(block_size_lists, seeds, st.sampled_from([0.15, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_column_dominant_blocks_bit_equal(self, block_sizes, seed, density):
        mat = sp.block_diag(_column_dominant_blocks(block_sizes, seed, density), format="csr")
        assert_bit_equal(
            factorize_block_diagonal(mat, block_sizes), reference_factorize(mat, block_sizes)
        )

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8), seeds)
    @settings(max_examples=40, deadline=None)
    def test_row_swaps_solve_like_dense(self, block_sizes, seed):
        """Rows shuffled within each block, so partial pivoting must swap
        them back."""
        rng = np.random.default_rng(seed)
        blocks = [
            block[rng.permutation(block.shape[0])]
            for block in _column_dominant_blocks(block_sizes, seed)
        ]
        mat = sp.block_diag(blocks, format="csr")
        factors = factorize_block_diagonal(mat, block_sizes)
        rhs = rng.standard_normal((mat.shape[0], 3))
        expected = np.linalg.solve(mat.toarray(), rhs)
        assert np.abs(factors.solve(rhs) - expected).max() <= 1e-10
        assert_bit_equal(factors, reference_factorize(mat, block_sizes))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.sampled_from(["regular", "regular", "zero", "repeated_row", "near"]),
            ),
            min_size=1,
            max_size=8,
        ),
        seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_singular_blocks_name_reference_index(self, spec, seed):
        """A zero block is always appended; earlier exactly or numerically
        singular blocks must be the ones named, as by the reference."""
        spec = spec + [(2, "zero")]
        block_sizes = [size for size, _ in spec]
        blocks = _column_dominant_blocks(block_sizes, seed)
        for block, (size, kind) in zip(blocks, spec):
            if kind == "zero":
                block[:] = 0.0
            elif kind == "repeated_row" and size > 1:
                block[-1] = block[0]
            elif kind == "near":
                block *= 1e12
                block[-1] = block[0] * (1.0 + np.finfo(np.float64).eps)
        mat = sp.block_diag(blocks, format="csr")
        with pytest.raises(SingularMatrixError) as expected:
            reference_factorize(mat, block_sizes)
        with pytest.raises(SingularMatrixError) as actual:
            factorize_block_diagonal(mat, block_sizes)
        assert str(actual.value) == str(expected.value)

    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10),
        seeds,
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_subset_factors_equal_full_slices(self, block_sizes, seed, data):
        """Refactorizing some blocks alone (as the incremental update does)
        reproduces their slices of the full factors exactly."""
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(block_sizes), max_size=len(block_sizes))
            .filter(any)
        )
        mat = sp.block_diag(_column_dominant_blocks(block_sizes, seed, 0.5), format="csr")
        starts = np.concatenate(([0], np.cumsum(block_sizes)))
        idx = np.concatenate(
            [np.arange(starts[b], starts[b + 1]) for b in np.flatnonzero(keep)]
        )
        full = factorize_block_diagonal(mat, block_sizes)
        sub = factorize_block_diagonal(
            mat[idx][:, idx], np.asarray(block_sizes)[np.asarray(keep)]
        )
        for name in ("l_inv", "u_inv"):
            sliced = getattr(full, name)[idx][:, idx]
            assert getattr(sub, name).nnz == sliced.nnz
            assert np.array_equal(getattr(sub, name).toarray(), sliced.toarray())

    @given(graph=graphs, hub_ratio=st.sampled_from([0.05, 0.25, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_generator_family_h11_bit_equal(self, graph, hub_ratio):
        artifacts = build_artifacts(graph, 0.05, hub_ratio)
        h11, sizes = artifacts.blocks["H11"], artifacts.block_sizes
        assert_bit_equal(artifacts.h11_factors, reference_factorize(h11, sizes))

    def test_benchmark_graph_bit_equal(self):
        """The R-MAT scale-14 graph of ``perfbench`` (4,906 blocks, largest
        12 rows): the published factors are the reference's."""
        graph = generate_rmat(14, 8 * 2**14, seed=14)
        artifacts = build_artifacts(graph, 0.05, DEFAULT_SPARSE_HUB_RATIO)
        h11, sizes = artifacts.blocks["H11"], artifacts.block_sizes
        assert_bit_equal(artifacts.h11_factors, reference_factorize(h11, sizes))
