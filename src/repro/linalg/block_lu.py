"""LU factorization and explicit factor inversion of block-diagonal matrices.

``H11`` (spoke-spoke block after hub-and-spoke reordering) is block diagonal
with many small blocks.  Following Algorithm 1 (line 5) of the paper, we LU
factorize each block and *invert the factors* so the query phase only needs
two sparse matrix-vector products for ``H11^{-1} x = U1^{-1} (L1^{-1} x)``.

The blocks are processed in one pass per *block size*: all blocks of size
``s`` are scattered into one ``(m, s, s)`` stack, factorized by LAPACK's
partially pivoted ``getrf`` in one batched call, and their triangular
factors inverted in one batched call; the CSR arrays of the inverted
factors are then written straight from the block layout.  Every stack
operation acts on each matrix alone, so a block's factors do not depend on
which other blocks share its size (an incremental update refactorizes all
of ``H11``, and an unchanged block gets its parent's factors bit for bit),
and they are bit-identical to a per-block ``scipy.linalg.lu`` +
``solve_triangular``.

``H11`` inherits strict column diagonal dominance from ``H``: in every
elimination step the diagonal entry is the largest in its column, so
partial pivoting never permutes a row of ``H11``.  The pivot permutation is
nevertheless folded into ``L^{-1}`` to stay correct on arbitrary
(test-supplied) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.exceptions import InvalidParameterError, SingularMatrixError

#: Relative singularity threshold: a pivot of ``U`` below
#: ``size * eps * max|block|`` means the block is numerically singular and
#: inverting its factors would produce ``inf``/garbage values silently.
_PIVOT_RTOL = np.finfo(np.float64).eps


@dataclass(frozen=True)
class BlockDiagonalLU:
    """Explicitly inverted LU factors of a block-diagonal matrix.

    ``solve(x)`` computes ``A^{-1} x = U_inv @ (L_inv @ x)``; both factors
    are stored sparse so memory stays proportional to the block sizes
    squared (the ``sum n1i^2`` term in the paper's complexity analysis).
    """

    l_inv: sp.csr_matrix
    u_inv: sp.csr_matrix
    block_sizes: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``A^{-1}`` to a vector or to each column of an ``(n, k)`` block."""
        return self.u_inv @ (self.l_inv @ rhs)

    def solve_matrix(self, rhs: sp.spmatrix) -> sp.csr_matrix:
        """Apply ``A^{-1}`` to a sparse matrix (used for the Schur complement)."""
        return (self.u_inv @ (self.l_inv @ sp.csr_matrix(rhs))).tocsr()

    @property
    def nnz(self) -> int:
        """Stored non-zeros across both inverted factors."""
        return int(self.l_inv.nnz + self.u_inv.nnz)


def _invert_stack(stack: np.ndarray) -> tuple:
    """Dense LU of ``(m, s, s)`` blocks; returns ``(inv(L) P^T, inv(U), pivots)``.

    With ``P L U = A`` we have ``A^{-1} = U^{-1} (L^{-1} P^T)``, so folding
    ``P^T`` into the lower factor keeps the two-factor solve of the paper.
    ``pivots`` holds each block's smallest ``|U_ii|``; the factors are only
    valid where it clears the singularity tolerance.
    """
    size = stack.shape[1]
    if size == 1:
        values = stack[:, 0, 0]
        with np.errstate(divide="ignore"):
            return np.ones_like(stack), (1.0 / values)[:, None, None], np.abs(values)
    rows, lower, upper = sla.lu(stack, p_indices=True)
    pivots = np.abs(np.diagonal(upper, axis1=1, axis2=2)).min(axis=1)
    ok = pivots > 0.0
    l_inv = np.zeros_like(stack)
    u_inv = np.zeros_like(stack)
    l_inv[ok] = np.take_along_axis(
        np.linalg.inv(lower[ok]), rows[ok][:, None, :], axis=2
    )
    u_inv[ok] = np.linalg.inv(upper[ok])
    return l_inv, u_inv, pivots


def _singular_error(index: int, size: int, pivot: float, scale: float) -> SingularMatrixError:
    if size == 1:
        return SingularMatrixError(f"singular 1x1 diagonal block (block {index})")
    tolerance = size * _PIVOT_RTOL * scale
    return SingularMatrixError(
        f"numerically singular diagonal block {index} of size {size}: "
        f"pivot {pivot:.3e} <= tolerance {tolerance:.3e} "
        f"(relative to block magnitude {scale:.3e})"
    )


def factorize_block_diagonal(
    matrix: sp.spmatrix,
    block_sizes: Sequence[int],
) -> BlockDiagonalLU:
    """Factorize a block-diagonal sparse matrix and invert the LU factors.

    The blocks are grouped by size and each group is factorized and
    inverted as one ``(m, s, s)`` stack (see the module docstring); the
    result is written as CSR in block order.

    Parameters
    ----------
    matrix:
        Square sparse matrix whose non-zeros all lie inside the diagonal
        blocks described by ``block_sizes``.
    block_sizes:
        Sizes of the consecutive diagonal blocks; must sum to the dimension.

    Raises
    ------
    InvalidParameterError
        If the block sizes do not tile the matrix, or an entry falls outside
        every block.
    SingularMatrixError
        If any diagonal block is (numerically) singular, judged relative to
        the block's magnitude: a pivot at or below
        ``size * eps * max|block|``.  The message names the first offending
        block index.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    csr.sum_duplicates()
    n = csr.shape[0]
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.size and sizes.min() <= 0:
        raise InvalidParameterError("block sizes must be positive")
    if int(sizes.sum()) != n:
        raise InvalidParameterError(
            f"block sizes sum to {int(sizes.sum())} but the matrix has dimension {n}"
        )
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return BlockDiagonalLU(empty, empty, sizes)

    starts = np.concatenate(([0], np.cumsum(sizes)))
    # Verify block-diagonality: every entry's row and column land in the
    # same block.
    coo = csr.tocoo()
    row_block = np.searchsorted(starts, coo.row, side="right") - 1
    col_block = np.searchsorted(starts, coo.col, side="right") - 1
    if coo.nnz and not np.array_equal(row_block, col_block):
        bad = int(np.flatnonzero(row_block != col_block)[0])
        raise InvalidParameterError(
            f"matrix entry ({coo.row[bad]}, {coo.col[bad]}) is outside the "
            "declared diagonal blocks"
        )
    local_rows = coo.row - starts[row_block]
    local_cols = coo.col - starts[row_block]

    # Block b's dense factors fill entries offsets[b]:offsets[b + 1] of the
    # CSR data, row by row — the CSR layout of a block-diagonal matrix.
    n_blocks = int(sizes.size)
    offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
    l_data = np.empty(int(offsets[-1]))
    u_data = np.empty(int(offsets[-1]))
    pivots = np.empty(n_blocks)
    scales = np.zeros(n_blocks)
    np.maximum.at(scales, row_block, np.abs(coo.data))

    entry_sizes = sizes[row_block]
    for size in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == size)
        entries = np.flatnonzero(entry_sizes == size)
        stack = np.zeros((ids.size, size, size))
        slots = np.searchsorted(ids, row_block[entries])
        stack[slots, local_rows[entries], local_cols[entries]] = coo.data[entries]
        l_inv, u_inv, pivots[ids] = _invert_stack(stack)
        where = offsets[ids][:, None] + np.arange(size * size)
        l_data[where] = l_inv.reshape(ids.size, -1)
        u_data[where] = u_inv.reshape(ids.size, -1)

    singular = np.flatnonzero(pivots <= sizes * _PIVOT_RTOL * scales)
    if singular.size:
        index = int(singular[0])
        raise _singular_error(
            index, int(sizes[index]), float(pivots[index]), float(scales[index])
        )

    # Row r of block b holds sizes[b] entries, in columns starts[b]..+sizes[b].
    row_owner = np.repeat(np.arange(n_blocks), sizes)
    row_length = sizes[row_owner]
    indptr = np.concatenate(([0], np.cumsum(row_length)))
    indices = np.repeat(starts[row_owner], row_length) + (
        np.arange(indptr[-1]) - np.repeat(indptr[:-1], row_length)
    )
    factors = []
    for data in (l_data, u_data):
        factor = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        # Inverted triangular factors carry structural zeros (the other
        # triangle, and fill that cancels); keep exact values (the paper
        # stores them as-is) but drop explicit zeros.
        factor.eliminate_zeros()
        factors.append(factor)
    return BlockDiagonalLU(l_inv=factors[0], u_inv=factors[1], block_sizes=sizes)
