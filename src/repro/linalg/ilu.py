"""Incomplete LU factorization with zero fill-in — ILU(0).

The BePI preconditioner (Section 3.5): ``S ~= L2 U2`` where the factors have
exactly the sparsity pattern of the lower/upper triangular parts of ``S``.
The factorization cost is ``O(|S|)`` per row-width, and the storage cost is
identical to storing ``S`` itself — the property Theorem 1/3 rely on.

Implemented from scratch with the classic IKJ row-wise update restricted to
the original pattern.  ``spilu_factors`` wraps scipy's SuperLU-based ILU as
an alternative engine for cross-checking and for speed on large inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.exceptions import SingularMatrixError
from repro.linalg.triangular import TriangularSolver

#: Block width ``k`` from which :meth:`ILUFactors.solve` applies the factors
#: with the level-ordered :class:`TriangularSolver` instead of SuperLU.
#: SuperLU substitutes column by column, so its cost grows linearly in
#: ``k``; the level solver pays a fixed per-level overhead once per block.
#: Chosen from ms per application of ``L2, U2`` of the R-MAT scale-14 Schur
#: complement (n2 = 3,669, 135k factor non-zeros, 148 + 137 levels) on a
#: 2-vCPU x86 machine, BLAS on one thread, medians of 41 alternated
#: applications averaged over two runs, one Schur SpMV for scale:
#:
#: ====  =======  =====  ==========
#:  k    SuperLU  level  Schur SpMV
#: ====  =======  =====  ==========
#:   1     0.50    2.97     0.20
#:   8     2.3     3.9      0.9
#:  12     2.9     3.6      0.9
#:  16     4.7     4.9      1.6
#:  20     5.3     4.9      1.6
#:  24     8.0     6.7      2.4
#:  32    11.0     8.1      3.9
#:  64    19.7    11.3      6.8
#: ====  =======  =====  ==========
#:
#: The two tie at 16; the level solver wins from 20 on and is built once
#: per factor pair (~60 ms, ~1.7 MB at this size).
LEVEL_SOLVE_CROSSOVER = 16


@dataclass(frozen=True)
class ILUFactors:
    """Triangular factors ``L`` (unit diagonal, stored) and ``U`` with ``A ~= L U``."""

    l: sp.csr_matrix
    u: sp.csr_matrix

    def _solvers(self, width: int):
        """Triangular solvers for a block of ``width`` columns (cached).

        Narrow blocks use a no-fill natural-order sparse LU of each
        (already triangular) factor, giving sequential C-speed
        substitutions.  From :data:`LEVEL_SOLVE_CROSSOVER` columns on, the
        level-ordered :class:`TriangularSolver` shares its per-level cost
        across the block and wins; it is built on the first wide
        application.  Neither is persisted with the factors.

        SuperLU is built on the first application of any width.  Its
        workspace is large and mostly untouched.  Built later, inside a
        wide solve whose large temporaries have already been freed, glibc
        serves it from dirty heap pages: at R-MAT scale 14 a serving
        process then grew by up to 16 MB of RSS, where the level solver
        itself holds ~2 MB.
        """
        cached = getattr(self, "_cached_solvers", None)
        if cached is None:
            lower = splu(sp.csc_matrix(self.l), permc_spec="NATURAL")
            upper = splu(sp.csc_matrix(self.u), permc_spec="NATURAL")
            cached = (lower.solve, upper.solve)
            object.__setattr__(self, "_cached_solvers", cached)
        if width < LEVEL_SOLVE_CROSSOVER:
            return cached
        level = getattr(self, "_cached_level_solvers", None)
        if level is None:
            lower = TriangularSolver(self.l, lower=True, unit_diagonal=True)
            upper = TriangularSolver(self.u, lower=False)
            level = (lower.solve, upper.solve)
            object.__setattr__(self, "_cached_level_solvers", level)
        return level

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: return ``U^{-1} (L^{-1} rhs)``.

        Applies the factors through forward/backward substitution; they are
        never inverted (Appendix B of the paper), so each application costs
        about one sparse matvec.  ``rhs`` may be a vector or an ``(n, k)``
        matrix; the substitution engine is chosen by ``k`` (see
        :data:`LEVEL_SOLVE_CROSSOVER`).
        """
        b = np.asarray(rhs, dtype=np.float64)
        solve_lower, solve_upper = self._solvers(1 if b.ndim == 1 else b.shape[1])
        return solve_upper(solve_lower(b))

    @property
    def nnz(self) -> int:
        """Stored non-zeros across both factors."""
        return int(self.l.nnz + self.u.nnz)


def _ensure_diagonal(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Return a copy whose sparsity pattern includes every diagonal position.

    Rows lacking a *structural* diagonal entry get one added with value zero
    (by inserting a sentinel 1.0 to survive sparse addition, then resetting
    the stored value).  This extends the ILU(0) pattern minimally; an actual
    zero pivot is still detected during elimination.
    """
    csr = sp.csr_matrix(matrix)
    csr.sort_indices()
    structural = _diagonal_positions(csr)
    missing = np.flatnonzero(structural < 0)
    if missing.size == 0:
        return csr.copy()
    sentinel = sp.coo_matrix(
        (np.ones(missing.size), (missing, missing)), shape=csr.shape
    )
    padded = (csr + sentinel).tocsr()
    padded.sort_indices()
    positions = _diagonal_positions(padded)
    padded.data[positions[missing]] -= 1.0
    return padded


def _diagonal_positions(matrix: sp.csr_matrix) -> np.ndarray:
    """Index into ``matrix.data`` of each row's diagonal entry (-1 if absent)."""
    n = matrix.shape[0]
    positions = np.full(n, -1, dtype=np.int64)
    indptr, indices = matrix.indptr, matrix.indices
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        hit = np.searchsorted(indices[lo:hi], i)
        if hit < hi - lo and indices[lo + hit] == i:
            positions[i] = lo + hit
    return positions


def ilu0(matrix: sp.spmatrix) -> ILUFactors:
    """ILU(0) factorization of a square sparse matrix.

    Parameters
    ----------
    matrix:
        Square sparse matrix.  Positions missing a diagonal entry get one
        added to the pattern (value zero) so unit-lower / upper splitting is
        well defined; a zero *pivot* still raises.

    Returns
    -------
    ILUFactors
        ``L`` has an explicit unit diagonal; ``U`` holds the diagonal and
        strictly upper entries.  ``L @ U`` matches ``matrix`` exactly on the
        matrix's own sparsity pattern.

    Raises
    ------
    SingularMatrixError
        If a pivot (diagonal of ``U``) becomes zero during elimination.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"ILU(0) requires a square matrix, got {csr.shape}")
    n = csr.shape[0]
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return ILUFactors(empty, empty)
    work = _ensure_diagonal(csr)
    work.sort_indices()
    indptr, indices, data = work.indptr, work.indices, work.data

    # Per-row column -> data-offset lookup for the already-finalized rows.
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
            # Update a_ij for j > k within row i's own pattern.
            k_row = col_index[k]
            for pos_j in range(pos + 1, hi):
                j = indices[pos_j]
                k_offset = k_row.get(j, -1)
                if k_offset >= 0:
                    data[pos_j] -= factor * data[k_offset]

    # Split the in-place combined factorization into L (unit diag) and U.
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


def ilut(
    matrix: sp.spmatrix,
    drop_tolerance: float = 1e-3,
    fill_factor: int = 10,
) -> ILUFactors:
    """ILUT: threshold-based incomplete LU (Saad's dual-dropping scheme).

    Unlike ILU(0), fill-in *is* allowed, but entries are dropped by two
    rules applied per row:

    1. magnitude: entries below ``drop_tolerance`` times the row's 2-norm
       are discarded during elimination,
    2. count: only the ``fill_factor`` largest entries are kept in each of
       the row's L and U parts.

    A stronger (and costlier) preconditioner than ILU(0) — the standard
    upgrade path when ILU(0)'s iteration counts are not low enough.

    Parameters
    ----------
    matrix:
        Square sparse matrix.
    drop_tolerance:
        Relative magnitude threshold; 0 disables magnitude dropping.
    fill_factor:
        Maximum kept entries per row per factor (diagonal always kept).

    Raises
    ------
    SingularMatrixError
        On a zero pivot.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"ILUT requires a square matrix, got {csr.shape}")
    if drop_tolerance < 0:
        raise SingularMatrixError(f"drop_tolerance must be >= 0, got {drop_tolerance}")
    if fill_factor < 1:
        raise SingularMatrixError(f"fill_factor must be >= 1, got {fill_factor}")
    n = csr.shape[0]
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return ILUFactors(empty, empty)
    csr = _ensure_diagonal(csr)
    csr.sort_indices()

    # Finished rows of U (dict col -> value) and of strict L.
    u_rows: list = [None] * n
    l_rows: list = [None] * n

    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row = dict(zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
        row_norm = float(np.sqrt(sum(v * v for v in row.values())))
        threshold = drop_tolerance * row_norm

        l_part: dict = {}
        # Eliminate against finished rows in ascending column order; the
        # update can introduce *new* sub-diagonal fill, so pick the next
        # column dynamically instead of from a static snapshot.
        while True:
            pending = [col for col in row if col < i]
            if not pending:
                break
            k = min(pending)
            a_ik = row.pop(k)
            if abs(a_ik) <= threshold:
                continue
            pivot = u_rows[k].get(k, 0.0)
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot at row {k} during ILUT")
            factor = a_ik / pivot
            l_part[k] = factor
            for j, u_kj in u_rows[k].items():
                if j > k:
                    row[j] = row.get(j, 0.0) - factor * u_kj

        # Dual dropping on the remaining (U-part) entries.
        u_part = {
            j: v for j, v in row.items()
            if j >= i and (j == i or abs(v) > threshold)
        }
        if i not in u_part:
            raise SingularMatrixError(f"zero pivot at row {i} in ILUT result")
        if len(u_part) - 1 > fill_factor:
            keep = sorted(
                (j for j in u_part if j != i),
                key=lambda j: -abs(u_part[j]),
            )[:fill_factor]
            u_part = {i: u_part[i], **{j: u_part[j] for j in keep}}
        if len(l_part) > fill_factor:
            keep = sorted(l_part, key=lambda j: -abs(l_part[j]))[:fill_factor]
            l_part = {j: l_part[j] for j in keep}
        if u_part[i] == 0.0:
            raise SingularMatrixError(f"zero pivot at row {i} in ILUT result")

        u_rows[i] = u_part
        l_rows[i] = l_part

    def _rows_to_csr(rows, add_unit_diagonal):
        row_idx, col_idx, values = [], [], []
        for r, entries in enumerate(rows):
            if add_unit_diagonal:
                row_idx.append(r)
                col_idx.append(r)
                values.append(1.0)
            for c, v in entries.items():
                row_idx.append(r)
                col_idx.append(c)
                values.append(v)
        mat = sp.coo_matrix((values, (row_idx, col_idx)), shape=(n, n)).tocsr()
        mat.sort_indices()
        return mat

    lower = _rows_to_csr(l_rows, add_unit_diagonal=True)
    upper = _rows_to_csr(u_rows, add_unit_diagonal=False)
    return ILUFactors(l=lower, u=upper)


def spilu_factors(matrix: sp.spmatrix, **kwargs) -> ILUFactors:
    """ILU via scipy's SuperLU (alternative engine; used for cross-checks).

    Note: SuperLU's incomplete factorization permutes rows/columns, so the
    returned triangular factors approximate a *permuted* ``matrix``; they are
    exposed through the same :class:`ILUFactors.solve` interface by folding
    the permutations into the factors' application.
    """
    from scipy.sparse.linalg import spilu

    ilu = spilu(sp.csc_matrix(matrix), **kwargs)

    class _SpiluAdapter(ILUFactors):
        """ILUFactors whose solve delegates to the SuperLU object."""

        def solve(self, rhs: np.ndarray) -> np.ndarray:  # type: ignore[override]
            return ilu.solve(np.asarray(rhs, dtype=np.float64))

    return _SpiluAdapter(l=ilu.L.tocsr(), u=ilu.U.tocsr())
