"""Sparse triangular solves (forward/backward substitution) on CSR matrices.

The paper's Appendix B stresses that preconditioned GMRES never inverts the
ILU factors; it applies them through these substitutions, whose cost is the
same as a sparse matrix-vector product.

Two implementations are provided:

- :func:`solve_lower_triangular` / :func:`solve_upper_triangular` — the
  straightforward row-by-row substitution (the reference used by tests),
- :class:`TriangularSolver` — a level-ordered block solver.  Rows with no
  mutual dependencies form one level; after a one-time permutation into
  level order each level is a contiguous row range finished by one sparse
  product, so an ``(n, k)`` block costs one level sweep for all ``k``
  columns.  :class:`repro.linalg.ilu.ILUFactors` uses it for wide blocks.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SingularMatrixError


def solve_lower_triangular(
    lower: sp.csr_matrix,
    rhs: np.ndarray,
    unit_diagonal: bool = False,
) -> np.ndarray:
    """Solve ``L x = b`` for a (sparse) lower-triangular ``L`` by forward substitution.

    Parameters
    ----------
    lower:
        Lower-triangular CSR matrix.  Entries above the diagonal are ignored
        (callers pass the split ILU factors, which are exactly triangular).
    rhs:
        Right-hand side vector.
    unit_diagonal:
        If true, the diagonal is taken to be all ones and any stored diagonal
        entries are ignored.

    Raises
    ------
    SingularMatrixError
        If a diagonal entry is zero (and ``unit_diagonal`` is false).
    """
    mat = sp.csr_matrix(lower)
    n = mat.shape[0]
    b = np.asarray(rhs, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        below = cols < i
        acc = b[i] - np.dot(vals[below], x[cols[below]])
        if unit_diagonal:
            x[i] = acc
            continue
        diag_pos = np.flatnonzero(cols == i)
        if diag_pos.size == 0 or vals[diag_pos[0]] == 0.0:
            raise SingularMatrixError(f"zero diagonal at row {i} in lower solve")
        x[i] = acc / vals[diag_pos[0]]
    return x


def solve_upper_triangular(upper: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for a (sparse) upper-triangular ``U`` by backward substitution.

    Raises
    ------
    SingularMatrixError
        If a diagonal entry is zero.
    """
    mat = sp.csr_matrix(upper)
    n = mat.shape[0]
    b = np.asarray(rhs, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for i in range(n - 1, -1, -1):
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        above = cols > i
        acc = b[i] - np.dot(vals[above], x[cols[above]])
        diag_pos = np.flatnonzero(cols == i)
        if diag_pos.size == 0 or vals[diag_pos[0]] == 0.0:
            raise SingularMatrixError(f"zero diagonal at row {i} in upper solve")
        x[i] = acc / vals[diag_pos[0]]
    return x


def _dependency_levels(strict: sp.csr_matrix) -> np.ndarray:
    """Longest-dependency-chain level of each row of a strictly triangular matrix.

    ``strict`` must only have entries whose column's level is computed before
    the row's (true for the strict lower triangle processed ascending, and
    for the strict upper triangle after reversing both axes).
    """
    n = strict.shape[0]
    levels = np.zeros(n, dtype=np.int64)
    indptr, indices = strict.indptr, strict.indices
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            levels[i] = levels[indices[lo:hi]].max() + 1
    return levels


class TriangularSolver:
    """Reusable level-ordered solver for one triangular CSR matrix.

    Parameters
    ----------
    matrix:
        Triangular CSR matrix (entries on the wrong side of the diagonal are
        ignored).
    lower:
        ``True`` for forward substitution, ``False`` for backward.
    unit_diagonal:
        Treat the diagonal as all ones (ILU ``L`` factors).

    Notes
    -----
    The build permutes rows and columns once into dependency-level order:
    every row of level ``l`` depends only on rows of earlier levels, which
    now form a contiguous prefix.  Writing ``T = D (I + N)`` with ``N`` the
    diagonal-scaled strict part, ``T x = b`` becomes ``x = D^{-1} b - N x``,
    and the rows ``[a, b)`` of one level are finished by the single update
    ``x[a:b] -= N[a:b, :a] @ x[:a]``.  One solve therefore costs one
    permutation gather in, one sparse product per level over contiguous
    row ranges, and one gather out: about one matvec plus a fixed
    per-level overhead.  That overhead makes it slower than a sequential
    substitution for a single right-hand side, but it is shared by every
    column of an ``(n, k)`` block, which is where it wins.
    """

    def __init__(self, matrix: sp.spmatrix, lower: bool, unit_diagonal: bool = False):
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise SingularMatrixError(
                f"triangular solve requires a square matrix, got {csr.shape}"
            )
        n = csr.shape[0]
        self.lower = lower
        self.unit_diagonal = unit_diagonal
        self.shape = csr.shape

        if unit_diagonal:
            inv_diag = np.ones(n, dtype=np.float64)
        else:
            diag = csr.diagonal()
            if np.any(diag == 0.0):
                bad = int(np.flatnonzero(diag == 0.0)[0])
                raise SingularMatrixError(
                    f"zero diagonal at row {bad} in triangular solver"
                )
            inv_diag = 1.0 / diag

        strict = sp.tril(csr, k=-1).tocsr() if lower else sp.triu(csr, k=1).tocsr()
        if lower:
            levels = _dependency_levels(strict)
        else:
            # Reverse both axes so backward substitution becomes forward.
            reversed_strict = strict[::-1, ::-1].tocsr()
            levels = _dependency_levels(reversed_strict)[::-1]
        # Position i of the level-ordered system is row order[i] of the matrix.
        order = np.argsort(levels, kind="stable")
        self._order = order
        self._restore = np.empty_like(order)
        self._restore[order] = np.arange(n)
        self._inv_diag = None if unit_diagonal else inv_diag[order]
        self.n_levels = int(levels.max()) + 1 if n else 0
        bounds = np.searchsorted(levels[order], np.arange(self.n_levels + 1))

        ordered = (sp.diags(inv_diag) @ strict).tocsr()[order][:, order].tocsr()
        ordered.sort_indices()
        # Level 0 has no dependencies; every later level keeps the columns
        # of the levels before it, which are all its non-zeros.
        self._levels: List[Tuple[int, int, sp.csr_matrix]] = [
            (int(a), int(b), ordered[a:b, :a].tocsr())
            for a, b in zip(bounds[1:-1], bounds[2:])
        ]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``T x = rhs`` for this triangular matrix ``T``.

        ``rhs`` may be a vector or an ``(n, k)`` matrix of any memory
        layout; a matrix is solved for all ``k`` columns in one level sweep.
        ``rhs`` is never modified.
        """
        b = np.asarray(rhs, dtype=np.float64)
        if b.shape[0] != self.shape[0]:
            raise SingularMatrixError(
                f"rhs length {b.shape[0]} does not match dimension {self.shape[0]}"
            )
        x = np.take(b, self._order, axis=0)
        if self._inv_diag is not None:
            x *= self._inv_diag if x.ndim == 1 else self._inv_diag[:, None]
        for a, end, sub in self._levels:
            x[a:end] -= sub @ x[:a]
        return np.take(x, self._restore, axis=0)
