"""Sparse triangular solves (forward/backward substitution) on CSR matrices.

The paper's Algorithm 5 applies the ILU factors by exact substitution.
:class:`repro.linalg.ilu.ILUFactors` replaces it with one Jacobi sweep per
factor; these row-by-row substitutions remain as the exact reference that
tests compare against.
"""

from __future__ import annotations

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
