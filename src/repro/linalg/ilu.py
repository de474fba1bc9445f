"""The BePI Schur preconditioner: symmetric Gauss–Seidel factors of ``S``.

Section 3.5 of the paper preconditions GMRES with ILU(0) factors of ``S``.
This module builds the factors directly from ``S`` instead::

    L = I + tril(S, -1) D^{-1},    U = triu(S),    D = diag(S)

the symmetric Gauss–Seidel (SGS) splitting, which is ILU(0) with its
fill-correction products dropped and the starting guess of Chow and Patel's
fine-grained ILU (*Fine-Grained Parallel Incomplete LU Factorization*, SIAM
J. Sci. Comput. 2015).  The factors have exactly the pattern of ``S`` and
cost ``O(|S|)`` with no elimination.  :meth:`ILUFactors.solve` applies them
by one Jacobi sweep each, which forgives the difference from exact ILU(0):
GMRES takes the same iterations on R-MAT Schur complements.

Nothing but ``S`` is needed, so an artifact bundle stores no factors; the
strict parts are derived from ``S`` on the first application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SingularMatrixError


@dataclass(frozen=True)
class ILUFactors:
    """SGS factors ``L = I + tril(S, -1) D^{-1}`` and ``U = triu(S)`` of ``S``.

    Holds ``S`` alone; what :meth:`solve` needs is derived on its first
    call, so opening a memory-mapped ``S`` touches none of its pages.
    """

    matrix: sp.csr_matrix

    @cached_property
    def _parts(self) -> Tuple[np.ndarray, sp.csr_matrix, sp.csr_matrix]:
        """``(d, L_s, N)``: ``d = diag(S)``, ``L_s = tril(S, -1) D^{-1}`` and
        ``N = D^{-1} triu(S, 1)``, the strict parts of the two factors."""
        s = self.matrix
        d = np.asarray(s.diagonal(), dtype=np.float64)
        if np.any(d == 0.0):
            bad = int(np.flatnonzero(d == 0.0)[0])
            raise SingularMatrixError(f"zero diagonal entry of S at row {bad}")
        n, cols = s.shape[0], s.indices
        rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(s.indptr))
        parts = []
        for keep, by_row in ((cols < rows, False), (cols > rows, True)):
            kept_rows, indices = rows[keep], cols[keep]
            data = s.data[keep]
            data /= d[kept_rows if by_row else indices]
            indptr = np.zeros(n + 1, dtype=s.indptr.dtype)
            np.cumsum(np.bincount(kept_rows, minlength=n), out=indptr[1:])
            parts.append(sp.csr_matrix((data, indices, indptr), shape=s.shape))
        return d, parts[0], parts[1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: one Jacobi sweep per triangular factor.

        With ``L = I + L_s`` and ``U = D (I + N)``, each factor's inverse is
        replaced by the first two terms of its Neumann series::

            M^{-1} b = (I - N) D^{-1} (I - L_s) b

        (the iterative triangular solve of Anzt, Chow and Dongarra, one
        sweep from a zero start), evaluated as ``z = (b - L_s b) / d`` and
        ``x = z - N z``: two sparse products over the strict parts of ``S``,
        about one matvec of ``S``, at every width.  ``rhs`` may be a vector
        or an ``(n, k)`` block; column ``j`` of a block's answer is
        bit-equal to the answer for column ``j`` alone.
        """
        d, lower, upper = self._parts
        b = np.asarray(rhs, dtype=np.float64)
        z = (b - lower @ b) / d.reshape((-1,) + (1,) * (b.ndim - 1))
        return z - upper @ z

    @property
    def l(self) -> sp.csr_matrix:
        """The unit lower factor ``L``, materialised."""
        lower = self._parts[1]
        return (lower + sp.identity(lower.shape[0], format="csr")).tocsr()

    @property
    def u(self) -> sp.csr_matrix:
        """The upper factor ``U = triu(S)``, materialised."""
        return sp.triu(self.matrix, k=0, format="csr")

    @property
    def nnz(self) -> int:
        """Non-zeros of ``L`` and ``U`` together: ``|S| + n``."""
        return int(self.matrix.nnz + self.matrix.shape[0])


def sgs_factors(matrix: sp.spmatrix) -> ILUFactors:
    """The SGS factors of a square sparse matrix, derived at once.

    Raises
    ------
    SingularMatrixError
        If the matrix is not square or has a zero (or missing) diagonal
        entry: ``D^{-1}`` must exist.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"SGS factors need a square matrix, got {csr.shape}")
    factors = ILUFactors(csr)
    factors._parts  # noqa: B018 - derive now, so a zero diagonal raises here
    return factors
