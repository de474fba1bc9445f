"""Simple preconditioners beyond the SGS factors of :mod:`repro.linalg.ilu`.

Section 3.5 of the paper picks ILU because the factors are cheap and
effective; it cites Jacobi-style and sparse-approximate-inverse schemes as
the standard alternatives.  :class:`JacobiPreconditioner` is the cheapest
of those and serves as the ablation's lower bar: almost free to build,
much weaker at clustering eigenvalues.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SingularMatrixError


class JacobiPreconditioner:
    """Diagonal (Jacobi) preconditioner: ``M^{-1} v = v / diag(A)``."""

    def __init__(self, matrix: sp.spmatrix):
        diag = sp.csr_matrix(matrix).diagonal()
        if np.any(diag == 0.0):
            bad = int(np.flatnonzero(diag == 0.0)[0])
            raise SingularMatrixError(
                f"Jacobi preconditioner needs a nonzero diagonal (row {bad})"
            )
        self._inv_diag = 1.0 / diag

    @classmethod
    def from_inverse_diagonal(cls, inv_diag: np.ndarray) -> "JacobiPreconditioner":
        """Rebuild a preconditioner from a stored ``1 / diag(A)`` array.

        Used by the persistence layer, which saves :attr:`inverse_diagonal`
        rather than the matrix it came from.
        """
        preconditioner = cls.__new__(cls)
        preconditioner._inv_diag = np.asarray(inv_diag, dtype=np.float64)
        return preconditioner

    @property
    def inverse_diagonal(self) -> np.ndarray:
        """The stored ``1 / diag(A)`` array (one entry per row)."""
        return self._inv_diag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1}`` to a vector or to each column of an ``(n, k)`` matrix."""
        arr = np.asarray(rhs, dtype=np.float64)
        scale = self._inv_diag if arr.ndim == 1 else self._inv_diag[:, None]
        return arr * scale

    @property
    def nnz(self) -> int:
        """Stored non-zeros (one per row)."""
        return int(self._inv_diag.shape[0])
