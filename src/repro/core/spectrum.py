"""Spectral diagnostics of the Schur complement (Section 4.5.2, Figure 7).

The paper explains BePI's fast GMRES convergence through the eigenvalue
distribution of the preconditioned system: ILU(0) pulls the spectrum into
a tight cluster around 1, and so do the SGS factors that stand in for it
here (:mod:`repro.linalg.ilu`).  This module computes those spectra for a
preprocessed solver so users (and the Figure 7 bench) can inspect the
effect directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from repro.core.bepi import BePI
from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues of ``S`` and of the preconditioned ``M^{-1} S``.

    Attributes
    ----------
    plain:
        Largest-magnitude eigenvalues of the Schur complement.
    preconditioned:
        Largest-magnitude eigenvalues of ``M^{-1} S`` (``None`` when the
        solver has no preconditioner).
    """

    plain: np.ndarray
    preconditioned: Optional[np.ndarray]

    @staticmethod
    def _dispersion(values: np.ndarray) -> float:
        return float(np.std(np.abs(values)))

    @staticmethod
    def _spread_from_one(values: np.ndarray) -> float:
        return float(np.max(np.abs(values - 1.0)))

    @property
    def dispersion_plain(self) -> float:
        """Standard deviation of ``|lambda|`` for the original spectrum."""
        return self._dispersion(self.plain)

    @property
    def dispersion_preconditioned(self) -> Optional[float]:
        if self.preconditioned is None:
            return None
        return self._dispersion(self.preconditioned)

    @property
    def clustering_improvement(self) -> Optional[float]:
        """How much tighter the preconditioned cluster is (ratio > 1 = better)."""
        if self.preconditioned is None:
            return None
        tight = self._spread_from_one(self.preconditioned)
        if tight == 0.0:
            return float("inf")
        return self._spread_from_one(self.plain) / tight


def schur_spectrum(solver: BePI, n_eigenvalues: int = 100) -> SpectrumReport:
    """Top eigenvalues of the solver's Schur complement, before and after
    preconditioning.

    Parameters
    ----------
    solver:
        A preprocessed :class:`~repro.core.bepi.BePI` (any variant).
    n_eigenvalues:
        How many largest-magnitude eigenvalues to compute (capped at
        ``n2 - 2``, the Arnoldi limit).

    Raises
    ------
    InvalidParameterError
        If the Schur complement is too small for an Arnoldi eigensolve.
    """
    schur = solver.artifacts.schur
    n2 = schur.shape[0]
    if n2 < 3:
        raise InvalidParameterError(
            f"Schur complement of dimension {n2} is too small for eigenvalues"
        )
    k = min(n_eigenvalues, n2 - 2)

    plain = spla.eigs(
        spla.LinearOperator((n2, n2), matvec=lambda v: schur @ v),
        k=k, which="LM", return_eigenvectors=False, maxiter=5000, tol=1e-8,
    )

    preconditioned = None
    if solver.ilu_factors is not None:
        ilu = solver.ilu_factors
        preconditioned = spla.eigs(
            spla.LinearOperator((n2, n2), matvec=lambda v: ilu.solve(schur @ v)),
            k=k, which="LM", return_eigenvectors=False, maxiter=5000, tol=1e-8,
        )

    return SpectrumReport(plain=plain, preconditioned=preconditioned)
