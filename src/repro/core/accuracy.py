"""Accuracy bounds of BePI (Section 3.6.3, Lemmas 2-4 and Theorem 4).

Theorem 4: with GMRES stopped at relative residual ``eps`` on the Schur
system, the full solution error satisfies

    ||r* - r|| <= sqrt((a ||H31|| + ||H32||)^2 + a^2 + 1)
                  * ||q2~|| / sigma_min(S) * eps

where ``a = ||H12|| / sigma_min(H11)``.  This module computes the bound's
ingredients (spectral norms and smallest singular values) so tests and
benchmarks can verify the theorem empirically, and so callers can back-solve
the tolerance needed for a target accuracy (the inequality at the end of
Section 3.6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.bepi import BePI
from repro.exceptions import InvalidParameterError
from repro.linalg.rwr_matrix import seed_vector

#: Matrices at or below this dimension use exact dense SVD.
DENSE_SVD_THRESHOLD = 3000


def spectral_norm(matrix: sp.spmatrix) -> float:
    """Largest singular value (2-norm) of a sparse matrix."""
    if min(matrix.shape) == 0 or matrix.nnz == 0:
        return 0.0
    if max(matrix.shape) <= DENSE_SVD_THRESHOLD:
        return float(np.linalg.norm(matrix.toarray(), 2))
    return float(spla.svds(matrix.astype(np.float64), k=1, return_singular_vectors=False)[0])


def smallest_singular_value(matrix: sp.spmatrix) -> float:
    """Smallest singular value of a square sparse matrix.

    Uses exact dense SVD below :data:`DENSE_SVD_THRESHOLD`; above it,
    computes ``1 / ||A^{-1}||_2`` through a sparse LU factorization and
    power iteration on ``A^{-1} A^{-T}`` (equivalent in exact arithmetic).
    """
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameterError("smallest singular value needs a square matrix")
    if n == 0:
        return 0.0
    if n <= DENSE_SVD_THRESHOLD:
        singulars = np.linalg.svd(matrix.toarray(), compute_uv=False)
        return float(singulars[-1])
    lu = spla.splu(sp.csc_matrix(matrix))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    norm_inv = 0.0
    for _ in range(100):
        w = lu.solve(lu.solve(v), trans="T")
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break
        v = w / norm
        if abs(norm - norm_inv) <= 1e-10 * max(norm, 1.0):
            norm_inv = norm
            break
        norm_inv = norm
    # norm_inv approximates ||A^{-1}||_2^2 at convergence of the symmetric
    # power iteration on A^{-1} A^{-T}.
    return 1.0 / math.sqrt(norm_inv) if norm_inv > 0 else 0.0


@dataclass(frozen=True)
class AccuracyBound:
    """Ingredients and evaluation of the Theorem 4 bound for one query.

    Attributes
    ----------
    alpha:
        ``||H12||_2 / sigma_min(H11)``.
    sigma_min_h11, sigma_min_schur:
        Smallest singular values of ``H11`` and ``S``.
    norm_h12, norm_h31, norm_h32:
        Spectral norms of the coupling blocks.
    q2_tilde_norm:
        ``||q2~||_2`` of the query's Schur right-hand side.
    factor:
        ``sqrt((alpha ||H31|| + ||H32||)^2 + alpha^2 + 1)``.
    """

    alpha: float
    sigma_min_h11: float
    sigma_min_schur: float
    norm_h12: float
    norm_h31: float
    norm_h32: float
    q2_tilde_norm: float

    @property
    def factor(self) -> float:
        inner = (self.alpha * self.norm_h31 + self.norm_h32) ** 2 + self.alpha**2 + 1.0
        return math.sqrt(inner)

    def error_bound(self, tol: float) -> float:
        """Upper bound on ``||r* - r||_2`` when GMRES stops at tolerance ``tol``."""
        if self.sigma_min_schur == 0.0:
            return math.inf
        return self.factor * self.q2_tilde_norm / self.sigma_min_schur * tol

    def tolerance_for(self, target_error: float) -> float:
        """Largest GMRES tolerance guaranteeing ``||r* - r||_2 <= target_error``."""
        if target_error <= 0:
            raise InvalidParameterError("target_error must be positive")
        denominator = self.factor * self.q2_tilde_norm
        if denominator == 0.0:
            return math.inf
        return target_error * self.sigma_min_schur / denominator


def accuracy_bound(solver: BePI, seed: int) -> AccuracyBound:
    """Compute the Theorem 4 bound ingredients for ``solver`` and ``seed``.

    The solver must be preprocessed.  Spectral quantities depend only on the
    preprocessing; ``||q2~||`` depends on the query.
    """
    artifacts = solver.artifacts
    blocks = artifacts.blocks
    c = solver.c
    n1, n2 = artifacts.n1, artifacts.n2

    q = seed_vector(solver.graph.n_nodes, seed)
    qp = artifacts.permutation.apply_to_vector(q)
    q1, q2 = qp[:n1], qp[n1 : n1 + n2]
    if n1 > 0:
        q2_tilde = c * q2 - blocks["H21"] @ artifacts.h11_factors.solve(c * q1)
    else:
        q2_tilde = c * q2

    if n1 > 0:
        if "H11" in blocks:
            sigma_min_h11 = smallest_singular_value(blocks["H11"])
        else:
            # Solvers loaded from an artifact directory carry only the
            # inverted LU factors; sigma_min(H11) = 1 / sigma_max(H11^{-1})
            # exactly.
            h11_inv = artifacts.h11_factors.u_inv @ artifacts.h11_factors.l_inv
            inv_norm = spectral_norm(h11_inv)
            sigma_min_h11 = 1.0 / inv_norm if inv_norm > 0 else math.inf
        norm_h12 = spectral_norm(blocks["H12"])
        alpha = norm_h12 / sigma_min_h11 if sigma_min_h11 > 0 else math.inf
    else:
        sigma_min_h11 = math.inf
        norm_h12 = 0.0
        alpha = 0.0

    return AccuracyBound(
        alpha=alpha,
        sigma_min_h11=sigma_min_h11,
        sigma_min_schur=smallest_singular_value(artifacts.schur) if n2 else math.inf,
        norm_h12=norm_h12,
        norm_h31=spectral_norm(blocks["H31"]),
        norm_h32=spectral_norm(blocks["H32"]),
        q2_tilde_norm=float(np.linalg.norm(q2_tilde)),
    )


def tolerance_for_target(solver: BePI, seed: int, target_error: float) -> float:
    """Convenience wrapper: the ``eps`` achieving ``||r* - r|| <= target_error``."""
    return accuracy_bound(solver, seed).tolerance_for(target_error)
