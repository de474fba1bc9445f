"""Schur complement of ``H11`` (Lemma 1 / Algorithm 1 line 6).

``S = H22 - H21 (U1^{-1} (L1^{-1} H12))`` — computed right-to-left through
the inverted LU factors of the block-diagonal ``H11``, exactly as the paper
prescribes, so no dense ``H11^{-1}`` is ever formed.

:func:`compute_schur_complement_parts` additionally reports the non-zero
counts of ``H22`` and of the correction term ``H21 H11^{-1} H12`` — the two
sides of the Section 3.4 bound ``|S| <= |H22| + |H21 H11^{-1} H12|`` — as
by-products of the build, so the hub-ratio sweep never recomputes the
correction product just to count it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import scipy.sparse as sp

from repro.linalg.block_lu import BlockDiagonalLU


@dataclass(frozen=True)
class SchurComplementParts:
    """The Schur complement plus the sparsity measurements of Section 3.4.

    Attributes
    ----------
    schur:
        ``S = H22 - H21 H11^{-1} H12`` as CSR.
    nnz_h22:
        Non-zeros of ``H22``.
    nnz_correction:
        Non-zeros of the correction term ``H21 H11^{-1} H12``.
    """

    schur: sp.csr_matrix
    nnz_h22: int
    nnz_correction: int


def compute_schur_complement_parts(
    blocks: Mapping[str, sp.csr_matrix],
    h11_factors: BlockDiagonalLU,
    drop_tolerance: float = 0.0,
) -> SchurComplementParts:
    """Compute ``S = H22 - H21 H11^{-1} H12`` and its sparsity breakdown.

    Parameters
    ----------
    blocks:
        The partition produced by :func:`repro.linalg.rwr_matrix.partition_h`
        (needs ``H12``, ``H21``, ``H22``).
    h11_factors:
        Inverted LU factors of ``H11``.
    drop_tolerance:
        Entries with absolute value at or below this threshold are dropped
        from the result (0 keeps exact values; only numerically exact zeros
        are removed).
    """
    h12 = blocks["H12"]
    h21 = blocks["H21"]
    h22 = blocks["H22"]
    if h12.shape[0] == 0 or h12.shape[1] == 0:
        # No spokes (or no hubs): the correction term vanishes.
        schur = h22.copy().tocsr()
        nnz_correction = 0
    else:
        inner = h11_factors.solve_matrix(h12)
        correction = (h21 @ inner).tocsr()
        schur = (h22 - correction).tocsr()
        correction.eliminate_zeros()
        nnz_correction = int(correction.nnz)
    if drop_tolerance > 0.0:
        mask = abs(schur.data) <= drop_tolerance
        schur.data[mask] = 0.0
    schur.eliminate_zeros()
    schur.sort_indices()
    return SchurComplementParts(
        schur=schur, nnz_h22=int(h22.nnz), nnz_correction=nnz_correction
    )


def compute_schur_complement(
    blocks: Mapping[str, sp.csr_matrix],
    h11_factors: BlockDiagonalLU,
    drop_tolerance: float = 0.0,
) -> sp.csr_matrix:
    """Compute ``S = H22 - H21 H11^{-1} H12``.

    Thin wrapper around :func:`compute_schur_complement_parts` returning
    only the Schur complement as a CSR matrix of dimension ``n2 x n2``.
    """
    return compute_schur_complement_parts(
        blocks, h11_factors, drop_tolerance=drop_tolerance
    ).schur
