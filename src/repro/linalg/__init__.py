"""Numerical linear algebra built from scratch for the RWR solvers.

Contains everything the paper's Algorithms 1-5 need:

- RWR system assembly ``H = I - (1-c) A~^T`` (:mod:`repro.linalg.rwr_matrix`),
- block-diagonal LU inversion of ``H11`` (:mod:`repro.linalg.block_lu`),
- GMRES with optional left preconditioning, Arnoldi + Givens rotations
  (:mod:`repro.linalg.gmres`),
- the Schur preconditioner, SGS factors of ``S`` (:mod:`repro.linalg.ilu`),
- reference sparse triangular solves (:mod:`repro.linalg.triangular`),
- power iteration (:mod:`repro.linalg.power`).

All routines operate on ``scipy.sparse`` matrices as the storage format but
implement the algorithms themselves; the test suite cross-checks them
against scipy's reference implementations.
"""

from repro.linalg.block_lu import BlockDiagonalLU, factorize_block_diagonal
from repro.linalg.gmres import (
    GMRESBatchResult,
    GMRESResult,
    GMRESWorkspace,
    gmres,
    gmres_multi,
)
from repro.linalg.ilu import ILUFactors, sgs_factors
from repro.linalg.power import PowerResult, power_iteration
from repro.linalg.rwr_matrix import (
    build_h_matrix,
    partition_h,
    row_normalize,
)
from repro.linalg.triangular import solve_lower_triangular, solve_upper_triangular

__all__ = [
    "BlockDiagonalLU",
    "GMRESBatchResult",
    "GMRESResult",
    "GMRESWorkspace",
    "ILUFactors",
    "PowerResult",
    "build_h_matrix",
    "factorize_block_diagonal",
    "gmres",
    "gmres_multi",
    "partition_h",
    "power_iteration",
    "row_normalize",
    "sgs_factors",
    "solve_lower_triangular",
    "solve_upper_triangular",
]
