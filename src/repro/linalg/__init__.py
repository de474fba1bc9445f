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

from typing import TYPE_CHECKING

from repro._lazy import attach

# Bound eagerly: ``gmres`` shares its name with repro.linalg.gmres, and
# importing that module would bind the module here instead.
from repro.linalg.gmres import gmres as gmres

_EXPORTS = {
    "repro.linalg.block_lu": ("BlockDiagonalLU", "factorize_block_diagonal"),
    "repro.linalg.gmres": (
        "GMRESBatchResult",
        "GMRESResult",
        "GMRESWorkspace",
        "gmres",
        "gmres_multi",
    ),
    "repro.linalg.ilu": ("ILUFactors", "sgs_factors"),
    "repro.linalg.power": ("PowerResult", "power_iteration"),
    "repro.linalg.rwr_matrix": ("build_h_matrix", "partition_h", "row_normalize"),
    "repro.linalg.triangular": ("solve_lower_triangular", "solve_upper_triangular"),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.linalg.block_lu import (
        BlockDiagonalLU as BlockDiagonalLU,
        factorize_block_diagonal as factorize_block_diagonal,
    )
    from repro.linalg.gmres import (
        GMRESBatchResult as GMRESBatchResult,
        GMRESResult as GMRESResult,
        GMRESWorkspace as GMRESWorkspace,
        gmres_multi as gmres_multi,
    )
    from repro.linalg.ilu import (
        ILUFactors as ILUFactors,
        sgs_factors as sgs_factors,
    )
    from repro.linalg.power import (
        PowerResult as PowerResult,
        power_iteration as power_iteration,
    )
    from repro.linalg.rwr_matrix import (
        build_h_matrix as build_h_matrix,
        partition_h as partition_h,
        row_normalize as row_normalize,
    )
    from repro.linalg.triangular import (
        solve_lower_triangular as solve_lower_triangular,
        solve_upper_triangular as solve_upper_triangular,
    )
