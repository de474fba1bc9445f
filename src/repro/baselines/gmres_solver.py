"""GMRES baseline (Section 2.2): Krylov solve of the full system per query."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.base import RWRSolver
from repro.graph.graph import Graph
from repro.linalg.gmres import gmres_multi
from repro.linalg.rwr_matrix import build_h_matrix


class GMRESSolver(RWRSolver):
    """RWR by running (un-preconditioned) GMRES on ``H r = c q`` per query.

    The strongest iterative baseline in the paper's evaluation: no
    preprocessing beyond assembling ``H``, but the full-dimension Krylov
    solve must be repeated for every query.

    Parameters
    ----------
    restart:
        GMRES restart length (``None`` = full GMRES, the paper's setting).
    max_iterations:
        Iteration cap per query.
    """

    name = "GMRES"

    def __init__(
        self,
        c: float = 0.05,
        tol: float = 1e-9,
        restart: Optional[int] = None,
        max_iterations: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(c=c, tol=tol, **kwargs)
        self.restart = restart
        self.max_iterations = max_iterations
        self._h: Optional[sp.csr_matrix] = None

    def _preprocess(self, graph: Graph) -> None:
        # H itself is the working matrix of the iterative method, not
        # preprocessed data in the paper's accounting.
        self._h = build_h_matrix(graph.adjacency, self.c)

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """One multi-RHS GMRES call sharing the Krylov workspace across seeds."""
        assert self._h is not None
        batch = gmres_multi(
            self._h,
            self.c * rhs,
            tol=self.tol,
            restart=self.restart,
            max_iterations=self.max_iterations,
        )
        return batch.x, batch.n_iterations, {"converged": batch.converged}
