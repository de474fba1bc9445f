"""Power iteration baseline (Section 2.2): no preprocessing, slow queries."""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.base import RWRSolver
from repro.graph.graph import Graph
from repro.linalg.power import power_iteration
from repro.linalg.rwr_matrix import row_normalize


class PowerSolver(RWRSolver):
    """RWR via power iteration ``r <- (1-c) A~^T r + c q``.

    Its only "preprocessing" is row-normalizing and transposing the
    adjacency matrix, which every iterative method needs anyway; the paper
    accordingly reports no preprocessing time or preprocessed-data memory
    for it.

    Parameters
    ----------
    max_iterations:
        Iteration cap per query (the geometric convergence rate ``1-c``
        means ~400 iterations at ``c=0.05, tol=1e-9``).
    """

    name = "Power"

    def __init__(self, c: float = 0.05, tol: float = 1e-9, max_iterations: int = 10_000, **kwargs):
        super().__init__(c=c, tol=tol, **kwargs)
        self.max_iterations = max_iterations
        self._at: Optional[sp.csr_matrix] = None

    def _preprocess(self, graph: Graph) -> None:
        # Not counted as preprocessed data: iterative methods hold only the
        # graph itself (paper, Section 2.2).
        self._at = row_normalize(graph.adjacency).T.tocsr()

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Column-by-column power iteration with per-seed timings.

        Deliberately *not* a blocked sparse mat-mat: one power step per
        column is a single SpMV whose working set (the ``(n,)`` iterate)
        is cache-resident, while an ``(n, k)`` block iteration streams
        multi-megabyte dense blocks from main memory every step and each
        column must still be frozen at its own stopping step to reproduce
        the single-seed scores.  Measured on RWR-sized systems the block
        variant is bandwidth-bound and slower; the iteration count, not
        per-step overhead, is what batching would need to amortize — and
        it cannot.
        """
        assert self._at is not None
        k = rhs.shape[1]
        score_rows = np.empty((k, rhs.shape[0]), dtype=np.float64)
        iterations = np.zeros(k, dtype=np.int64)
        converged = np.zeros(k, dtype=bool)
        per_seed = np.zeros(k, dtype=np.float64)
        for j in range(k):
            start = time.perf_counter()
            result = power_iteration(
                self._at,
                np.ascontiguousarray(rhs[:, j]),
                c=self.c,
                tol=self.tol,
                max_iterations=self.max_iterations,
            )
            per_seed[j] = time.perf_counter() - start
            score_rows[j] = result.r
            iterations[j] = result.n_iterations
            converged[j] = result.converged
        return (
            score_rows.T,
            iterations,
            {"converged": converged, "per_seed_seconds": per_seed},
        )
