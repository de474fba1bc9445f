"""NB_LIN: low-rank approximate RWR (Tong, Faloutsos & Pan, 2008).

Cited as the main approximate preprocessing method in the paper's related
work (Section 5): decompose the normalized adjacency once, then answer
queries through the Sherman-Morrison-Woodbury identity.

With ``W = A~^T`` and a rank-``t`` SVD ``W ~= U Sigma V^T``, the RWR system
``(I - (1-c) W) r = c q`` has the closed-form approximation

    r ~= c [ q + (1-c) U ((Sigma^{-1} - (1-c) V^T U))^{-1} V^T q ]

so preprocessing stores two thin ``n x t`` factors and one tiny ``t x t``
core; queries cost two thin-matrix products.  Memory is ``O(n t)`` —
linear in ``n`` like BePI — but scores are only as good as the spectrum's
low-rank structure, which is the gap BePI closes exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.bench.memory import MemoryBudget
from repro.core.base import RWRSolver
from repro.exceptions import InvalidParameterError, SingularMatrixError
from repro.graph.graph import Graph
from repro.linalg.rwr_matrix import row_normalize


class NBLinSolver(RWRSolver):
    """Approximate RWR via rank-``t`` SVD of the normalized adjacency.

    Parameters
    ----------
    rank:
        Number of singular triplets ``t`` to keep.  Larger = more accurate,
        more memory, slower queries.
    c, tol, memory_budget:
        See :class:`~repro.core.base.RWRSolver` (``tol`` is unused: the
        method is direct but *approximate* — its error is controlled by
        ``rank``, not by a tolerance).

    Notes
    -----
    Unlike every other solver in this package, query results are
    approximations; check :meth:`approximation_error` on a sample before
    trusting downstream rankings.
    """

    name = "NB_LIN"

    def __init__(
        self,
        rank: int = 50,
        c: float = 0.05,
        tol: float = 1e-9,
        memory_budget: Optional[MemoryBudget] = None,
    ):
        super().__init__(c=c, tol=tol, memory_budget=memory_budget)
        if rank < 1:
            raise InvalidParameterError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self._u: Optional[np.ndarray] = None
        self._vt: Optional[np.ndarray] = None
        self._core: Optional[np.ndarray] = None

    def _preprocess(self, graph: Graph) -> None:
        n = graph.n_nodes
        if n < 3:
            raise InvalidParameterError("NB_LIN needs at least 3 nodes for an SVD")
        w = row_normalize(graph.adjacency).T.tocsc()
        t = min(self.rank, n - 2)
        u, sigma, vt = spla.svds(w.astype(np.float64), k=t)
        # svds returns ascending singular values; order is irrelevant to the
        # SMW identity but keep descending for readability of stats.
        order = np.argsort(-sigma)
        u, sigma, vt = u[:, order], sigma[order], vt[order, :]
        positive = sigma > 1e-12
        u, sigma, vt = u[:, positive], sigma[positive], vt[positive, :]
        if sigma.size == 0:
            raise SingularMatrixError("adjacency has no significant singular values")

        decay = 1.0 - self.c
        core_inverse = np.diag(1.0 / sigma) - decay * (vt @ u)
        try:
            core = np.linalg.inv(core_inverse)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate
            raise SingularMatrixError("NB_LIN core matrix is singular") from exc

        self._u = u
        self._vt = vt
        self._core = core
        self._retain("U", u)
        self._retain("core", core)
        self._retain("Vt", vt)
        self.stats.update(
            {
                "rank": int(sigma.size),
                "top_singular_value": float(sigma[0]),
                "smallest_kept_singular_value": float(sigma[-1]),
            }
        )

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Three thin products answer every column of the block at once."""
        assert self._u is not None and self._vt is not None and self._core is not None
        decay = 1.0 - self.c
        projected = self._vt @ rhs
        r = self.c * (rhs + decay * (self._u @ (self._core @ projected)))
        return r, np.zeros(rhs.shape[1], dtype=np.int64), {}

    def approximation_error(self, reference: RWRSolver, seeds) -> float:
        """Mean L2 error of this solver against an exact reference solver.

        Both solvers must be preprocessed on the same graph.
        """
        self._require_preprocessed()
        errors = [
            float(np.linalg.norm(self.query(int(s)) - reference.query(int(s))))
            for s in seeds
        ]
        return float(np.mean(errors))
