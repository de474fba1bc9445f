"""Dense-inverse reference solver: ``r = c H^{-1} q`` (Section 2.3).

The naive preprocessing method: invert ``H`` once, answer queries with one
dense matrix-vector product.  ``O(n^3)`` preprocessing and ``O(n^2)`` memory
make it usable only on small graphs — exactly the scalability wall the
paper opens with — but it is the perfect *oracle* for correctness tests and
for the accuracy experiment of Appendix I.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.bench.memory import MemoryBudget, dense_memory_bytes
from repro.core.base import RWRSolver
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.rwr_matrix import build_h_matrix


class DenseSolver(RWRSolver):
    """Exact RWR via an explicitly inverted dense ``H``.

    Parameters
    ----------
    c, tol, memory_budget:
        See :class:`~repro.core.base.RWRSolver` (``tol`` is unused — the
        method is direct).
    max_nodes:
        Refuse graphs larger than this (guards against accidentally
        materializing an enormous dense inverse).
    """

    name = "Inversion"

    def __init__(
        self,
        c: float = 0.05,
        tol: float = 1e-9,
        memory_budget: Optional[MemoryBudget] = None,
        max_nodes: int = 5000,
    ):
        super().__init__(c=c, tol=tol, memory_budget=memory_budget)
        self.max_nodes = max_nodes
        self._h_inv: Optional[np.ndarray] = None

    def _preprocess(self, graph: Graph) -> None:
        n = graph.n_nodes
        if n > self.max_nodes:
            raise InvalidParameterError(
                f"DenseSolver refuses graphs with more than {self.max_nodes} nodes "
                f"(got {n}); raise max_nodes explicitly if you really mean it"
            )
        self.memory_budget.check(dense_memory_bytes((n, n)), what="dense H^-1")
        h = build_h_matrix(graph.adjacency, self.c).toarray()
        self._h_inv = np.linalg.inv(h)
        self._retain("H_inv", self._h_inv)

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """One dense mat-mat product answers the whole batch."""
        assert self._h_inv is not None
        k = rhs.shape[1]
        return self.c * (self._h_inv @ rhs), np.zeros(k, dtype=np.int64), {}
