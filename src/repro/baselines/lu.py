"""LU-decomposition baseline (Fujiwara et al., Section 2.3 of the paper).

Reorders ``H`` by ascending node degree (the heuristic Fujiwara et al. use
to keep the triangular factors sparse), computes a sparse LU factorization
once, and answers each query with two triangular solves:
``r = c U^{-1} (L^{-1} P q)``.

The factorization itself uses scipy's SuperLU (a documented substitution
for the C++ Eigen SparseLU the paper's implementation relies on — see
DESIGN.md §4); memory accounting covers the retained ``L`` and ``U``
factors, which is where the method's scalability problem lives.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.base import RWRSolver
from repro.core.engine import LUQueryEngine
from repro.graph.graph import Graph
from repro.linalg.rwr_matrix import build_h_matrix
from repro.reorder.permutation import Permutation


class LUSolver(RWRSolver):
    """RWR via one-time sparse LU factorization of ``H``.

    Parameters
    ----------
    degree_reorder:
        Reorder nodes by ascending total degree before factorizing (the
        hub-last heuristic; disable to measure its effect).
    """

    name = "LU"

    def __init__(self, c: float = 0.05, tol: float = 1e-9, degree_reorder: bool = True, **kwargs):
        super().__init__(c=c, tol=tol, **kwargs)
        self.degree_reorder = degree_reorder
        self._lu: Optional[spla.SuperLU] = None
        self._perm: Optional[Permutation] = None
        self._engine: Optional[LUQueryEngine] = None

    def _preprocess(self, graph: Graph) -> None:
        if self.degree_reorder:
            degrees = graph.total_degrees()
            order = np.argsort(degrees, kind="stable")
            self._perm = Permutation(order)
            reordered = graph.permute(order)
        else:
            self._perm = Permutation.identity(graph.n_nodes)
            reordered = graph
        h = build_h_matrix(reordered.adjacency, self.c)
        # NATURAL column ordering honours our degree-based reordering instead
        # of SuperLU's own fill-reducing permutation.
        self._lu = spla.splu(sp.csc_matrix(h), permc_spec="NATURAL")
        self._engine = LUQueryEngine(self._lu.solve, self._perm, self.c)
        self._retain("L", self._lu.L)
        self._retain("U", self._lu.U)
        self.stats["nnz_factors"] = int(self._lu.L.nnz + self._lu.U.nnz)

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Multi-RHS triangular solves: SuperLU handles all ``k`` columns at once."""
        assert self._engine is not None
        return self._engine.query_block(rhs)

    @property
    def engine(self) -> LUQueryEngine:
        """The stateless query engine (requires :meth:`preprocess`)."""
        self._require_preprocessed()
        assert self._engine is not None
        return self._engine
