"""Bear baseline (Shin et al., SIGMOD 2015; Section 2.3 of the paper).

Bear is the state-of-the-art *preprocessing* method BePI improves on: the
same hub-and-spoke reordering and block elimination, but the Schur
complement ``S`` is **inverted directly** in the preprocessing phase, so
queries need only matrix-vector products (Lemma 1).  The price is the dense
``S^{-1}`` — ``O(n2^2)`` memory and ``O(n2^3)`` time — which is exactly why
Bear cannot scale past medium graphs (Figure 1).

The dense-inverse cost is checked against the configured
:class:`~repro.bench.memory.MemoryBudget` *before* it is paid, so the
benchmark harness can reproduce the paper's out-of-memory failures safely.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.bench.memory import MemoryBudget, dense_memory_bytes
from repro.core.base import RWRSolver
from repro.core.engine import BearQueryEngine, SolverArtifacts
from repro.core.pipeline import PreprocessArtifacts, build_artifacts
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph

#: Bear concentrates entries with a small hub ratio (the paper uses 0.001
#: on full-size graphs; see repro.core.bepi.DEFAULT_SMALL_HUB_RATIO for the
#: scaled-down rationale).
DEFAULT_BEAR_HUB_RATIO = 0.05


class BearSolver(RWRSolver):
    """Bear: block elimination with a directly inverted Schur complement.

    Parameters
    ----------
    hub_ratio:
        SlashBurn hub selection ratio (small, to shrink ``n2`` — Bear's
        memory is quadratic in it).
    drop_tolerance:
        BEAR-Approx (Shin et al., Section 8 of their paper): entries of
        the dense ``S^{-1}`` with absolute value at or below this threshold
        are dropped and the inverse is stored *sparse*.  0.0 (default)
        keeps Bear exact; positive values trade accuracy for memory.
    """

    name = "Bear"

    def __init__(
        self,
        c: float = 0.05,
        tol: float = 1e-9,
        hub_ratio: float = DEFAULT_BEAR_HUB_RATIO,
        memory_budget: Optional[MemoryBudget] = None,
        drop_tolerance: float = 0.0,
    ):
        super().__init__(c=c, tol=tol, memory_budget=memory_budget)
        if not 0.0 < hub_ratio <= 1.0:
            raise InvalidParameterError(f"hub_ratio must be in (0, 1], got {hub_ratio}")
        if drop_tolerance < 0.0:
            raise InvalidParameterError(
                f"drop_tolerance must be >= 0, got {drop_tolerance}"
            )
        self.hub_ratio = hub_ratio
        self.drop_tolerance = drop_tolerance
        self._artifacts: Optional[PreprocessArtifacts] = None
        self._schur_inv = None  # dense ndarray (exact) or sparse (approx)
        self._engine: Optional[BearQueryEngine] = None

    def _preprocess(self, graph: Graph) -> None:
        artifacts = build_artifacts(graph, self.c, self.hub_ratio)
        self._artifacts = artifacts
        n2 = artifacts.n2

        # Fail fast if the dense inverse cannot fit the budget — this is the
        # step that kills Bear on large graphs.
        self.memory_budget.check(dense_memory_bytes((n2, n2)), what="Bear dense S^-1")

        start = time.perf_counter()
        if n2 > 0:
            schur_inv = np.linalg.inv(artifacts.schur.toarray())
            if self.drop_tolerance > 0.0:
                # BEAR-Approx: sparsify the inverse by magnitude.
                schur_inv[np.abs(schur_inv) <= self.drop_tolerance] = 0.0
                self._schur_inv = sp.csr_matrix(schur_inv)
            else:
                self._schur_inv = schur_inv
        else:
            self._schur_inv = np.zeros((0, 0))
        invert_seconds = time.perf_counter() - start

        self._retain("L1_inv", artifacts.h11_factors.l_inv)
        self._retain("U1_inv", artifacts.h11_factors.u_inv)
        self._retain("S_inv", self._schur_inv)
        self._retain("H12", artifacts.blocks["H12"])
        self._retain("H21", artifacts.blocks["H21"])
        self._retain("H31", artifacts.blocks["H31"])
        self._retain("H32", artifacts.blocks["H32"])

        self._engine = BearQueryEngine(
            SolverArtifacts(
                kind="bear",
                config={"c": self.c, "tol": self.tol, "hub_ratio": self.hub_ratio,
                        "drop_tolerance": self.drop_tolerance},
                graph=graph,
                preprocess=artifacts,
                schur_inv=self._schur_inv,
            )
        )

        self.stats.update(
            {
                "hub_ratio": self.hub_ratio,
                "n1": artifacts.n1,
                "n2": n2,
                "n3": artifacts.n3,
                "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
                "invert_schur_seconds": invert_seconds,
                "stage_timings": dict(artifacts.timings),
            }
        )

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Lemma 1 on an ``(n, k)`` block: every product becomes a mat-mat."""
        assert self._engine is not None
        return self._engine.query_block(rhs)

    @property
    def engine(self) -> BearQueryEngine:
        """The stateless query engine (requires :meth:`preprocess`)."""
        self._require_preprocessed()
        assert self._engine is not None
        return self._engine
