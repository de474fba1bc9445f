"""Monte-Carlo RWR estimation (related work, Section 5).

The paper's related work covers Monte-Carlo approaches (Fast-PPR, Bahmani
et al.): simulate random walks with restart and estimate scores from the
empirical distribution of walk endpoints.  The estimator here follows the
exact semantics of ``r = c H^{-1} q``:

- at each step the surfer *stops* with probability ``c`` (the endpoint is
  a sample of the RWR distribution),
- otherwise it moves to a uniformly random out-neighbor,
- a surfer at a deadend that does not stop is absorbed and contributes no
  sample — reproducing the probability leak of the linear system
  (``sum(r) < 1`` on graphs with deadends).

Walks are simulated in vectorized batches over CSR arrays, so millions of
steps cost a handful of numpy operations per step.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.bench.memory import MemoryBudget
from repro.core.base import RWRSolver
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph


class MonteCarloSolver(RWRSolver):
    """Approximate RWR scores from ``n_walks`` simulated random walks.

    Parameters
    ----------
    n_walks:
        Walks simulated per query.  The per-entry standard error scales as
        ``O(1 / sqrt(n_walks))``.
    max_steps:
        Hard cap on walk length (a geometric(c) horizon has mean ``1/c``;
        the default covers > 1 - 1e-9 of its mass at c = 0.05).
    seed:
        RNG seed; queries are deterministic given (solver seed, query seed
        node).
    c, tol, memory_budget:
        See :class:`~repro.core.base.RWRSolver` (``tol`` is unused — the
        error is controlled by ``n_walks``).
    """

    name = "MonteCarlo"

    def __init__(
        self,
        n_walks: int = 10_000,
        max_steps: Optional[int] = None,
        seed: int = 0,
        c: float = 0.05,
        tol: float = 1e-9,
        memory_budget: Optional[MemoryBudget] = None,
    ):
        super().__init__(c=c, tol=tol, memory_budget=memory_budget)
        if n_walks < 1:
            raise InvalidParameterError(f"n_walks must be >= 1, got {n_walks}")
        self.n_walks = n_walks
        # Geometric(c) tail: P(T > t) = (1-c)^t; solve for 1e-9 mass.
        if max_steps is None:
            max_steps = int(np.ceil(np.log(1e-9) / np.log(1.0 - c))) + 1
        if max_steps < 1:
            raise InvalidParameterError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self.seed = seed
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._out_degrees: Optional[np.ndarray] = None

    def _preprocess(self, graph: Graph) -> None:
        # Monte Carlo needs only the CSR arrays of the graph itself, which
        # iterative methods are not charged for (paper's accounting).
        adj = graph.adjacency
        self._indptr = adj.indptr.astype(np.int64)
        self._indices = adj.indices.astype(np.int64)
        self._out_degrees = np.diff(self._indptr)

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Simulate ``n_walks`` walks per column, one column at a time."""
        assert self._indptr is not None
        n, k = rhs.shape
        scores = np.empty((n, k), dtype=np.float64)
        per_seed = np.zeros(k, dtype=np.float64)
        for j in range(k):
            start = time.perf_counter()
            weights = np.ascontiguousarray(rhs[:, j], dtype=np.float64)
            total = weights.sum()
            if total <= 0:
                raise InvalidParameterError("starting vector must have positive mass")
            # Deterministic per (solver seed, q): hash the support into the seed.
            support = np.flatnonzero(weights)
            rng = np.random.default_rng(
                (self.seed, int(support[0]), support.size)
            )

            # Start positions sampled from q (exact for one-hot seeds).
            starts = rng.choice(n, size=self.n_walks, p=weights / total)
            current = starts.copy()
            alive = np.ones(self.n_walks, dtype=bool)
            endpoint_counts = np.zeros(n, dtype=np.int64)

            for _step in range(self.max_steps):
                if not alive.any():
                    break
                active = np.flatnonzero(alive)
                # Stop-and-record with probability c.
                stops = rng.random(active.size) < self.c
                stopped_nodes = current[active[stops]]
                endpoint_counts += np.bincount(stopped_nodes, minlength=n)
                alive[active[stops]] = False

                movers = active[~stops]
                if movers.size == 0:
                    continue
                nodes = current[movers]
                degrees = self._out_degrees[nodes]
                # Deadend + no stop -> absorbed (no sample), matching the
                # linear-system leak.
                dead = degrees == 0
                alive[movers[dead]] = False
                moving = movers[~dead]
                if moving.size == 0:
                    continue
                nodes = current[moving]
                offsets = (rng.random(moving.size) * self._out_degrees[nodes]).astype(np.int64)
                current[moving] = self._indices[self._indptr[nodes] + offsets]

            # Walks still alive at the horizon carry < 1e-9 of the mass; they
            # are dropped, a bias far below the Monte-Carlo noise floor.
            scores[:, j] = endpoint_counts / self.n_walks
            per_seed[j] = time.perf_counter() - start
        iterations = np.full(k, self.max_steps, dtype=np.int64)
        return scores, iterations, {"per_seed_seconds": per_seed}

    def standard_error(self, scores: np.ndarray) -> np.ndarray:
        """Per-entry standard error of a returned score vector."""
        p = np.clip(np.asarray(scores, dtype=np.float64), 0.0, 1.0)
        return np.sqrt(p * (1.0 - p) / self.n_walks)
