"""The common interface of every RWR method in this package.

Both the paper's contribution (BePI) and all baselines (Bear, LU, GMRES,
power iteration, dense inverse) implement :class:`RWRSolver`, so the
benchmark harness and the applications can treat them interchangeably:

    solver = BePI(c=0.05)
    solver.preprocess(graph)
    scores = solver.query(seed)
    matrix = solver.query_many(seeds)   # one batched Algorithm-4 pass

Every query goes through one subclass hook, :meth:`RWRSolver._query_batch`,
which solves an ``(n, k)`` block of starting vectors at once (the
bulk-serving pattern preprocessing methods exist for).  A single seed is a
width-one block whose column 0 is the answer.
"""

from __future__ import annotations

import abc
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry, tracing
from repro.bench.memory import MemoryBudget, matrix_memory_bytes
from repro.core.engine import validate_seed, validate_seeds
from repro.core.topk import TopKResult, topk_from_scores, validate_k
from repro.exceptions import (
    ConvergenceWarning,
    InvalidParameterError,
    NotPreprocessedError,
)
from repro.graph.graph import Graph
from repro.linalg.rwr_matrix import seed_vector
from repro.telemetry import MetricsRegistry, RegistryStats

#: ``stats`` keys that read through to registry counters (name mapping).
_STAT_COUNTERS = {
    "queries": telemetry.QUERIES_TOTAL,
    "unconverged_queries": telemetry.QUERIES_UNCONVERGED,
}


@dataclass
class QueryResult:
    """A scored query with solver-side metadata.

    Attributes
    ----------
    scores:
        RWR score vector in original node order.
    seconds:
        Wall-clock time of the query.
    iterations:
        Iterations the solver's inner iterative method used (0 for purely
        direct methods).
    extras:
        Solver-specific metadata.  Iterative solvers report ``"converged"``
        (bool) here; ``False`` means the returned scores missed the
        requested tolerance (a :class:`ConvergenceWarning` is emitted and
        ``solver.stats["unconverged_queries"]`` is incremented).
    """

    scores: np.ndarray
    seconds: float
    iterations: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class BatchQueryResult:
    """A batch of scored queries answered through one multi-RHS solve.

    Attributes
    ----------
    scores:
        ``(k, n)`` matrix; row ``i`` holds the RWR scores of seed ``i`` in
        original node order.
    seconds:
        Wall-clock time of the whole batch.
    iterations:
        ``(k,)`` inner-iteration counts, one per seed (0 for direct
        methods).
    per_seed_seconds:
        ``(k,)`` per-seed wall-clock times.  Measured individually by
        solvers that loop columns (power iteration, Monte Carlo); amortized
        (``seconds / k``) when the batch was answered by one vectorized
        solve.
    extras:
        Solver-specific metadata.  Iterative solvers report ``"converged"``
        as a ``(k,)`` boolean array (per-seed convergence of the inner
        solve).
    """

    scores: np.ndarray
    seconds: float
    iterations: np.ndarray
    per_seed_seconds: np.ndarray
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        return int(self.scores.shape[0])

    @property
    def all_converged(self) -> bool:
        """Whether every seed's inner solve converged (vacuously true for
        direct methods, which report no ``"converged"`` flags)."""
        flags = self.extras.get("converged")
        if flags is None:
            return True
        return bool(np.all(np.asarray(flags, dtype=bool)))


class RWRSolver(abc.ABC):
    """Abstract base class for Random Walk with Restart solvers.

    Parameters
    ----------
    c:
        Restart probability, strictly in ``(0, 1)``.  The paper uses 0.05.
    tol:
        Error tolerance of the inner iterative method (ignored by direct
        methods).  The paper uses 1e-9.
    memory_budget:
        Optional cap on preprocessed-data bytes; exceeding it raises
        :class:`~repro.exceptions.MemoryBudgetExceededError` during
        preprocessing, emulating the paper's out-of-memory failures.

    Subclass contract
    -----------------
    Implement :meth:`_preprocess` (store whatever the query phase needs and
    register retained matrices via :meth:`_retain`), and :meth:`_query_batch`
    (given an ``(n, k)`` block of starting vectors in *original* node order,
    return ``(scores, iterations, extras)`` with ``(n, k)`` scores in
    original order and ``(k,)`` iterations).  Put a ``(k,)`` boolean
    ``"converged"`` array in ``extras`` to opt into non-convergence
    accounting.  Every query method, single-seed ones included, answers
    through this one hook.
    """

    #: Human-readable method name used by the benchmark harness.
    name: str = "rwr"

    def __init__(
        self,
        c: float = 0.05,
        tol: float = 1e-9,
        memory_budget: Optional[MemoryBudget] = None,
    ):
        if not 0.0 < c < 1.0:
            raise InvalidParameterError(f"restart probability c must be in (0, 1), got {c}")
        if tol <= 0.0:
            raise InvalidParameterError(f"tol must be positive, got {tol}")
        self.c = c
        self.tol = tol
        self.memory_budget = memory_budget if memory_budget is not None else MemoryBudget()
        self._graph: Optional[Graph] = None
        self._retained: Dict[str, Any] = {}
        #: Per-solver metrics registry: the source of truth behind ``stats``.
        #: It is activated (made ambient) around every query, so nested
        #: GMRES/engine instrumentation lands here without plumbing.
        self.telemetry = MetricsRegistry()
        self.stats: Dict[str, Any] = RegistryStats(self.telemetry, _STAT_COUNTERS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_preprocessed(self) -> bool:
        return self._graph is not None

    @property
    def graph(self) -> Graph:
        """The preprocessed graph."""
        self._require_preprocessed()
        return self._graph  # type: ignore[return-value]

    def preprocess(self, graph: Graph) -> "RWRSolver":
        """Run the preprocessing phase on ``graph``.

        Returns ``self`` so construction and preprocessing chain:
        ``scores = BePI().preprocess(g).query(0)``.
        """
        self._retained = {}
        self.telemetry = MetricsRegistry(sampling=self.telemetry.sampling)
        self.stats = RegistryStats(self.telemetry, _STAT_COUNTERS)
        start = time.perf_counter()
        with self.telemetry.activate():
            self._preprocess(graph)
        elapsed = time.perf_counter() - start
        self._graph = graph
        self.stats["preprocess_seconds"] = elapsed
        self.stats["memory_bytes"] = self.memory_bytes()
        self.stats["queries"] = 0
        self.stats["unconverged_queries"] = 0
        self.telemetry.gauge("preprocess.seconds", help="preprocessing wall time").set(elapsed)
        self.telemetry.gauge(
            "memory.bytes", help="bytes of preprocessed data (Table 5)"
        ).set(self.stats["memory_bytes"])
        for stage, seconds in (self.stats.get("stage_timings") or {}).items():
            self.telemetry.gauge(
                f"preprocess.stage.{stage}.seconds", help=f"preprocessing stage: {stage}"
            ).set(seconds)
        self.memory_budget.check(self.stats["memory_bytes"], what=f"{self.name} preprocessed data")
        return self

    def query(self, seed: int) -> np.ndarray:
        """RWR scores of every node with respect to ``seed`` (original ids)."""
        return self.query_detailed(seed).scores

    def query_detailed(self, seed: int) -> QueryResult:
        """Like :meth:`query` but returns timing and iteration metadata.

        Raises
        ------
        InvalidParameterError
            If ``seed`` is not an integer in ``[0, n_nodes)``.
        """
        self._require_preprocessed()
        node = self._validate_seed(seed)
        q = seed_vector(self.graph.n_nodes, node)
        return self.query_vector(q)

    def query_vector(self, q: np.ndarray) -> QueryResult:
        """Solve ``H r = c q`` for an arbitrary starting vector ``q``.

        With several non-zero entries summing to one this computes
        Personalized PageRank, of which single-seed RWR is the special case
        (Section 2.1).
        """
        self._require_preprocessed()
        q_arr = np.asarray(q, dtype=np.float64)
        if q_arr.shape != (self.graph.n_nodes,):
            raise InvalidParameterError(
                f"starting vector must have shape ({self.graph.n_nodes},), "
                f"got {q_arr.shape}"
            )
        start = time.perf_counter()
        with self.telemetry.activate():
            scores, iterations, block_extras = self._query_batch(q_arr[:, None])
        elapsed = time.perf_counter() - start
        self.telemetry.histogram(
            telemetry.QUERY_SECONDS, help="wall seconds per query"
        ).observe(elapsed, exemplar=tracing.current_trace_hex())
        block_extras.pop("per_seed_seconds", None)
        # Per-seed entries of a width-one block unwrap to their column 0.
        extras = {
            key: value[0].item() if isinstance(value, np.ndarray) else value
            for key, value in block_extras.items()
        }
        self._record_convergence(extras.get("converged"), n_queries=1)
        return QueryResult(
            scores=scores[:, 0], seconds=elapsed, iterations=int(iterations[0]), extras=extras
        )

    def query_many(self, seeds: Iterable[int], batch_size: Optional[int] = None) -> np.ndarray:
        """RWR scores for several seeds; returns an ``(len(seeds), n)`` matrix.

        Row ``i`` equals ``query(seeds[i])``.  This is the bulk-serving
        pattern preprocessing methods exist for: one preprocessing pass,
        arbitrarily many cheap queries — answered here through the solver's
        batched multi-RHS path (Algorithm 4 evaluated once on an
        ``(n, k)`` block of one-hot columns instead of ``k`` times).
        """
        return self.query_many_detailed(seeds, batch_size=batch_size).scores

    def query_many_detailed(
        self,
        seeds: Iterable[int],
        batch_size: Optional[int] = None,
    ) -> BatchQueryResult:
        """Like :meth:`query_many` but with per-seed iterations and timings.

        Parameters
        ----------
        seeds:
            Seed node ids; each must be an integer in ``[0, n_nodes)``.
        batch_size:
            Optional chunk size.  ``None`` (default) answers all seeds in
            one multi-RHS solve; a positive value caps the dense RHS block
            at ``(n, batch_size)`` — the memory/throughput knob for very
            large seed lists.

        Raises
        ------
        InvalidParameterError
            If any seed is outside ``[0, n_nodes)`` or ``batch_size < 1``.
        """
        self._require_preprocessed()
        seed_arr = self._validate_seeds(seeds)
        n = self.graph.n_nodes
        k = seed_arr.shape[0]
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        if k == 0:
            return BatchQueryResult(
                scores=np.empty((0, n), dtype=np.float64),
                seconds=0.0,
                iterations=np.zeros(0, dtype=np.int64),
                per_seed_seconds=np.zeros(0, dtype=np.float64),
            )

        step = k if batch_size is None else int(batch_size)
        score_rows = np.empty((k, n), dtype=np.float64)
        iterations = np.empty(k, dtype=np.int64)
        per_seed = np.empty(k, dtype=np.float64)
        extras_chunks = []
        chunk_sizes = []
        start = time.perf_counter()
        for lo in range(0, k, step):
            chunk = seed_arr[lo : lo + step]
            size = chunk.shape[0]
            rhs = np.zeros((n, size), dtype=np.float64)
            rhs[chunk, np.arange(size)] = 1.0
            chunk_start = time.perf_counter()
            with self.telemetry.activate():
                scores, chunk_iterations, extras = self._query_batch(rhs)
            chunk_seconds = time.perf_counter() - chunk_start
            score_rows[lo : lo + size] = scores.T
            iterations[lo : lo + size] = np.asarray(chunk_iterations, dtype=np.int64)
            measured = extras.pop("per_seed_seconds", None)
            if measured is None:
                per_seed[lo : lo + size] = chunk_seconds / size
            else:
                per_seed[lo : lo + size] = measured
            extras_chunks.append(extras)
            chunk_sizes.append(size)
        elapsed = time.perf_counter() - start

        exemplar = tracing.current_trace_hex()
        self.telemetry.histogram(
            telemetry.BATCH_SECONDS, help="wall seconds per multi-seed batch"
        ).observe(elapsed, exemplar=exemplar)
        self.telemetry.histogram(
            telemetry.BATCH_SIZE,
            buckets=telemetry.BATCH_SIZE_BUCKETS,
            help="seeds per batched call (a query_topk is a batch of one)",
        ).observe(k)
        self.telemetry.histogram(
            telemetry.QUERY_SECONDS, help="wall seconds per query"
        ).observe_many(per_seed, exemplar=exemplar)
        merged = self._merge_batch_extras(extras_chunks, chunk_sizes)
        self._record_convergence(merged.get("converged"), n_queries=k)
        return BatchQueryResult(
            scores=score_rows,
            seconds=elapsed,
            iterations=iterations,
            per_seed_seconds=per_seed,
            extras=merged,
        )

    def query_topk(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
    ) -> TopKResult:
        """Exact top-``k`` ``(id, score)`` pairs with respect to ``seed``.

        Identical — ids and scores, bit for bit — to :meth:`query` followed
        by the deterministic lexicographic sort (equal scores break toward
        the smaller node id), but the full sort is avoided by the pruned
        selection of :mod:`repro.core.topk`.  ``k`` larger than the
        candidate pool (after optional ``exclude_seed`` and candidate
        dedup) returns the whole ordered pool; ``k < 1`` raises
        :class:`~repro.exceptions.InvalidParameterError`.
        """
        return self.query_topk_many([seed], k, exclude_seed, candidates)[0]

    def query_topk_many(
        self,
        seeds: Iterable[int],
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
        batch_size: Optional[int] = None,
    ) -> List[TopKResult]:
        """Top-``k`` answers for several seeds from one batched solve.

        Semantics per seed match :meth:`query_topk`; the dense solve is
        amortized through :meth:`query_many`'s multi-RHS path.
        """
        k = validate_k(k)
        seed_arr = self._validate_seeds(seeds)
        scores = self.query_many(seed_arr, batch_size=batch_size)
        with self.telemetry.activate():
            return [
                topk_from_scores(scores[i], int(seed), k, exclude_seed, candidates)
                for i, seed in enumerate(seed_arr)
            ]

    def memory_bytes(self) -> int:
        """Bytes of preprocessed data retained for the query phase."""
        return int(sum(matrix_memory_bytes(m) for m in self._retained.values()))

    def retained_matrices(self) -> Dict[str, Any]:
        """Name -> matrix mapping of everything kept for the query phase."""
        return dict(self._retained)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _preprocess(self, graph: Graph) -> None:
        """Build and retain the method's preprocessed data."""

    @abc.abstractmethod
    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Solve for every column of the ``(n, k)`` block ``rhs`` at once.

        Returns ``(scores, iterations, extras)`` where ``scores`` is
        ``(n, k)`` (column ``j`` answers column ``j`` of ``rhs``),
        ``iterations`` is ``(k,)``, and per-seed entries in ``extras``
        (e.g. ``"converged"``) are length-``k`` arrays.  A solver that
        loops columns may report measured ``"per_seed_seconds"``.  The
        base class handles seed validation, timing, chunking, and
        convergence accounting.
        """

    def _retain(self, name: str, matrix: Any) -> None:
        """Register a matrix as part of the preprocessed data (for memory accounting)."""
        self._retained[name] = matrix

    def _require_preprocessed(self) -> None:
        if self._graph is None:
            raise NotPreprocessedError(
                f"{type(self).__name__}.preprocess(graph) must be called before querying"
            )

    # ------------------------------------------------------------------
    # Shared query plumbing
    # ------------------------------------------------------------------
    def _validate_seed(self, seed) -> int:
        """Check one seed id against ``[0, n_nodes)``; return it as ``int``."""
        return validate_seed(seed, self.graph.n_nodes)

    def _validate_seeds(self, seeds: Iterable[int]) -> np.ndarray:
        """Validate a seed list; return it as an ``int64`` array.

        Vectorized (one array conversion + one bounds check) with error
        messages identical to the scalar path; see
        :func:`repro.core.engine.validate_seeds`.
        """
        return validate_seeds(seeds, self.graph.n_nodes)

    def _record_convergence(self, converged, n_queries: int) -> None:
        """Count queries and warn about (and count) unconverged inner solves."""
        self.telemetry.counter(telemetry.QUERIES_TOTAL, help="queries answered").inc(n_queries)
        self.stats.touch("queries")
        if converged is None:
            return
        flags = np.atleast_1d(np.asarray(converged, dtype=bool))
        failures = int(np.count_nonzero(~flags))
        if failures == 0:
            return
        self.telemetry.counter(
            telemetry.QUERIES_UNCONVERGED,
            help="queries whose inner solve missed the requested tolerance",
        ).inc(failures)
        self.stats.touch("unconverged_queries")
        warnings.warn(
            f"{self.name}: {failures} of {n_queries} queries did not reach "
            f"tol={self.tol}; scores may be less accurate than requested "
            "(raise max_iterations or loosen tol)",
            ConvergenceWarning,
            stacklevel=3,
        )

    @staticmethod
    def _merge_batch_extras(chunks, chunk_sizes) -> Dict[str, Any]:
        """Merge per-chunk extras; per-seed arrays are concatenated."""
        if len(chunks) == 1:
            return chunks[0]
        merged: Dict[str, Any] = {}
        keys = set().union(*chunks) if chunks else set()
        for key in keys:
            values = [chunk.get(key) for chunk in chunks]
            arrays = [np.asarray(v) if v is not None else None for v in values]
            if all(
                a is not None and a.ndim >= 1 and a.shape[0] == size
                for a, size in zip(arrays, chunk_sizes)
            ):
                merged[key] = np.concatenate(arrays)
            else:
                merged[key] = values
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "preprocessed" if self.is_preprocessed else "unfitted"
        return f"{type(self).__name__}(c={self.c}, tol={self.tol}, {state})"
