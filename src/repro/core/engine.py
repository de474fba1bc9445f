"""Stateless query engines: the serve half of the build/serve split.

Preprocessing (Algorithms 1-3) is a *build* step; answering queries
(Algorithm 4) is a *serve* step.  Historically both lived inside the
:class:`~repro.core.base.RWRSolver` subclasses, which meant the only way to
answer a query was to hold a full solver object — with its statistics,
memory budget, and preprocessing configuration — even in a worker process
whose sole job is evaluating Algorithm 4 against data somebody else built.

This module separates the two:

- :class:`SolverArtifacts` is the **immutable boundary object** between the
  phases: every matrix and configuration value the query phase reads,
  bundled once, never mutated.  A bundle can come from a fresh
  ``preprocess()`` run or be reassembled zero-copy from memory-mapped
  arrays in an on-disk artifact directory (see :mod:`repro.persistence`) —
  the engines cannot tell the difference.
- :class:`QueryEngine` subclasses are **stateless executors**: they hold a
  reference to a bundle and pure configuration, keep no counters and no
  caches, and may therefore be shared freely across threads and opened
  independently by any number of worker processes
  (:mod:`repro.serve`).

The solver classes delegate their query phase here.  Each engine has one
solve, :meth:`QueryEngine.query_block` on an ``(n, k)`` block of starting
vectors; a single seed is a width-one block.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry, tracing
from repro.core.pipeline import PreprocessArtifacts
from repro.core.topk import TopKResult, topk_from_scores, validate_k
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.gmres import gmres_multi
from repro.reorder.permutation import Permutation


@dataclass(frozen=True)
class SolverArtifacts:
    """Everything the query phase of a block-elimination solver reads.

    Instances are immutable (the dataclass is frozen and every consumer
    treats the member matrices as read-only); when loaded from a v3
    artifact directory the underlying arrays are memory-mapped read-only,
    so accidental mutation raises instead of corrupting shared state.

    Attributes
    ----------
    kind:
        Solver family that produced (and can serve) the bundle:
        ``"bepi"`` or ``"bear"``.
    config:
        Query-phase configuration: ``c``, ``tol``, ``gmres_restart``,
        ``max_iterations`` for BePI; ``c`` for Bear.
        Build-phase settings (``hub_ratio``, ``use_preconditioner``, ...) ride
        along for provenance.
    graph:
        The preprocessed graph (original node order).
    preprocess:
        The Algorithm 1-3 output bundle (permutation, blocks, inverted
        ``H11`` factors, Schur complement).
    preconditioner:
        ``ILUFactors`` or ``None`` (BePI only).
    schur_inv:
        The dense (or BEAR-Approx sparse) ``S^{-1}`` (Bear only).
    source:
        The artifact directory the bundle was loaded from, or ``None`` for
        a bundle built in memory.
    """

    kind: str
    config: Dict[str, Any]
    graph: Graph
    preprocess: PreprocessArtifacts
    preconditioner: Optional[Any] = None
    schur_inv: Optional[Any] = None
    source: Optional[Path] = None

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


def validate_seeds(seeds, n_nodes: int) -> np.ndarray:
    """Validate a batch of seed node ids against ``[0, n_nodes)``.

    Vectorized replacement for the historical per-seed Python loop: one
    array conversion plus one bounds check for the common integer-array
    case, which is what million-seed batch serving hands in.  Error
    messages are identical to the scalar path — on any invalid input the
    slow per-element loop re-runs purely to raise the same
    :class:`InvalidParameterError` the loop would have raised.
    """
    if isinstance(seeds, np.ndarray):
        arr = seeds
    else:
        seeds = list(seeds)
        try:
            arr = np.asarray(seeds)
        except (ValueError, TypeError):
            arr = np.asarray(seeds, dtype=object)
    if arr.ndim != 1:
        return _validate_seeds_slow(seeds, n_nodes)
    kind = arr.dtype.kind
    if kind in "uib":
        if kind == "u" and arr.size and int(arr.max()) > np.iinfo(np.int64).max:
            return _validate_seeds_slow(seeds, n_nodes)
        out = arr.astype(np.int64)
    elif kind == "f":
        if arr.size and (
            not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr))
        ):
            return _validate_seeds_slow(seeds, n_nodes)
        out = arr.astype(np.int64)
    else:
        return _validate_seeds_slow(seeds, n_nodes)
    invalid = (out < 0) | (out >= n_nodes)
    if np.any(invalid):
        node = int(out[int(np.argmax(invalid))])
        raise InvalidParameterError(f"seed node {node} out of range [0, {n_nodes})")
    return out


def validate_seed(seed, n_nodes: int) -> int:
    """Check one seed id against ``[0, n_nodes)``; return it as ``int``."""
    try:
        node = int(seed)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"seed must be an integer node id, got {seed!r}")
    if node != seed:
        raise InvalidParameterError(f"seed must be an integer node id, got {seed!r}")
    if not 0 <= node < n_nodes:
        raise InvalidParameterError(f"seed node {node} out of range [0, {n_nodes})")
    return node


def _validate_seeds_slow(seeds, n_nodes: int) -> np.ndarray:
    """The historical per-seed loop, kept for its exact error messages."""
    return np.array([validate_seed(s, n_nodes) for s in seeds], dtype=np.int64)


def _record_engine_chunk(registry, size: int, seconds: float, converged) -> None:
    """Count one answered chunk (queries, amortized latency, failures)."""
    registry.counter(
        telemetry.QUERIES_TOTAL, help="queries answered"
    ).inc(size)
    if size:
        registry.histogram(
            telemetry.QUERY_SECONDS, help="wall seconds per query (amortized in batches)"
        ).observe_many(
            [seconds / size] * size, exemplar=tracing.current_trace_hex()
        )
    if converged is not None:
        failures = int(np.count_nonzero(~np.atleast_1d(np.asarray(converged, dtype=bool))))
        if failures:
            registry.counter(
                telemetry.QUERIES_UNCONVERGED,
                help="queries whose inner solve missed the requested tolerance",
            ).inc(failures)


class QueryEngine(abc.ABC):
    """Stateless executor of a solver's query phase.

    An engine is a pure function of its (immutable) inputs: it keeps no
    statistics, mutates nothing, and returns plain
    ``(scores, iterations, extras)`` tuples.  Timing, convergence
    accounting and warnings stay in :class:`~repro.core.base.RWRSolver`,
    which now delegates the math here; serving workers use the engine
    directly (:mod:`repro.serve`) without any solver object around it.
    """

    #: Solver family served by this engine class.
    kind: str = "rwr"

    @property
    @abc.abstractmethod
    def n_nodes(self) -> int:
        """Number of nodes scored per query."""

    @abc.abstractmethod
    def query_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Solve for every column of an ``(n, k)`` block of starting vectors.

        The engine's only solve: one starting vector is a width-one block.
        ``deadline`` is an optional ``time.monotonic()`` budget: engines
        with an iterative inner solve stop at its expiry and return their
        best-effort iterate (``extras["converged"]`` reports what was
        actually reached); direct engines may ignore it.  Block-elimination
        engines also report ``extras["certificate"]``: per column, a proven
        bound on the L1 distance of the returned scores to the exact ones.
        """

    def query_many(
        self,
        seeds,
        batch_size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """RWR scores for a batch of seed ids; returns a ``(k, n)`` matrix.

        The serving entry point: validates seeds, builds the one-hot
        right-hand-side block(s), and runs :meth:`query_block`.  Row ``i``
        holds the scores of ``seeds[i]`` in original node order.
        ``deadline`` (a ``time.monotonic()`` instant) bounds the inner
        solves — see :meth:`query_block`.

        Although engines keep no state of their own, this path *does*
        report into the ambient telemetry registry
        (:func:`repro.telemetry.get_registry`): query counts, amortized
        per-query latency, and — crucially — convergence failures, which a
        stateless serving worker would otherwise drop on the floor (the
        flags only lived in the discarded ``query_block`` extras).
        """
        n = self.n_nodes
        seed_arr = validate_seeds(seeds, n)
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        k = seed_arr.shape[0]
        registry = telemetry.get_registry()
        scores = np.empty((k, n), dtype=np.float64)
        step = k if batch_size is None else int(batch_size)
        batch_start = time.perf_counter()
        for lo in range(0, k, step):
            chunk = seed_arr[lo : lo + step]
            size = chunk.shape[0]
            rhs = np.zeros((n, size), dtype=np.float64)
            rhs[chunk, np.arange(size)] = 1.0
            chunk_start = time.perf_counter()
            if deadline is None:
                block_scores, _, extras = self.query_block(rhs)
            else:
                block_scores, _, extras = self.query_block(rhs, deadline=deadline)
            chunk_seconds = time.perf_counter() - chunk_start
            scores[lo : lo + size] = block_scores.T
            _record_engine_chunk(registry, size, chunk_seconds, extras.get("converged"))
        if k:
            registry.histogram(
                telemetry.BATCH_SECONDS, help="wall seconds per query_many batch"
            ).observe(
                time.perf_counter() - batch_start,
                exemplar=tracing.current_trace_hex(),
            )
            registry.histogram(
                telemetry.BATCH_SIZE,
                buckets=telemetry.BATCH_SIZE_BUCKETS,
                help="seeds per query_many batch",
            ).observe(k)
        return scores

    def query_topk(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
    ) -> TopKResult:
        """Exact top-``k`` ``(id, score)`` pairs for one seed.

        Identical — ids and scores, bit for bit — to running :meth:`query_many`
        and sorting the dense row with the deterministic lexicographic
        tie-break (equal scores break toward the smaller node id); see
        :mod:`repro.core.topk` for the selection contract.  ``k`` beyond
        the candidate pool returns the whole ordered pool.
        """
        return self.query_topk_many(
            [seed], k, exclude_seed=exclude_seed, candidates=candidates,
            deadline=deadline,
        )[0]

    def query_topk_many(
        self,
        seeds,
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
        batch_size: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[TopKResult]:
        """Exact top-``k`` answers for a batch of seeds (one multi-RHS solve).

        The dense ``(len(seeds), n)`` block never leaves this method: each
        row is reduced to at most ``k`` pairs by the pruned selection of
        :func:`repro.core.topk.topk_from_scores`, which is what lets the
        serving wire carry k-pair replies instead of n-float rows.
        """
        k = validate_k(k)
        seed_arr = validate_seeds(seeds, self.n_nodes)
        scores = self.query_many(seed_arr, batch_size=batch_size, deadline=deadline)
        return [
            topk_from_scores(scores[i], int(seed), k, exclude_seed, candidates)
            for i, seed in enumerate(seed_arr)
        ]


class BlockEliminationEngine(QueryEngine):
    """Shared skeleton of the block-elimination query phase.

    BePI (Algorithm 4) and Bear (Lemma 1) run the *same* elimination
    dance — forward-substitute through ``H11``, solve the Schur system,
    back-substitute for spokes and deadends — and differ only in how the
    Schur system is solved.  Subclasses supply that one step.
    """

    def __init__(self, artifacts: SolverArtifacts):
        if artifacts.kind != self.kind:
            raise InvalidParameterError(
                f"{type(self).__name__} serves {self.kind!r} artifacts, "
                f"got {artifacts.kind!r}"
            )
        self.artifacts = artifacts

    @property
    def n_nodes(self) -> int:
        return self.artifacts.n_nodes

    # -- the one step BePI and Bear disagree on -------------------------
    @abc.abstractmethod
    def _solve_schur_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Solve ``S R2 = RHS`` for an ``(n2, k)`` block.

        Returns ``(r2, iterations, converged, residuals)`` with per-column
        ``(k,)`` metadata arrays.  ``deadline`` is the optional
        ``time.monotonic()`` budget of :meth:`QueryEngine.query_block`.
        """

    # -- Algorithm 4 / Lemma 1 skeleton ---------------------------------
    def query_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        pre = self.artifacts.preprocess
        c = self.artifacts.config["c"]
        n1, n2 = pre.n1, pre.n2
        blocks = pre.blocks
        k = rhs.shape[1]

        # Spans mirror Algorithm 4's steps: partition q, the two H11
        # triangular-solve passes (lines 3 and 5), the Schur solve (line 4)
        # and the deadend back-substitution (line 6).
        with telemetry.span("query.partition"):
            qp = pre.permutation.apply_to_vector(rhs)
            q1 = qp[:n1]
            q2 = qp[n1 : n1 + n2]
            q3 = qp[n1 + n2 :]

        # Line 3, multi-RHS: Q2~ = c Q2 - H21 (U1^{-1} (L1^{-1} (c Q1))).
        with telemetry.span("query.h11_solves"):
            if n1 > 0:
                q2_tilde = c * q2 - blocks["H21"] @ pre.h11_factors.solve(c * q1)
            else:
                q2_tilde = c * q2

        # Line 4: solve S R2 = Q2~ for the whole block.  Lines 5 and 6 make
        # H r - c q vanish outside the hub block and equal S R2 - Q2~
        # inside it, so with ||H^{-1}||_1 <= 1/c each column's L1 error is
        # at most ||S r2 - q2~||_1 / c, whatever the iterate.
        with telemetry.span("query.schur"):
            if n2 > 0:
                r2, iterations, converged, residuals = self._solve_schur_block(
                    q2_tilde, deadline=deadline
                )
                certificate = np.abs(pre.schur @ r2 - q2_tilde).sum(axis=0) / c
            else:
                r2 = np.zeros((0, k), dtype=np.float64)
                iterations = np.zeros(k, dtype=np.int64)
                converged = np.ones(k, dtype=bool)
                residuals = np.zeros(k, dtype=np.float64)
                certificate = np.zeros(k, dtype=np.float64)

        # Line 5: R1 = U1^{-1} (L1^{-1} (c Q1 - H12 R2)).
        with telemetry.span("query.h11_solves"):
            if n1 > 0:
                r1 = pre.h11_factors.solve(c * q1 - blocks["H12"] @ r2)
            else:
                r1 = np.zeros((0, k), dtype=np.float64)

        # Line 6: R3 = c Q3 - H31 R1 - H32 R2.
        with telemetry.span("query.backsub"):
            r3 = c * q3 - blocks["H31"] @ r1 - blocks["H32"] @ r2

            r = np.concatenate([r1, r2, r3], axis=0)
            scores = pre.permutation.unapply_to_vector(r)
        extras = self._block_extras(converged, residuals)
        extras["certificate"] = certificate
        return scores, iterations, extras

    # -- extras policy (BePI reports convergence; Bear is direct) -------
    def _block_extras(
        self, converged: np.ndarray, residuals: np.ndarray
    ) -> Dict[str, Any]:
        return {}


class BePIQueryEngine(BlockEliminationEngine):
    """Algorithm 4: the Schur system is solved iteratively per query.

    The solve is GMRES with the bundle's preconditioner (the SGS factors
    of ``S`` for BePI, none for BePI-S/BePI-B).  A column GMRES leaves
    unconverged (it stagnated, or a fault was injected) goes to one
    safety net, the power rung, rather than coming back unconverged.
    That rung needs no factorization or Krylov state and converges for
    the Schur complement of any RWR system: ``‖I - S‖₁ ≤ 1 - c``, so
    the iteration contracts by ``1 - c`` per step.  An explicit
    ``max_iterations`` bounds the whole solve, so the rung only gets the
    steps GMRES left unspent.  How often it answered and its achieved
    residual land in telemetry under ``rwr.queries.fallback.power``.
    """

    kind = "bepi"

    #: Step cap for the power rung when ``max_iterations`` is unset (its
    #: per-step cost is one Schur matvec).
    FALLBACK_POWER_ITERATIONS = 10_000

    def _solve_schur_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        config = self.artifacts.config
        batch = gmres_multi(
            self.artifacts.preprocess.schur,
            rhs,
            tol=config["tol"],
            max_iterations=config["max_iterations"],
            restart=config["gmres_restart"],
            preconditioner=self.artifacts.preconditioner,
            deadline=deadline,
        )
        r2, iterations = batch.x, batch.n_iterations
        converged, residuals = batch.converged, batch.final_residuals
        pending = np.flatnonzero(~converged)
        if config["max_iterations"] is None:
            steps = np.full(pending.size, self.FALLBACK_POWER_ITERATIONS)
        else:
            steps = config["max_iterations"] - iterations[pending]
        pending, steps = pending[steps > 0], steps[steps > 0]
        if pending.size == 0 or (
            # Deadline spent: the best-effort iterate (with its residual
            # reported) beats a late exact answer.
            deadline is not None and time.monotonic() >= deadline
        ):
            return r2, iterations, converged, residuals
        with telemetry.span("query.fallback.power"):
            fx, fit, fconv, fres = self._power_block(
                np.ascontiguousarray(rhs[:, pending]), steps
            )
        # Keep the rung's answer when it converged or at least improved on
        # GMRES's residual; never regress.
        better = fconv | (fres < residuals[pending])
        cols = pending[better]
        r2[:, cols] = fx[:, better]
        residuals[cols] = fres[better]
        iterations[pending] += fit
        recovered = pending[fconv]
        if recovered.size:
            converged[recovered] = True
            self._record_fallback(fres[fconv])
        return r2, iterations, converged, residuals

    def _power_block(
        self, rhs: np.ndarray, steps: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The power rung: Richardson iteration ``x <- x + (b - S x)``.

        This is the RWR power iteration ``r <- (1-c) A~^T r + c q`` on the
        Schur system (``I - S`` plays ``(1-c) A~^T`` and ``b`` plays
        ``c q``): one Schur product per step for the whole block, and no
        factorization or Krylov state to break.  Each step's update is the
        residual of the iterate it starts from, so a column stops on its
        true relative residual, and ``b - S x_k = (I - S)^k b`` shrinks by
        ``‖I - S‖₁ ≤ 1 - c`` per step.  ``steps`` caps each column's steps
        (default :attr:`FALLBACK_POWER_ITERATIONS`).
        """
        config = self.artifacts.config
        schur = self.artifacts.preprocess.schur
        b = np.asarray(rhs, dtype=np.float64)
        scale = np.linalg.norm(b, axis=0)
        scale[scale == 0.0] = 1.0
        caps = np.broadcast_to(
            self.FALLBACK_POWER_ITERATIONS if steps is None else steps, scale.shape
        )
        x = np.zeros_like(b)
        iterations = np.zeros(b.shape[1], dtype=np.int64)
        residuals = np.empty(b.shape[1], dtype=np.float64)
        active = np.arange(b.shape[1])
        for step in range(int(caps.max(initial=0)) + 1):
            update = b[:, active] - schur @ x[:, active]
            residuals[active] = np.linalg.norm(update, axis=0) / scale[active]
            iterations[active] = step
            pending = (residuals[active] > config["tol"]) & (caps[active] > step)
            active, update = active[pending], update[:, pending]
            if active.size == 0:
                break
            x[:, active] += update
        return x, iterations, residuals <= config["tol"], residuals

    def _record_fallback(self, residuals: np.ndarray) -> None:
        registry = telemetry.get_registry()
        count = int(np.asarray(residuals).shape[0])
        registry.counter(
            telemetry.FALLBACK_TOTAL, help="queries answered by a fallback rung"
        ).inc(count)
        registry.counter(
            telemetry.FALLBACK_RUNG_PREFIX + "power",
            help="queries answered by the power fallback rung",
        ).inc(count)
        registry.histogram(
            telemetry.FALLBACK_RESIDUAL,
            buckets=telemetry.RESIDUAL_BUCKETS,
            help="relative residual achieved by the answering fallback rung",
        ).observe_many(np.asarray(residuals, dtype=np.float64).tolist())

    def _block_extras(
        self, converged: np.ndarray, residuals: np.ndarray
    ) -> Dict[str, Any]:
        return {"converged": converged, "schur_residuals": residuals}


class BearQueryEngine(BlockEliminationEngine):
    """Lemma 1: the Schur system is applied through the precomputed inverse."""

    kind = "bear"

    def _solve_schur_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # Direct solve: one matmul, nothing to interrupt mid-flight.
        k = rhs.shape[1]
        return (
            self.artifacts.schur_inv @ rhs,
            np.zeros(k, dtype=np.int64),
            np.ones(k, dtype=bool),
            np.zeros(k, dtype=np.float64),
        )


class LUQueryEngine(QueryEngine):
    """Two triangular solves per query against a one-time LU of ``H``.

    Unlike the block-elimination engines this one is built from the pieces
    directly (the SuperLU solve closure is not a persistable matrix bundle),
    but the contract is the same: stateless, shareable, no solver object
    required.
    """

    kind = "lu"

    def __init__(
        self,
        solve: Callable[[np.ndarray], np.ndarray],
        permutation: Permutation,
        c: float,
    ):
        self._solve = solve
        self._permutation = permutation
        self._c = c

    @property
    def n_nodes(self) -> int:
        return len(self._permutation)

    def query_block(
        self, rhs: np.ndarray, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        # Direct triangular solves; the deadline budget does not apply.
        k = rhs.shape[1]
        with telemetry.span("query.lu_solve"):
            qp = self._permutation.apply_to_vector(rhs)
            # SuperLU's dgstrs wants column-major right-hand sides; handing it a
            # C-ordered block costs an internal per-column copy.
            r = self._solve(np.asfortranarray(self._c * qp))
            return self._permutation.unapply_to_vector(r), np.zeros(k, dtype=np.int64), {}
