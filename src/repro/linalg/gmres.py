"""GMRES with optional left preconditioning, implemented from scratch.

Follows Saad & Schultz (1986) and the preconditioned variant of Appendix B
of the paper (Algorithm 5): Arnoldi iteration with modified Gram-Schmidt
builds an orthonormal Krylov basis, Givens rotations keep the Hessenberg
least-squares problem triangular so the residual norm is available at every
step without forming the solution.

The left preconditioner is applied through its ``solve`` method (triangular
substitutions for ILU factors) — it is never inverted or materialized.

Krylov storage lives in a :class:`GMRESWorkspace` that starts small and
grows geometrically with the iterations actually used, so full GMRES
(``restart=None``) on an ``n``-dimensional system that converges in ``m``
steps costs ``O(m n)`` memory instead of the ``O(n^2)`` a
``(max_iterations + 1, n)`` pre-allocation would.  The workspace is
reusable, which is how :func:`gmres_multi` amortizes allocation across the
columns of a multi-right-hand-side solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro import faults, telemetry, tracing
from repro.exceptions import ConvergenceError, InvalidParameterError

MatVec = Callable[[np.ndarray], np.ndarray]
Operator = Union[sp.spmatrix, np.ndarray, MatVec]

#: Arnoldi steps allocated up front; the basis doubles from here as needed.
INITIAL_BASIS_CAPACITY = 32

# ``gmres_multi(mode="auto")``: largest estimated block Krylov basis (bytes)
# for which the unpreconditioned lockstep engine is still preferred over
# column-by-column solves (see the dispatch comment in ``gmres_multi``).
_BLOCK_BASIS_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve.

    Attributes
    ----------
    x:
        The computed solution.
    converged:
        Whether the relative (preconditioned) residual reached ``tol``.
    n_iterations:
        Total Arnoldi steps across all restart cycles.
    residual_norms:
        Relative residual after each iteration (length ``n_iterations``).
    n_restarts:
        Restart cycles beyond the first (0 for full GMRES or solves that
        finish within one cycle).
    """

    x: np.ndarray
    converged: bool
    n_iterations: int
    residual_norms: List[float] = field(default_factory=list)
    n_restarts: int = 0

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else 0.0


@dataclass
class GMRESBatchResult:
    """Outcome of a multi-right-hand-side GMRES solve.

    Attributes
    ----------
    x:
        ``(n, k)`` solution matrix; column ``j`` solves ``A x = b_j``.
    columns:
        Per-column :class:`GMRESResult` with the full convergence report.
    """

    x: np.ndarray
    columns: List[GMRESResult]

    @property
    def converged(self) -> np.ndarray:
        """Boolean per-column convergence flags."""
        return np.array([col.converged for col in self.columns], dtype=bool)

    @property
    def all_converged(self) -> bool:
        return all(col.converged for col in self.columns)

    @property
    def n_iterations(self) -> np.ndarray:
        """Arnoldi steps used by each column."""
        return np.array([col.n_iterations for col in self.columns], dtype=np.int64)

    @property
    def final_residuals(self) -> np.ndarray:
        """Final relative residual of each column."""
        return np.array([col.final_residual for col in self.columns])


class GMRESWorkspace:
    """Growable Krylov storage, shareable across solves.

    Arrays are allocated for :data:`INITIAL_BASIS_CAPACITY` Arnoldi steps
    and doubled whenever an iteration would overflow them, so memory tracks
    the iterations actually used.  Passing the same workspace to several
    :func:`gmres` calls (as :func:`gmres_multi` does) reuses the high-water
    allocation instead of paying it per solve.
    """

    def __init__(self, initial_capacity: int = INITIAL_BASIS_CAPACITY):
        if initial_capacity < 1:
            raise InvalidParameterError(
                f"initial_capacity must be >= 1, got {initial_capacity}"
            )
        self.initial_capacity = int(initial_capacity)
        self.capacity = 0
        self.n = -1
        self.basis: Optional[np.ndarray] = None  # (capacity + 1, n)
        self.hessenberg: Optional[np.ndarray] = None  # (capacity + 1, capacity)
        self.cos: Optional[np.ndarray] = None
        self.sin: Optional[np.ndarray] = None
        self.g: Optional[np.ndarray] = None  # (capacity + 1,)

    def reserve(self, capacity: int, n: int) -> None:
        """Ensure storage for ``capacity`` Arnoldi steps on dimension ``n``.

        Existing contents are preserved on pure growth (same ``n``), which
        lets the Arnoldi loop grow mid-cycle.  Every entry the algorithm
        reads is written earlier in the same solve, so stale values from a
        previous solve sharing the workspace are harmless.
        """
        capacity = max(int(capacity), 1)
        if capacity <= self.capacity and n == self.n:
            return
        basis = np.empty((capacity + 1, n), dtype=np.float64)
        hessenberg = np.empty((capacity + 1, capacity), dtype=np.float64)
        cos = np.empty(capacity, dtype=np.float64)
        sin = np.empty(capacity, dtype=np.float64)
        g = np.empty(capacity + 1, dtype=np.float64)
        if self.basis is not None and n == self.n and self.capacity > 0:
            old = self.capacity
            basis[: old + 1] = self.basis
            hessenberg[: old + 1, :old] = self.hessenberg
            cos[:old] = self.cos
            sin[:old] = self.sin
            g[: old + 1] = self.g
        self.basis, self.hessenberg = basis, hessenberg
        self.cos, self.sin, self.g = cos, sin, g
        self.capacity, self.n = capacity, n


class _Preconditioner:
    """Normalizes the accepted preconditioner forms to a single callable."""

    def __init__(self, preconditioner):
        if preconditioner is None:
            self._apply = None
        elif hasattr(preconditioner, "solve"):
            self._apply = preconditioner.solve
        elif callable(preconditioner):
            self._apply = preconditioner
        else:
            raise InvalidParameterError(
                "preconditioner must be None, a callable, or expose .solve()"
            )

    def __call__(self, vector: np.ndarray) -> np.ndarray:
        if self._apply is None:
            return vector
        return self._apply(vector)


def _as_matvec(operator: Operator) -> MatVec:
    if callable(operator) and not sp.issparse(operator) and not isinstance(operator, np.ndarray):
        return operator
    matrix = operator

    def matvec(vector: np.ndarray) -> np.ndarray:
        return matrix @ vector

    return matvec


def _record_solves(results: List[GMRESResult]) -> None:
    """Record finished solves into the ambient telemetry registry.

    Always-on signals: solve/iteration/restart counts, final residuals and
    non-convergence (the Fig. 6-7 and Fig. 10 axes).  The full per-iteration
    residual trajectory is high-volume and only recorded when the ambient
    registry has ``sampling`` enabled.
    """
    registry = telemetry.get_registry()
    solves = registry.counter(
        "gmres.solves", help="GMRES solves completed (one per right-hand side)"
    )
    iterations = registry.histogram(
        "gmres.iterations",
        buckets=telemetry.ITERATION_BUCKETS,
        help="Arnoldi steps per solve (Fig. 6)",
    )
    residuals = registry.histogram(
        "gmres.final_residual",
        buckets=telemetry.RESIDUAL_BUCKETS,
        help="final relative residual per solve (Fig. 10)",
    )
    restarts = registry.counter("gmres.restarts", help="restart cycles beyond the first")
    trajectory = (
        registry.histogram(
            "gmres.residual_trajectory",
            buckets=telemetry.RESIDUAL_BUCKETS,
            help="per-iteration relative residuals (sampling only)",
        )
        if registry.sampling
        else None
    )
    exemplar = tracing.current_trace_hex()
    unconverged = 0
    for result in results:
        solves.inc()
        iterations.observe(result.n_iterations, exemplar=exemplar)
        residuals.observe(result.final_residual, exemplar=exemplar)
        if result.n_restarts:
            restarts.inc(result.n_restarts)
        if not result.converged:
            unconverged += 1
        if trajectory is not None:
            trajectory.observe_many(result.residual_norms)
    if unconverged:
        registry.counter(
            "gmres.unconverged", help="solves that missed the requested tolerance"
        ).inc(unconverged)


def _run_gmres(
    matvec: MatVec,
    precondition: _Preconditioner,
    b: np.ndarray,
    tol: float,
    max_iterations: int,
    restart: int,
    x0: Optional[np.ndarray],
    callback: Optional[Callable[[int, float], None]],
    workspace: GMRESWorkspace,
    deadline: Optional[float] = None,
) -> GMRESResult:
    """Core restarted-GMRES loop on a normalized operator/preconditioner."""
    n = b.shape[0]
    x = np.zeros(n, dtype=np.float64) if x0 is None else np.array(x0, dtype=np.float64)

    reference = float(np.linalg.norm(precondition(b)))
    if reference == 0.0:
        # b (after preconditioning) is zero: the solution is x = 0 exactly.
        return GMRESResult(x=np.zeros(n), converged=True, n_iterations=0)

    residual_norms: List[float] = []
    total_iterations = 0
    cycles = 0

    while total_iterations < max_iterations and (
        deadline is None or time.monotonic() < deadline
    ):
        t = precondition(b - matvec(x))
        beta = float(np.linalg.norm(t))
        relative = beta / reference
        if relative <= tol:
            return GMRESResult(
                x=x,
                converged=True,
                n_iterations=total_iterations,
                residual_norms=residual_norms,
                n_restarts=max(cycles - 1, 0),
            )
        cycles += 1

        cycle = min(restart, max_iterations - total_iterations)
        workspace.reserve(min(cycle, max(workspace.capacity, workspace.initial_capacity)), n)
        basis, hessenberg = workspace.basis, workspace.hessenberg
        cos, sin, g = workspace.cos, workspace.sin, workspace.g
        basis[0] = t / beta
        g[0] = beta

        inner_steps = 0
        for j in range(cycle):
            if j >= workspace.capacity:
                workspace.reserve(min(cycle, max(2 * workspace.capacity, j + 1)), n)
                basis, hessenberg = workspace.basis, workspace.hessenberg
                cos, sin, g = workspace.cos, workspace.sin, workspace.g
            w = precondition(matvec(basis[j]))
            # Modified Gram-Schmidt orthogonalization.
            for i in range(j + 1):
                hessenberg[i, j] = float(np.dot(basis[i], w))
                w -= hessenberg[i, j] * basis[i]
            h_next = float(np.linalg.norm(w))
            hessenberg[j + 1, j] = h_next

            # Apply the accumulated Givens rotations to the new column.
            for i in range(j):
                temp = cos[i] * hessenberg[i, j] + sin[i] * hessenberg[i + 1, j]
                hessenberg[i + 1, j] = (
                    -sin[i] * hessenberg[i, j] + cos[i] * hessenberg[i + 1, j]
                )
                hessenberg[i, j] = temp
            # New rotation to annihilate the subdiagonal entry.
            denom = np.hypot(hessenberg[j, j], hessenberg[j + 1, j])
            if denom == 0.0:
                cos[j], sin[j] = 1.0, 0.0
            else:
                cos[j] = hessenberg[j, j] / denom
                sin[j] = hessenberg[j + 1, j] / denom
            hessenberg[j, j] = cos[j] * hessenberg[j, j] + sin[j] * hessenberg[j + 1, j]
            hessenberg[j + 1, j] = 0.0
            g[j + 1] = -sin[j] * g[j]
            g[j] = cos[j] * g[j]

            inner_steps = j + 1
            total_iterations += 1
            relative = abs(g[j + 1]) / reference
            residual_norms.append(relative)
            if callback is not None:
                callback(total_iterations, relative)

            happy_breakdown = h_next <= 1e-14 * reference
            out_of_time = deadline is not None and time.monotonic() >= deadline
            if (
                relative <= tol
                or happy_breakdown
                or total_iterations >= max_iterations
                or out_of_time
            ):
                # Breaking here (including on a spent deadline) falls
                # through to the least-squares back-substitution below, so
                # the caller always gets the best iterate built so far
                # with its residual attached.
                break
            basis[j + 1] = w / h_next

        # Solve the triangular least-squares system and update x.
        m = inner_steps
        y = np.zeros(m, dtype=np.float64)
        for i in range(m - 1, -1, -1):
            acc = g[i] - np.dot(hessenberg[i, i + 1 : m], y[i + 1 : m])
            diag = hessenberg[i, i]
            y[i] = acc / diag if diag != 0.0 else 0.0
        x = x + basis[:m].T @ y

        if residual_norms and residual_norms[-1] <= tol:
            return GMRESResult(
                x=x,
                converged=True,
                n_iterations=total_iterations,
                residual_norms=residual_norms,
                n_restarts=max(cycles - 1, 0),
            )

    final = residual_norms[-1] if residual_norms else float("inf")
    return GMRESResult(
        x=x,
        converged=final <= tol,
        n_iterations=total_iterations,
        residual_norms=residual_norms,
        n_restarts=max(cycles - 1, 0),
    )


def gmres(
    operator: Operator,
    rhs: np.ndarray,
    tol: float = 1e-9,
    max_iterations: Optional[int] = None,
    restart: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    preconditioner=None,
    raise_on_stagnation: bool = False,
    callback: Optional[Callable[[int, float], None]] = None,
    workspace: Optional[GMRESWorkspace] = None,
    deadline: Optional[float] = None,
) -> GMRESResult:
    """Solve ``A x = b`` (or the left-preconditioned ``M^{-1} A x = M^{-1} b``).

    Parameters
    ----------
    operator:
        The matrix ``A`` (sparse/dense) or a matvec callable.
    rhs:
        Right-hand side ``b``.
    tol:
        Relative tolerance on the (preconditioned) residual — the stopping
        rule of Algorithm 5, line 13:
        ``||M^{-1}(A x - b)|| / ||M^{-1} b|| <= tol``.
    max_iterations:
        Total Arnoldi steps budget (default: the system dimension).
    restart:
        Restart length; ``None`` means full (un-restarted) GMRES.
    x0:
        Initial guess (default: zero vector).
    preconditioner:
        ``None``, a callable ``v -> M^{-1} v``, or an object with ``solve``
        (e.g. :class:`repro.linalg.ilu.ILUFactors`).
    raise_on_stagnation:
        Raise :class:`ConvergenceError` instead of returning an unconverged
        result when the iteration budget is exhausted.
    callback:
        Called as ``callback(iteration, relative_residual)`` after each step.
    workspace:
        Reusable :class:`GMRESWorkspace`; pass the same instance to several
        solves to share the Krylov allocation (and to inspect the peak
        basis size).  Default: a fresh workspace per call.
    deadline:
        Optional ``time.monotonic()`` instant.  Once passed, the solve
        stops at the next iteration boundary and returns its best-effort
        iterate (``converged`` reflects the residual actually reached) —
        the serve tier's deadline budget, not an error.

    Returns
    -------
    GMRESResult
    """
    b = np.asarray(rhs, dtype=np.float64)
    if b.ndim != 1:
        raise InvalidParameterError(
            f"rhs must be one-dimensional, got shape {b.shape}; "
            "use gmres_multi for a block of right-hand sides"
        )
    n = b.shape[0]
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    matvec = _as_matvec(operator)
    precondition = _Preconditioner(preconditioner)
    if max_iterations is None:
        max_iterations = max(n, 1)
    if restart is None:
        restart = max_iterations
    if restart < 1:
        raise InvalidParameterError(f"restart must be >= 1, got {restart}")
    if workspace is None:
        workspace = GMRESWorkspace()

    if faults.consume_gmres_stagnations(1):
        # Deterministic fault injection: this solve stagnates without
        # iterating, exercising the caller's fallback/recovery path.
        result = GMRESResult(
            x=np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64),
            converged=False,
            n_iterations=0,
            residual_norms=[1.0],
        )
    else:
        result = _run_gmres(
            matvec, precondition, b, tol, max_iterations, restart, x0, callback,
            workspace, deadline,
        )
    _record_solves([result])
    if raise_on_stagnation and not result.converged:
        raise ConvergenceError(
            f"GMRES did not reach tol={tol} in {result.n_iterations} iterations "
            f"(residual {result.final_residual:.3e})",
            iterations=result.n_iterations,
            residual=result.final_residual,
        )
    return result


def _form_block_solution(x, col, basis, hessenberg, g, idx, m):
    """Back-substitute column ``idx``'s ``m``-step least-squares prefix and
    add the Krylov combination into ``x[:, col]``."""
    h_col = hessenberg[:, :, idx]
    y = np.zeros(m, dtype=np.float64)
    for i in range(m - 1, -1, -1):
        acc = g[i, idx] - np.dot(h_col[i, i + 1 : m], y[i + 1 : m])
        diag = h_col[i, i]
        y[i] = acc / diag if diag != 0.0 else 0.0
    x[:, col] += basis[:m, :, idx].T @ y


def _run_gmres_block(
    matvec: MatVec,
    precondition: _Preconditioner,
    b: np.ndarray,
    tol: float,
    max_iterations: int,
    restart: int,
    x0: Optional[np.ndarray],
    callback: Optional[Callable[[int, int, float], None]],
    initial_capacity: int,
    deadline: Optional[float] = None,
) -> GMRESBatchResult:
    """Lockstep restarted GMRES on every column of ``b`` at once.

    All live columns advance through the Arnoldi iteration together, so
    each step costs one sparse mat-mat product and one block preconditioner
    application instead of one per column; the Hessenberg factorization and
    Givens rotations are carried per column (vectorized over the column
    axis).  A column that reaches ``tol`` at step ``m`` immediately forms
    its solution from its own ``m``-step least-squares prefix and is
    compacted out of the working block, so stragglers never inflate the
    cost of already-converged columns and every column follows the same
    trajectory the single-RHS solve would.
    """
    n, k = b.shape
    x = np.zeros((n, k), dtype=np.float64) if x0 is None else np.array(x0, dtype=np.float64)
    reference = np.linalg.norm(precondition(b), axis=0)
    results: List[Optional[GMRESResult]] = [None] * k
    histories: List[List[float]] = [[] for _ in range(k)]
    iterations = np.zeros(k, dtype=np.int64)
    n_cycles = np.zeros(k, dtype=np.int64)

    # Columns whose preconditioned rhs is zero are solved by x = 0 exactly.
    for col in np.flatnonzero(reference == 0.0):
        x[:, col] = 0.0
        results[col] = GMRESResult(x=x[:, col].copy(), converged=True, n_iterations=0)
    active = np.flatnonzero(reference > 0.0)
    completed = 0

    while (
        active.size
        and completed < max_iterations
        and (deadline is None or time.monotonic() < deadline)
    ):
        t = precondition(b[:, active] - matvec(x[:, active]))
        beta = np.linalg.norm(t, axis=0)
        at_start = beta / reference[active] <= tol
        for idx in np.flatnonzero(at_start):
            col = active[idx]
            results[col] = GMRESResult(
                x=x[:, col].copy(),
                converged=True,
                n_iterations=int(iterations[col]),
                residual_norms=histories[col],
            )
        cols = active[~at_start]
        if not cols.size:
            break
        n_cycles[cols] += 1
        t, beta = t[:, ~at_start], beta[~at_start]
        ref = reference[cols]

        cycle = min(restart, max_iterations - completed)
        capacity = max(min(cycle, initial_capacity), 1)
        basis = np.empty((capacity + 1, n, cols.size), dtype=np.float64)
        hessenberg = np.empty((capacity + 1, capacity, cols.size), dtype=np.float64)
        cos = np.empty((capacity, cols.size), dtype=np.float64)
        sin = np.empty((capacity, cols.size), dtype=np.float64)
        g = np.empty((capacity + 1, cols.size), dtype=np.float64)
        basis[0] = t / beta
        g[0] = beta

        live = np.ones(cols.size, dtype=bool)
        scratch = np.empty_like(basis[0])
        inner_steps = 0
        for j in range(cycle):
            if j >= capacity:
                # Geometric growth, preserving the Krylov state built so far.
                new_capacity = min(cycle, max(2 * capacity, j + 1))
                a = cols.size
                grown_basis = np.empty((new_capacity + 1, n, a), dtype=np.float64)
                grown_h = np.empty((new_capacity + 1, new_capacity, a), dtype=np.float64)
                grown_cos = np.empty((new_capacity, a), dtype=np.float64)
                grown_sin = np.empty((new_capacity, a), dtype=np.float64)
                grown_g = np.empty((new_capacity + 1, a), dtype=np.float64)
                grown_basis[: j + 1] = basis[: j + 1]
                grown_h[: j + 1, :j] = hessenberg[: j + 1, :j]
                grown_cos[:j] = cos[:j]
                grown_sin[:j] = sin[:j]
                grown_g[: j + 1] = g[: j + 1]
                basis, hessenberg = grown_basis, grown_h
                cos, sin, g = grown_cos, grown_sin, grown_g
                scratch = np.empty_like(basis[0])
                capacity = new_capacity
            w = precondition(matvec(basis[j]))
            # Modified Gram-Schmidt, one coefficient per column.
            for i in range(j + 1):
                coeffs = np.einsum("nk,nk->k", basis[i], w)
                hessenberg[i, j] = coeffs
                np.multiply(basis[i], coeffs, out=scratch)
                w -= scratch
            h_next = np.linalg.norm(w, axis=0)
            hessenberg[j + 1, j] = h_next

            # Accumulated Givens rotations, then one new rotation per column.
            for i in range(j):
                temp = cos[i] * hessenberg[i, j] + sin[i] * hessenberg[i + 1, j]
                hessenberg[i + 1, j] = (
                    -sin[i] * hessenberg[i, j] + cos[i] * hessenberg[i + 1, j]
                )
                hessenberg[i, j] = temp
            denom = np.hypot(hessenberg[j, j], hessenberg[j + 1, j])
            safe = np.where(denom > 0.0, denom, 1.0)
            cos[j] = np.where(denom > 0.0, hessenberg[j, j] / safe, 1.0)
            sin[j] = np.where(denom > 0.0, hessenberg[j + 1, j] / safe, 0.0)
            hessenberg[j, j] = cos[j] * hessenberg[j, j] + sin[j] * hessenberg[j + 1, j]
            hessenberg[j + 1, j] = 0.0
            g[j + 1] = -sin[j] * g[j]
            g[j] = cos[j] * g[j]

            inner_steps = j + 1
            relative = np.abs(g[j + 1]) / ref
            live_idx = np.flatnonzero(live)
            iterations[cols[live_idx]] += 1
            for idx in live_idx:
                histories[cols[idx]].append(float(relative[idx]))
                if callback is not None:
                    callback(int(cols[idx]), int(iterations[cols[idx]]), float(relative[idx]))

            happy_breakdown = h_next <= 1e-14 * ref
            finished = live & ((relative <= tol) | happy_breakdown)
            stop_cycle = (
                inner_steps >= cycle
                or completed + inner_steps >= max_iterations
                or (deadline is not None and time.monotonic() >= deadline)
            )
            if stop_cycle:
                # Restart boundary, iteration budget or spent deadline:
                # every live column forms its solution; converged ones
                # finalize, the rest re-enter the outer restart loop
                # (which also re-checks the deadline).
                for idx in np.flatnonzero(live):
                    _form_block_solution(x, cols[idx], basis, hessenberg, g, idx, inner_steps)
                    if relative[idx] <= tol:
                        results[cols[idx]] = GMRESResult(
                            x=x[:, cols[idx]].copy(),
                            converged=True,
                            n_iterations=int(iterations[cols[idx]]),
                            residual_norms=histories[cols[idx]],
                        )
                break
            if finished.any():
                for idx in np.flatnonzero(finished):
                    _form_block_solution(x, cols[idx], basis, hessenberg, g, idx, inner_steps)
                    if relative[idx] <= tol:
                        results[cols[idx]] = GMRESResult(
                            x=x[:, cols[idx]].copy(),
                            converged=True,
                            n_iterations=int(iterations[cols[idx]]),
                            residual_norms=histories[cols[idx]],
                        )
                    # A happy-breakdown column above tol re-enters the outer
                    # restart loop (mirrors the single-RHS control flow).
                live &= ~finished
                if not live.any():
                    break
                # Compact the working block once at least half the columns
                # have finished (copying only the filled Krylov rows); below
                # that threshold the copy costs more than the dead columns.
                if live.sum() <= cols.size // 2:
                    a2 = int(live.sum())
                    kept_basis = np.empty((capacity + 1, n, a2), dtype=np.float64)
                    kept_h = np.empty((capacity + 1, capacity, a2), dtype=np.float64)
                    kept_cos = np.empty((capacity, a2), dtype=np.float64)
                    kept_sin = np.empty((capacity, a2), dtype=np.float64)
                    kept_g = np.empty((capacity + 1, a2), dtype=np.float64)
                    kept_basis[: j + 1] = basis[: j + 1][:, :, live]
                    kept_h[: j + 2, : j + 1] = hessenberg[: j + 2, : j + 1][:, :, live]
                    kept_cos[: j + 1] = cos[: j + 1][:, live]
                    kept_sin[: j + 1] = sin[: j + 1][:, live]
                    kept_g[: j + 2] = g[: j + 2][:, live]
                    basis, hessenberg = kept_basis, kept_h
                    cos, sin, g = kept_cos, kept_sin, kept_g
                    scratch = np.empty_like(basis[0])
                    cols, ref = cols[live], ref[live]
                    w, h_next = np.ascontiguousarray(w[:, live]), h_next[live]
                    live = np.ones(cols.size, dtype=bool)
            basis[j + 1] = w * np.where(
                h_next > 0.0, 1.0 / np.where(h_next > 0.0, h_next, 1.0), 0.0
            )
        completed += inner_steps
        active = np.array([col for col in active if results[col] is None], dtype=np.int64)

    for col in active:
        if results[col] is not None:
            continue
        final = histories[col][-1] if histories[col] else float("inf")
        results[col] = GMRESResult(
            x=x[:, col].copy(),
            converged=final <= tol,
            n_iterations=int(iterations[col]),
            residual_norms=histories[col],
        )
    for col, result in enumerate(results):
        result.n_restarts = max(int(n_cycles[col]) - 1, 0)
    return GMRESBatchResult(x=x, columns=results)  # type: ignore[arg-type]


def gmres_multi(
    operator: Operator,
    rhs: np.ndarray,
    tol: float = 1e-9,
    max_iterations: Optional[int] = None,
    restart: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    preconditioner=None,
    raise_on_stagnation: bool = False,
    callback: Optional[Callable[[int, int, float], None]] = None,
    workspace: Optional[GMRESWorkspace] = None,
    mode: str = "auto",
    deadline: Optional[float] = None,
) -> GMRESBatchResult:
    """Solve ``A X = B`` for a block of right-hand sides in one call.

    Two engines sit behind this entry point.  The *lockstep block* engine
    advances every column through Arnoldi together — one sparse mat-mat
    product and one block preconditioner application per step, with the
    Hessenberg least-squares state carried per column.  The *sequential*
    engine solves column by column through a shared
    :class:`GMRESWorkspace`.  Both report convergence per column
    (:class:`GMRESBatchResult`) and reproduce the single-RHS iterates to
    round-off: the block engine runs the same arithmetic, but its block
    products and preconditioner applications may sum in a different
    order, so its results can differ from the sequential engine's in the
    last bits.

    ``mode="auto"`` runs a one-column block sequentially (there is nothing
    to amortize).  For wider blocks it picks the block engine when a
    block-capable preconditioner is present (its per-column application
    cost is what the block engine amortizes); unpreconditioned systems
    stay sequential, where each column's Krylov basis remains small enough
    to be cache-resident.  A bare-callable ``operator`` (or a preconditioner
    that is a bare callable rather than an object with ``solve``) cannot
    be assumed to accept ``(n, k)`` blocks, so those always run
    sequentially.

    Parameters
    ----------
    rhs:
        ``(n, k)`` matrix whose columns are the right-hand sides.
    x0:
        Optional ``(n, k)`` matrix of initial guesses.
    preconditioner:
        ``None``, an object with ``solve`` (must accept ``(n, k)`` blocks,
        as :class:`repro.linalg.ilu.ILUFactors` and friends do), or a
        callable ``v -> M^{-1} v`` (forces the column-by-column path).
    raise_on_stagnation:
        Raise :class:`ConvergenceError` naming the first column that
        exhausted its iteration budget.
    callback:
        Called as ``callback(column, iteration, relative_residual)``.
    workspace:
        Shared :class:`GMRESWorkspace` used by the column-by-column path;
        the block engine sizes its initial Krylov capacity from it.
    mode:
        ``"auto"`` (default), ``"block"`` or ``"sequential"``.  ``"block"``
        forces the lockstep engine (requires a matrix operator and a
        block-capable preconditioner or none); ``"sequential"`` forces the
        column-by-column path.
    deadline:
        Optional ``time.monotonic()`` instant; when passed, both engines
        stop at the next iteration boundary and return every column's
        best-effort iterate (see :func:`gmres`).

    Other parameters match :func:`gmres` and apply to every column.
    """
    block = np.asarray(rhs, dtype=np.float64)
    if block.ndim != 2:
        raise InvalidParameterError(
            f"rhs must be an (n, k) matrix, got shape {block.shape}"
        )
    n, k = block.shape
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n, k):
            raise InvalidParameterError(
                f"x0 must have shape {(n, k)}, got {x0.shape}"
            )
    if workspace is None:
        workspace = GMRESWorkspace()
    if k == 0:
        return GMRESBatchResult(x=np.zeros((n, 0), dtype=np.float64), columns=[])

    if mode not in ("auto", "block", "sequential"):
        raise InvalidParameterError(
            f"mode must be 'auto', 'block' or 'sequential', got {mode!r}"
        )
    operator_is_matrix = sp.issparse(operator) or isinstance(operator, np.ndarray)
    preconditioner_blocks = preconditioner is None or hasattr(preconditioner, "solve")
    block_capable = operator_is_matrix and preconditioner_blocks
    if mode == "block" and not block_capable:
        raise InvalidParameterError(
            "mode='block' requires a matrix operator and a block-capable "
            "preconditioner (an object with .solve, or None)"
        )
    if mode == "auto":
        # A single column has nothing to amortize, and the block engine's
        # per-column bookkeeping makes it slower than the single-RHS loop,
        # so k = 1 always runs sequentially.  For wider blocks the block
        # engine amortizes the preconditioner application across columns,
        # so it always wins when one is present.  Without a preconditioner
        # the trade is per-column Python overhead against memory traffic on
        # the (iterations, n, k) block basis: once that basis outgrows the
        # cache the lockstep engine is bandwidth-bound and sequential
        # solves (each with a small cache-resident basis) are faster.
        expected_steps = min(
            40,
            restart if restart is not None else 40,
            max_iterations if max_iterations is not None else 40,
        )
        basis_bytes = (expected_steps + 1) * n * k * 8
        use_block = block_capable and k > 1 and (
            preconditioner is not None or basis_bytes <= _BLOCK_BASIS_BUDGET_BYTES
        )
    else:
        use_block = mode == "block"
    if faults.pending_gmres_stagnations() > 0:
        # Forced-stagnation faults consume their budget one right-hand side
        # at a time; the sequential path keeps that consumption order (and
        # therefore the test outcome) deterministic.
        use_block = False
    if use_block:
        if max_iterations is None:
            max_iterations = max(n, 1)
        if restart is None:
            restart = max_iterations
        if restart < 1:
            raise InvalidParameterError(f"restart must be >= 1, got {restart}")
        batch = _run_gmres_block(
            _as_matvec(operator),
            _Preconditioner(preconditioner),
            block,
            tol,
            max_iterations,
            restart,
            x0,
            callback,
            workspace.initial_capacity,
            deadline,
        )
        _record_solves(batch.columns)
        if raise_on_stagnation:
            for j, column in enumerate(batch.columns):
                if not column.converged:
                    raise ConvergenceError(
                        f"column {j}: GMRES did not reach tol={tol} in "
                        f"{column.n_iterations} iterations "
                        f"(residual {column.final_residual:.3e})",
                        iterations=column.n_iterations,
                        residual=column.final_residual,
                    )
        return batch

    # Row-major (k, n) storage so each column solution lands in one
    # contiguous write; callers receive the (n, k) transpose view.
    solution_rows = np.zeros((k, n), dtype=np.float64)
    columns: List[GMRESResult] = []
    for j in range(k):
        column_callback = None
        if callback is not None:
            def column_callback(iteration, relative, _j=j):
                callback(_j, iteration, relative)

        try:
            result = gmres(
                operator,
                np.ascontiguousarray(block[:, j]),
                tol=tol,
                max_iterations=max_iterations,
                restart=restart,
                x0=None if x0 is None else np.ascontiguousarray(x0[:, j]),
                preconditioner=preconditioner,
                raise_on_stagnation=raise_on_stagnation,
                callback=column_callback,
                workspace=workspace,
                deadline=deadline,
            )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"column {j}: {exc}",
                iterations=exc.iterations,
                residual=exc.residual,
            ) from exc
        solution_rows[j] = result.x
        columns.append(result)
    return GMRESBatchResult(x=solution_rows.T, columns=columns)
