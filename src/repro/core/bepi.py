"""BePI, BePI-S and BePI-B — the paper's proposed solvers (Algorithms 1-4).

All three share one preprocessing pipeline (deadend reorder, SlashBurn
hub-and-spoke reorder, block elimination with the Schur complement solved
iteratively); they differ only in two policies:

========  =======================================  ==================
variant   hub ratio policy                          preconditioner
========  =======================================  ==================
BePI-B    small ``k`` (concentrate non-zeros)       none
BePI-S    ``k`` minimizing ``|S|`` (Section 3.4)    none
BePI      ``k`` minimizing ``|S|``                  SGS factors of ``S``
========  =======================================  ==================

The query phase follows Algorithm 4 exactly: a (preconditioned) GMRES solve
on the Schur system for ``r2``, two sparse products through the inverted LU
factors of ``H11`` for ``r1``, and a back-substitution for the deadend
scores ``r3``.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.bench.memory import MemoryBudget
from repro.core.base import RWRSolver
from repro.core.engine import BePIQueryEngine, SolverArtifacts
from repro.core.hub_ratio import DEFAULT_CANDIDATES, select_hub_ratio
from repro.core.pipeline import PreprocessArtifacts, build_artifacts
from repro.exceptions import (
    ConvergenceWarning,
    InvalidParameterError,
    SingularMatrixError,
)
from repro.graph.graph import Graph
from repro.linalg.ilu import ILUFactors, sgs_factors
from repro.linalg.preconditioners import JacobiPreconditioner
from repro.parallel import resolve_n_jobs

HubRatio = Union[float, str]

#: Default "small k" for the basic variant.  The paper uses 0.001 on graphs
#: with 1e5-7e7 nodes; on the ~1e3-3e4-node stand-in datasets the same
#: *policy* (a few dozen hubs per SlashBurn round) corresponds to a larger
#: ratio.
DEFAULT_SMALL_HUB_RATIO = 0.05

#: Default sparsifying ratio: the paper selects 0.2-0.3 for every dataset.
DEFAULT_SPARSE_HUB_RATIO = 0.2

#: Accepted ``ilu_engine`` values.
ILU_ENGINES = ("sgs", "jacobi")


class BePI(RWRSolver):
    """Best of Preprocessing and Iterative approaches for RWR.

    Parameters
    ----------
    c:
        Restart probability (paper default 0.05).
    tol:
        Error tolerance ``eps`` of the GMRES solve (paper default 1e-9).
    hub_ratio:
        SlashBurn hub selection ratio ``k`` in ``(0, 1]``, or ``"auto"`` to
        sweep :data:`~repro.core.hub_ratio.DEFAULT_CANDIDATES` and pick the
        ``|S|``-minimizing value (the BePI-S policy, Section 3.4).
    use_preconditioner:
        Precompute a preconditioner for ``S`` and run preconditioned GMRES
        (Section 3.5).  Disable to obtain BePI-S behaviour.
    ilu_engine:
        Preconditioner engine: ``"sgs"`` (default) for the symmetric
        Gauss–Seidel factors of ``S``, which stand in for the paper's
        ILU(0) (see :mod:`repro.linalg.ilu`), or ``"jacobi"`` for the cheap
        diagonal preconditioner (ablation lower bar).
    iterative_method:
        Krylov solver for the Schur system: ``"gmres"`` (the paper's
        choice, default) or ``"bicgstab"`` (Section 2.2 notes any
        non-symmetric Krylov method applies).
    gmres_restart:
        Restart length for GMRES; ``None`` = full GMRES (the paper's
        setting — iteration counts stay below ~70, Table 4).  Ignored by
        BiCGSTAB.
    max_iterations:
        Iteration budget for the Schur solve (default: its dimension).
    fallback_chain:
        Degrade through GMRES(Jacobi) → BiCGSTAB → power iteration when the
        configured Schur solve fails to converge (default on; see
        :class:`~repro.core.engine.BePIQueryEngine`).  Disable to surface
        raw convergence failures (ablations, Fig. 6-7 iteration studies).
    memory_budget:
        Optional byte cap on preprocessed data.
    deadend_reorder:
        Disable the deadend separation of Section 3.2.1 (ablation only;
        results remain exact, preprocessing just works on a larger system).
    hub_selection:
        ``"slashburn"`` (paper) or ``"degree"`` — single highest-degree cut
        instead of the iterative shattering (ablation only).
    n_jobs:
        Worker threads for the parallel preprocessing stages (per-block
        ``H11`` LU inversion, Schur column solves); ``-1`` = all CPUs.
        Scores are bit-identical for every value.

    Examples
    --------
    >>> from repro import BePI, generate_rmat
    >>> graph = generate_rmat(8, 1500, seed=7)
    >>> solver = BePI(c=0.05, tol=1e-9, hub_ratio=0.2).preprocess(graph)
    >>> scores = solver.query(0)
    >>> bool(scores[0] > 0)
    True

    Bulk serving goes through the batched query engine: one multi-RHS pass
    of Algorithm 4 answers all seeds, with per-seed convergence reporting.

    >>> matrix = solver.query_many([0, 1, 2])     # (3, n) — row i = query(i)
    >>> matrix.shape == (3, graph.n_nodes)
    True
    >>> batch = solver.query_many_detailed([0, 1, 2])
    >>> bool(batch.all_converged)
    True
    """

    name = "BePI"

    def __init__(
        self,
        c: float = 0.05,
        tol: float = 1e-9,
        hub_ratio: HubRatio = DEFAULT_SPARSE_HUB_RATIO,
        use_preconditioner: bool = True,
        ilu_engine: str = "sgs",
        iterative_method: str = "gmres",
        gmres_restart: Optional[int] = None,
        max_iterations: Optional[int] = None,
        fallback_chain: bool = True,
        memory_budget: Optional[MemoryBudget] = None,
        deadend_reorder: bool = True,
        hub_selection: str = "slashburn",
        n_jobs: int = 1,
    ):
        super().__init__(c=c, tol=tol, memory_budget=memory_budget)
        if isinstance(hub_ratio, str):
            if hub_ratio != "auto":
                raise InvalidParameterError(
                    f"hub_ratio must be a float in (0, 1] or 'auto', got {hub_ratio!r}"
                )
        elif not 0.0 < float(hub_ratio) <= 1.0:
            raise InvalidParameterError(
                f"hub_ratio must be in (0, 1], got {hub_ratio}"
            )
        if ilu_engine not in ILU_ENGINES:
            raise InvalidParameterError(
                f"ilu_engine must be 'sgs' or 'jacobi', got {ilu_engine!r}"
            )
        if iterative_method not in ("gmres", "bicgstab"):
            raise InvalidParameterError(
                f"iterative_method must be 'gmres' or 'bicgstab', "
                f"got {iterative_method!r}"
            )
        if hub_selection not in ("slashburn", "degree"):
            raise InvalidParameterError(
                f"hub_selection must be 'slashburn' or 'degree', got {hub_selection!r}"
            )
        self.hub_ratio = hub_ratio
        self.use_preconditioner = use_preconditioner
        self.ilu_engine = ilu_engine
        self.iterative_method = iterative_method
        self.gmres_restart = gmres_restart
        self.max_iterations = max_iterations
        self.fallback_chain = fallback_chain
        self.deadend_reorder = deadend_reorder
        self.hub_selection = hub_selection
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._artifacts: Optional[PreprocessArtifacts] = None
        self._ilu = None  # ILUFactors or JacobiPreconditioner
        self._engine: Optional[BePIQueryEngine] = None

    # ------------------------------------------------------------------
    # Preprocessing phase (Algorithm 3)
    # ------------------------------------------------------------------
    def _preprocess(self, graph: Graph) -> None:
        if isinstance(self.hub_ratio, str):  # "auto"
            # One sweep over the candidates (shared deadend stage, Schur
            # sparsity read from build intermediates) whose winner's
            # artifacts are adopted directly — no rebuild pass.
            start = time.perf_counter()
            selection = select_hub_ratio(
                graph,
                self.c,
                DEFAULT_CANDIDATES,
                deadend_reordering=self.deadend_reorder,
                hub_selection=self.hub_selection,
                n_jobs=self.n_jobs,
            )
            sweep_seconds = time.perf_counter() - start
            k = selection.best_k
            artifacts = selection.artifacts
            preprocess_passes = len(selection.records)
        else:
            k = float(self.hub_ratio)
            sweep_seconds = 0.0
            artifacts = build_artifacts(
                graph,
                self.c,
                k,
                deadend_reordering=self.deadend_reorder,
                hub_selection=self.hub_selection,
                n_jobs=self.n_jobs,
            )
            preprocess_passes = 1
        self._artifacts = artifacts

        self._ilu = None
        ilu_seconds = 0.0
        preconditioner_fallback = None
        if self.use_preconditioner and artifacts.schur.shape[0] > 0:
            start = time.perf_counter()
            try:
                if self.ilu_engine == "sgs":
                    self._ilu = sgs_factors(artifacts.schur)
                else:
                    self._ilu = JacobiPreconditioner(artifacts.schur)
            except (SingularMatrixError, RuntimeError):
                # Factor breakdown (a zero diagonal entry of S, or any
                # other factorizer error): degrade to the Jacobi diagonal, and to
                # no preconditioner at all if even that is singular.  GMRES
                # still converges, just on the unpreconditioned Fig. 6
                # iteration counts.
                try:
                    self._ilu = JacobiPreconditioner(artifacts.schur)
                    preconditioner_fallback = "jacobi"
                except SingularMatrixError:
                    self._ilu = None
                    preconditioner_fallback = "none"
                warnings.warn(
                    f"{self.ilu_engine} factorization of the Schur complement "
                    f"broke down; falling back to "
                    f"{preconditioner_fallback!r} preconditioning",
                    ConvergenceWarning,
                    stacklevel=2,
                )
            ilu_seconds = time.perf_counter() - start

        self._install_artifacts(
            SolverArtifacts(
                kind="bepi",
                config=self._engine_config(),
                graph=graph,
                preprocess=artifacts,
                preconditioner=self._ilu,
            )
        )

        self.stats.update(
            {
                "hub_ratio": k,
                "hub_ratio_sweep_seconds": sweep_seconds,
                "preprocess_passes": preprocess_passes,
                "n_jobs": self.n_jobs,
                "n1": artifacts.n1,
                "n2": artifacts.n2,
                "n3": artifacts.n3,
                "n_blocks": int(artifacts.block_sizes.shape[0]),
                "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
                "nnz_schur": int(artifacts.schur.nnz),
                "ilu_seconds": ilu_seconds,
                "stage_timings": dict(artifacts.timings),
                "preconditioned": self._ilu is not None,
                "preconditioner_fallback": preconditioner_fallback,
            }
        )

    # ------------------------------------------------------------------
    # Query phase (Algorithm 4) — delegated to the stateless engine
    # ------------------------------------------------------------------
    def _engine_config(self) -> Dict[str, Any]:
        """The query-phase configuration shipped inside the artifact bundle."""
        return {
            "c": self.c,
            "tol": self.tol,
            "iterative_method": self.iterative_method,
            "gmres_restart": self.gmres_restart,
            "max_iterations": self.max_iterations,
            "fallback_chain": self.fallback_chain,
            "hub_ratio": self.hub_ratio,
            "use_preconditioner": self.use_preconditioner,
            "ilu_engine": self.ilu_engine,
        }

    def _install_artifacts(self, bundle: SolverArtifacts) -> None:
        """Adopt an artifact bundle: retain its matrices and build the engine.

        Called at the end of :meth:`_preprocess` and by the persistence
        loaders, so a loaded solver ends up in exactly the state a freshly
        preprocessed one would.  Retained matrices are exactly the output
        list of Algorithm 3: L1^{-1}, U1^{-1}, S, H12, H21, H31, H32, plus
        the strict parts of the SGS factors derived from ``S`` (as
        ``L2``/``U2``), which the bundle does not store.
        """
        artifacts = bundle.preprocess
        self._artifacts = artifacts
        self._ilu = bundle.preconditioner
        self._engine = BePIQueryEngine(bundle)
        self._retain("L1_inv", artifacts.h11_factors.l_inv)
        self._retain("U1_inv", artifacts.h11_factors.u_inv)
        self._retain("S", artifacts.schur)
        self._retain("H12", artifacts.blocks["H12"])
        self._retain("H21", artifacts.blocks["H21"])
        self._retain("H31", artifacts.blocks["H31"])
        self._retain("H32", artifacts.blocks["H32"])
        if isinstance(self._ilu, ILUFactors):
            _, lower, upper = self._ilu._parts
            self._retain("L2", lower)
            self._retain("U2", upper)
        elif self._ilu is not None:  # Jacobi: one value per row of S
            self._retain("M_diag", self._ilu._inv_diag)

    def _query_batch(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Algorithm 4 evaluated once on an ``(n, k)`` block of starting vectors.

        The permutation, the ``H11`` forward/back substitutions, and the
        off-diagonal block products all act on the whole block (one sparse
        matrix-matrix product instead of ``k`` matrix-vector products); the
        Schur systems are solved by :func:`~repro.linalg.gmres.gmres_multi`,
        which shares the preconditioner and the Krylov workspace across
        columns and reports convergence per column.
        """
        assert self._engine is not None
        return self._engine.query_block(rhs)

    # ------------------------------------------------------------------
    # Introspection used by benchmarks and the accuracy analysis
    # ------------------------------------------------------------------
    @property
    def artifacts(self) -> PreprocessArtifacts:
        """The preprocessing artifacts (requires :meth:`preprocess`)."""
        self._require_preprocessed()
        assert self._artifacts is not None
        return self._artifacts

    @property
    def engine(self) -> BePIQueryEngine:
        """The stateless query engine (requires :meth:`preprocess`)."""
        self._require_preprocessed()
        assert self._engine is not None
        return self._engine

    @property
    def solver_artifacts(self) -> SolverArtifacts:
        """The immutable artifact bundle the engine serves."""
        return self.engine.artifacts

    @property
    def ilu_factors(self) -> Optional[ILUFactors]:
        """The SGS preconditioner factors of ``S``, if any."""
        return self._ilu


class BePIS(BePI):
    """BePI-S: sparsified Schur complement, no preconditioner (Section 3.4)."""

    name = "BePI-S"

    def __init__(self, **kwargs):
        kwargs.setdefault("hub_ratio", DEFAULT_SPARSE_HUB_RATIO)
        kwargs["use_preconditioner"] = False
        super().__init__(**kwargs)


class BePIB(BePI):
    """BePI-B: basic variant — small hub ratio, no preconditioner (Section 3.3)."""

    name = "BePI-B"

    def __init__(self, **kwargs):
        kwargs.setdefault("hub_ratio", DEFAULT_SMALL_HUB_RATIO)
        kwargs["use_preconditioner"] = False
        super().__init__(**kwargs)
