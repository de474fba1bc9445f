"""Batch-update RWR on dynamic graphs (Section 5 of the paper).

The paper's related-work discussion names the conventional strategy for
preprocessing methods on evolving graphs: buffer updates and re-preprocess
in batches ("store update information such as edge insertions for one day,
and re-preprocess the changed graph at midnight"), and argues BePI is well
suited to it because its preprocessing is fast.

:class:`DynamicRWR` implements that policy around any
:class:`~repro.core.base.RWRSolver` — and, for BePI, improves on it in two
independent directions:

- **Incremental updates** (:mod:`repro.core.incremental`): an effective
  update batch keeps the current ordering and partition and re-runs only
  the factorization stages of preprocessing, with a tracked L1 error
  bound for the entries the kept partition cannot serve; only when the
  bound exceeds :attr:`error_bound` (default ``0.0`` — exact updates
  only) does the wrapper re-preprocess from scratch.  One function,
  :func:`rebuild_solver`, makes that choice for the synchronous and the
  background path alike.
- **Background rebuilds** (``background=True``, requires an
  ``artifact_store``): the effective batch is handed to a supervised child
  process that builds and publishes the next :class:`ArtifactStore`
  generation while the foreground keeps answering queries from the current
  one; the swap happens between queries via :meth:`poll`, so the dynamic
  path never blocks on preprocessing.

The public surface stays the batch-update contract:

- ``add_edges`` / ``remove_edges`` buffer changes,
- queries are answered from the last preprocessed snapshot (staleness is
  observable via :attr:`pending_updates`),
- ``rebuild()`` applies the buffer; with ``auto_rebuild_threshold`` set,
  it happens automatically once enough updates accumulate.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue as queue_module
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import telemetry
from repro._forkserver import process_context
from repro.core.base import BatchQueryResult, QueryResult, RWRSolver
from repro.core.bepi import BePI
from repro.core.engine import SolverArtifacts
from repro.core.incremental import UpdateBatch, apply_batch, incremental_update
from repro.core.topk import TopKResult
from repro.exceptions import InvalidParameterError, ReproError
from repro.graph.graph import Graph
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store import ArtifactStore

Edge = Tuple[int, int]

#: Liveness-poll cadence of the background-rebuild supervisor, matching the
#: worker-supervision cadence of :mod:`repro.serve`.
REBUILD_POLL_INTERVAL = 0.1


class BackgroundRebuildError(ReproError):
    """A background rebuild child died or reported a failure."""


def rebuild_solver(
    bundle: Optional[SolverArtifacts],
    new_graph: Graph,
    solver_factory: Callable[[], RWRSolver],
    bound_threshold: float = 0.0,
) -> Tuple[RWRSolver, str, float]:
    """A query-ready solver for ``new_graph``: the update policy.

    With a parent ``bundle``, :func:`~repro.core.incremental.incremental_update`
    is tried first; when its tracked error bound exceeds
    ``bound_threshold`` (``0.0`` admits only *exact* updates), or without
    a bundle, ``new_graph`` is re-preprocessed in full by a solver from
    ``solver_factory``, which re-partitions and resets the bound.

    Returns ``(solver, mode, error_bound)`` with ``mode`` either
    ``"incremental"`` or ``"full"``.
    """
    if bundle is not None:
        result = incremental_update(bundle, new_graph, bound_threshold=bound_threshold)
        if result is not None:
            from repro.persistence import solver_from_bundle

            solver = solver_from_bundle(result.bundle, "incremental-update")
            return solver, "incremental", result.error_bound
    solver = solver_factory()
    solver.preprocess(new_graph)
    return solver, "full", 0.0


def _background_rebuild_main(
    store_root: str,
    batch_payload: Dict[str, Any],
    options: Dict[str, Any],
    result_queue: "mp.Queue",
) -> None:
    """Entry point of the background rebuild child (forked from the
    package's forkserver, see :mod:`repro._forkserver`).

    Opens the store's *current* generation, applies the batch, rebuilds
    through :func:`rebuild_solver` (full rebuilds reproduce the bundle's
    own build configuration) and publishes the result as the next
    generation with lineage metadata.  The parent learns the outcome
    through ``result_queue``:
    ``("published", info)`` / ``("skipped", info)`` / ``("error", info)``.
    """
    try:
        from repro.persistence import solver_from_config
        from repro.store import ArtifactStore

        store = ArtifactStore(store_root)
        parent_path = store.current_path()
        bundle = store.open_current()
        batch = UpdateBatch.from_dict(batch_payload)
        new_graph = apply_batch(bundle.graph, batch)
        if new_graph is None:
            result_queue.put(("skipped", {"n_updates": batch.n_updates}))
            return
        started = time.perf_counter()
        solver, mode, bound = rebuild_solver(
            bundle if options["incremental"] else None,
            new_graph,
            lambda: solver_from_config(bundle.config),
            bound_threshold=float(options["error_bound"]),
        )
        seconds = time.perf_counter() - started
        lineage = {
            "parent": parent_path.name if parent_path is not None else None,
            "batch_digest": batch.digest(),
            "n_updates": batch.n_updates,
            "mode": mode,
            "error_bound": bound,
        }
        path = store.publish(solver, metadata=lineage)
        result_queue.put(
            (
                "published",
                {
                    "generation": path.name,
                    "mode": mode,
                    "error_bound": bound,
                    "seconds": seconds,
                    "n_updates": batch.n_updates,
                },
            )
        )
    except BaseException as exc:  # noqa: BLE001 - crosses the process boundary
        try:
            result_queue.put(("error", {"error": f"{type(exc).__name__}: {exc}"}))
        except Exception:
            pass
        raise


class DynamicRWR:
    """Batch-update wrapper: buffered edge changes + incremental rebuilds.

    Parameters
    ----------
    graph:
        Initial graph.
    solver_factory:
        Builds a fresh solver per full rebuild (default: ``BePI()``).
    auto_rebuild_threshold:
        Rebuild automatically once this many buffered updates accumulate;
        ``None`` disables auto-rebuild.
    artifact_store:
        Optional :class:`~repro.store.ArtifactStore`.  When set, the
        initial snapshot and every *effective* rebuild (skipped no-op
        rebuilds excluded) are published as a new artifact generation —
        with lineage metadata (parent generation, batch digest, error
        bound, rebuild mode) in the manifest — so serving workers
        (:mod:`repro.serve`) can re-open ``current`` and pick up the
        refreshed graph without ever seeing a partial bundle.  Requires a
        BePI solver factory — the baselines have no persistable artifact
        format.
    incremental:
        Attempt the partition-reusing update of
        :func:`repro.core.incremental.incremental_update` before falling
        back to a full re-preprocess (BePI only; baselines always rebuild
        in full).  Default ``True``.
    error_bound:
        Largest tracked L1 error bound an accepted update may carry.
        The default ``0.0`` admits only *exact* updates, so query
        results are identical to a full rebuild up to solver tolerance; a
        positive value trades bounded accuracy for update speed.
    background:
        Hand effective batches to a supervised child process that builds
        and publishes the next generation while the foreground keeps
        answering from the current snapshot (requires ``artifact_store``).
        The swap happens between queries — see :meth:`poll` and
        :meth:`wait_for_rebuild`.

    Examples
    --------
    >>> from repro import generate_rmat
    >>> from repro.core.dynamic import DynamicRWR
    >>> dyn = DynamicRWR(generate_rmat(6, 150, seed=1))
    >>> dyn.add_edges([(0, 5), (5, 0)])
    >>> dyn.pending_updates
    2
    >>> dyn.rebuild()
    >>> dyn.pending_updates
    0
    """

    def __init__(
        self,
        graph: Graph,
        solver_factory: Optional[Callable[[], RWRSolver]] = None,
        auto_rebuild_threshold: Optional[int] = None,
        artifact_store: Optional["ArtifactStore"] = None,
        incremental: bool = True,
        error_bound: float = 0.0,
        background: bool = False,
    ):
        self._init_policy(
            solver_factory,
            auto_rebuild_threshold,
            artifact_store,
            incremental,
            error_bound,
            background,
        )
        self._graph = graph
        self._solver = self._factory()
        self._check_store_factory()
        start = time.perf_counter()
        self._solver.preprocess(graph)
        self.n_rebuilds = 1
        self._record_rebuild(time.perf_counter() - start)
        self._publish(batch=None, mode="full", bound=0.0)
        self._update_gauges()

    @classmethod
    def from_store(
        cls,
        store: "ArtifactStore",
        solver_factory: Optional[Callable[[], RWRSolver]] = None,
        auto_rebuild_threshold: Optional[int] = None,
        incremental: bool = True,
        error_bound: float = 0.0,
        background: bool = False,
    ) -> "DynamicRWR":
        """Adopt a store's *current* generation instead of preprocessing.

        The wrapper starts serving the published snapshot directly — no
        initial preprocess, no initial publish (``n_rebuilds`` starts at
        0) — and subsequent rebuilds continue the store's generation
        lineage.  Without ``solver_factory``, full rebuilds reproduce the
        adopted bundle's own build configuration.
        """
        from repro.persistence import solver_from_bundle, solver_from_config

        bundle = store.open_current()
        if solver_factory is None:
            config = dict(bundle.config)

            def solver_factory() -> RWRSolver:
                return solver_from_config(config)

        self = cls.__new__(cls)
        self._init_policy(
            solver_factory,
            auto_rebuild_threshold,
            store,
            incremental,
            error_bound,
            background,
        )
        self._graph = bundle.graph
        self._solver = solver_from_bundle(bundle, str(store.root))
        self._check_store_factory()
        self.n_rebuilds = 0
        self._update_gauges()
        return self

    def _init_policy(
        self,
        solver_factory: Optional[Callable[[], RWRSolver]],
        auto_rebuild_threshold: Optional[int],
        artifact_store: Optional["ArtifactStore"],
        incremental: bool,
        error_bound: float,
        background: bool,
    ) -> None:
        if auto_rebuild_threshold is not None and auto_rebuild_threshold < 1:
            raise InvalidParameterError("auto_rebuild_threshold must be >= 1 or None")
        if error_bound < 0.0:
            raise InvalidParameterError(
                f"error_bound must be >= 0, got {error_bound}"
            )
        if background and artifact_store is None:
            raise InvalidParameterError(
                "background rebuilds publish through an ArtifactStore; "
                "pass artifact_store= (or use background=False)"
            )
        self._factory = solver_factory or BePI
        self.auto_rebuild_threshold = auto_rebuild_threshold
        self.artifact_store = artifact_store
        self.incremental = bool(incremental)
        self.error_bound = float(error_bound)
        self.background = bool(background)
        # Buffered insertions as (u, v, weight-or-None); None means "insert
        # with unit weight unless the edge already exists" (the unweighted
        # insertion semantics), a float means "set the edge weight".
        self._added: List[Tuple[int, int, Optional[float]]] = []
        self._removed: List[Edge] = []
        self.n_skipped_rebuilds = 0
        self.n_published = 0
        self.n_corrections = 0
        self.n_full_rebuilds = 0
        self.n_background_swaps = 0
        self.last_rebuild_mode: Optional[str] = None
        self.last_error_bound = 0.0
        self._pending: Optional[Tuple[mp.process.BaseProcess, "mp.Queue"]] = None
        self._background_error: Optional[str] = None
        #: Lifecycle metrics of the update/rebuild loop when no ambient
        #: registry is active (per-query metrics live on the active
        #: solver's own ``telemetry`` registry).  Gauge and counter writes
        #: resolve the ambient registry *per call* — installing a fresh
        #: registry via ``telemetry.activate`` after construction redirects
        #: them instead of silently writing to a stale one.
        self.telemetry = MetricsRegistry()

    def _check_store_factory(self) -> None:
        if self.artifact_store is not None and not isinstance(self._solver, BePI):
            raise InvalidParameterError(
                "artifact_store requires a BePI solver factory; "
                f"got {type(self._solver).__name__}"
            )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        """Buffered edge changes not yet reflected in query results."""
        return len(self._added) + len(self._removed)

    @property
    def graph(self) -> Graph:
        """The graph of the *current snapshot* (excluding buffered updates)."""
        return self._solver.graph

    @property
    def solver(self) -> RWRSolver:
        """The active (possibly stale) solver."""
        return self._solver

    @property
    def rebuild_in_progress(self) -> bool:
        """Whether a background rebuild child is currently running."""
        return self._pending is not None

    @property
    def background_error(self) -> Optional[str]:
        """Last background-rebuild failure, or ``None``."""
        return self._background_error

    def add_edges(
        self,
        edges: Iterable[Edge],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Buffer edge insertions (applied at the next rebuild).

        Without ``weights``, an inserted edge gets unit weight — unless it
        already exists at rebuild time, in which case its current weight is
        kept (insertion is idempotent).  With ``weights``, each entry *sets*
        the edge's weight, overwriting any existing value.
        """
        pairs = [(int(u), int(v)) for u, v in edges]
        if weights is None:
            weight_list: List[Optional[float]] = [None] * len(pairs)
        else:
            weight_list = [float(w) for w in weights]
            if len(weight_list) != len(pairs):
                raise InvalidParameterError(
                    f"got {len(weight_list)} weights for {len(pairs)} edges"
                )
            if not all(0.0 < w < math.inf for w in weight_list):
                raise InvalidParameterError(
                    "edge weights must be positive and finite"
                )
        for (u, v), w in zip(pairs, weight_list):
            self._validate_node(u)
            self._validate_node(v)
            self._added.append((u, v, w))
        self._update_gauges()
        self._maybe_rebuild()

    def remove_edges(self, edges: Iterable[Edge]) -> None:
        """Buffer edge deletions (applied at the next rebuild).

        Deleting an edge that does not exist at rebuild time is a no-op,
        matching the usual log-compaction semantics of batch updates.
        """
        for u, v in edges:
            self._validate_node(u)
            self._validate_node(v)
            self._removed.append((int(u), int(v)))
        self._update_gauges()
        self._maybe_rebuild()

    def rebuild(self) -> None:
        """Apply all buffered updates.

        The effective batch (edge weights carried through; see
        :func:`repro.core.incremental.apply_batch`) is applied as an
        incremental update when :attr:`incremental` allows and the
        tracked error bound stays within :attr:`error_bound`, and as a
        full re-preprocess otherwise.  A batch that cancels out to exactly
        the current graph skips the rebuild entirely and only clears the
        buffer (``n_skipped_rebuilds`` counts these).

        With ``background=True`` the effective batch is handed to a child
        process instead and this call returns immediately; the new
        generation is adopted between queries (:meth:`poll`) or on
        :meth:`wait_for_rebuild`.
        """
        if self.pending_updates == 0:
            return
        batch = self._take_batch()
        if self.background:
            self._start_background(batch)
            self._update_gauges()
            return
        new_graph = apply_batch(self._graph, batch)
        if new_graph is None:
            self._record_skip()
            return
        self._rebuild_sync(new_graph, batch)
        self._update_gauges()

    # ------------------------------------------------------------------
    # Background rebuilds
    # ------------------------------------------------------------------
    def poll(self) -> bool:
        """Adopt a finished background rebuild, if any; never blocks.

        Returns ``True`` when a new generation was swapped in.  Called
        automatically on every query path, so the foreground picks up the
        child's published generation between queries.  A dead child
        without a result is recorded in :attr:`background_error` (and
        raised from :meth:`wait_for_rebuild`); the foreground keeps
        serving the current snapshot.
        """
        if self._pending is None:
            return False
        process, result_queue = self._pending
        try:
            kind, info = result_queue.get_nowait()
        except queue_module.Empty:
            if process.is_alive():
                return False
            # Child died without reporting: give the queue feeder a final
            # grace window, then record the crash.
            try:
                kind, info = result_queue.get(timeout=1.0)
            except queue_module.Empty:
                self._finish_pending(process)
                self._background_error = (
                    f"background rebuild process died (exitcode {process.exitcode}) "
                    "without publishing a result"
                )
                return False
        self._finish_pending(process)
        return self._adopt_result(kind, info)

    def wait_for_rebuild(self, timeout: Optional[float] = None) -> bool:
        """Block until the pending background rebuild finishes.

        Returns ``True`` once no rebuild is pending (including when none
        was in flight); ``False`` on timeout.  Raises
        :class:`BackgroundRebuildError` if the child failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._pending is not None:
            self.poll()
            if self._pending is None:
                break
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(REBUILD_POLL_INTERVAL)
        if self._background_error is not None:
            error, self._background_error = self._background_error, None
            raise BackgroundRebuildError(error)
        return True

    def _start_background(self, batch: UpdateBatch) -> None:
        # One rebuild in flight at a time: generations are linear, so the
        # next batch waits for the previous publish (its child must apply
        # the batch on top of the generation the previous child produces).
        self.wait_for_rebuild()
        assert self.artifact_store is not None  # enforced in _init_policy
        ctx = process_context()
        result_queue: "mp.Queue" = ctx.Queue()
        process = ctx.Process(
            target=_background_rebuild_main,
            args=(
                str(self.artifact_store.root),
                batch.to_dict(),
                {"error_bound": self.error_bound, "incremental": self.incremental},
                result_queue,
            ),
            daemon=True,
        )
        process.start()
        self._pending = (process, result_queue)

    def _finish_pending(self, process: "mp.process.BaseProcess") -> None:
        self._pending = None
        process.join(timeout=5.0)

    def _adopt_result(self, kind: str, info: Dict[str, Any]) -> bool:
        if kind == "skipped":
            self._record_skip()
            return False
        if kind == "error":
            self._background_error = str(info.get("error", "unknown failure"))
            self._update_gauges()
            return False
        assert self.artifact_store is not None
        from repro.persistence import solver_from_bundle

        bundle = self.artifact_store.open_current()
        self._solver = solver_from_bundle(bundle, str(self.artifact_store.root))
        self._graph = bundle.graph
        mode = str(info.get("mode", "full"))
        bound = float(info.get("error_bound", 0.0))
        self.n_rebuilds += 1
        self.n_background_swaps += 1
        self.n_published += 1
        self._record_mode(mode, bound)
        self._record_rebuild(float(info.get("seconds", 0.0)))
        reg = self._registry()
        reg.counter(
            telemetry.DYNAMIC_BACKGROUND_SWAPS,
            help="background-rebuilt generations adopted by the foreground",
        ).inc()
        reg.counter(
            telemetry.DYNAMIC_PUBLISHES, help="artifact generations published"
        ).inc()
        self._update_gauges()
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, seed: int) -> np.ndarray:
        """RWR scores from the current snapshot (may lag buffered updates)."""
        self.poll()
        return self._solver.query(seed)

    def query_detailed(self, seed: int) -> QueryResult:
        """Like :meth:`query`, with timing metadata."""
        self.poll()
        return self._solver.query_detailed(seed)

    def query_many(
        self, seeds: Iterable[int], batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Batched scores via the solver's multi-RHS path
        (:meth:`~repro.core.base.RWRSolver.query_many`)."""
        self.poll()
        return self._solver.query_many(seeds, batch_size=batch_size)

    def query_many_detailed(
        self, seeds: Iterable[int], batch_size: Optional[int] = None
    ) -> BatchQueryResult:
        """Like :meth:`query_many`, with per-seed iterations and timings."""
        self.poll()
        return self._solver.query_many_detailed(seeds, batch_size=batch_size)

    def query_topk(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
    ) -> TopKResult:
        """Exact top-``k`` pairs from the current snapshot
        (:meth:`~repro.core.base.RWRSolver.query_topk`)."""
        self.poll()
        return self._solver.query_topk(
            seed, k, exclude_seed=exclude_seed, candidates=candidates
        )

    def query_topk_many(
        self,
        seeds: Iterable[int],
        k: int,
        exclude_seed: bool = True,
        candidates: Optional[np.ndarray] = None,
        batch_size: Optional[int] = None,
    ) -> List[TopKResult]:
        """Top-``k`` answers for several seeds from one batched solve."""
        self.poll()
        return self._solver.query_topk_many(
            seeds,
            k,
            exclude_seed=exclude_seed,
            candidates=candidates,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take_batch(self) -> UpdateBatch:
        batch = UpdateBatch(added=tuple(self._added), removed=tuple(self._removed))
        self._added.clear()
        self._removed.clear()
        return batch

    def _rebuild_sync(self, new_graph: Graph, batch: UpdateBatch) -> None:
        start = time.perf_counter()
        parent = (
            self._solver.solver_artifacts
            if self.incremental and isinstance(self._solver, BePI)
            else None
        )
        self._solver, mode, bound = rebuild_solver(
            parent, new_graph, self._factory, bound_threshold=self.error_bound
        )
        self._graph = new_graph
        self.n_rebuilds += 1
        self._record_mode(mode, bound)
        self._record_rebuild(time.perf_counter() - start)
        self._publish(batch=batch, mode=mode, bound=bound)

    def _validate_node(self, node: int) -> None:
        if not 0 <= int(node) < self._graph.n_nodes:
            raise InvalidParameterError(
                f"node {node} out of range for {self._graph.n_nodes} nodes "
                "(the batch-update wrapper does not grow the node set)"
            )

    def _publish(
        self, batch: Optional[UpdateBatch], mode: str, bound: float
    ) -> None:
        """Push the fresh snapshot's artifacts to the store, if configured."""
        if self.artifact_store is None:
            return
        assert isinstance(self._solver, BePI)  # enforced in _check_store_factory
        metadata: Optional[Dict[str, Any]] = None
        if batch is not None:
            parent = self.artifact_store.current_path()
            metadata = {
                "parent": parent.name if parent is not None else None,
                "batch_digest": batch.digest(),
                "n_updates": batch.n_updates,
                "mode": mode,
                "error_bound": bound,
            }
        self.artifact_store.publish(self._solver, metadata=metadata)
        self.n_published += 1
        self._registry().counter(
            telemetry.DYNAMIC_PUBLISHES, help="artifact generations published"
        ).inc()

    def _registry(self) -> MetricsRegistry:
        """The ambient registry if one is activated, else the instance one.

        Resolved per call (like :mod:`repro.serve` does) so a caller that
        installs a fresh :class:`MetricsRegistry` after construction keeps
        receiving gauge updates instead of them silently landing on the
        registry captured at ``__init__`` time.
        """
        return telemetry.active_registry() or self.telemetry

    def _record_skip(self) -> None:
        self.n_skipped_rebuilds += 1
        self._registry().counter(
            telemetry.DYNAMIC_REBUILDS_SKIPPED, help="rebuilds skipped as no-ops"
        ).inc()
        self._update_gauges()

    def _record_mode(self, mode: str, bound: float) -> None:
        self.last_rebuild_mode = mode
        self.last_error_bound = float(bound)
        reg = self._registry()
        if mode == "incremental":
            self.n_corrections += 1
            reg.counter(
                telemetry.DYNAMIC_CORRECTIONS,
                help="rebuilds served as incremental updates",
            ).inc()
        else:
            self.n_full_rebuilds += 1
            reg.counter(
                telemetry.DYNAMIC_FULL_REBUILDS,
                help="rebuilds that re-preprocessed from scratch",
            ).inc()

    def _record_rebuild(self, seconds: float) -> None:
        reg = self._registry()
        reg.counter(
            telemetry.DYNAMIC_REBUILDS,
            help="effective re-preprocessing passes (incl. initial)",
        ).inc()
        reg.histogram(
            telemetry.DYNAMIC_REBUILD_SECONDS, help="re-preprocessing wall time"
        ).observe(seconds)

    def _update_gauges(self) -> None:
        reg = self._registry()
        reg.gauge(
            telemetry.DYNAMIC_PENDING_UPDATES,
            help="buffered edge changes not yet applied",
        ).set(self.pending_updates)
        decided = self.n_skipped_rebuilds + self.n_rebuilds
        reg.gauge(
            telemetry.DYNAMIC_SKIPPED_REBUILD_RATIO,
            help="share of rebuild decisions skipped as no-ops",
        ).set(self.n_skipped_rebuilds / decided if decided else 0.0)
        reg.gauge(
            telemetry.DYNAMIC_ERROR_BOUND,
            help="tracked L1 error bound of the last rebuild",
        ).set(self.last_error_bound)

    def _maybe_rebuild(self) -> None:
        if (
            self.auto_rebuild_threshold is not None
            and self.pending_updates >= self.auto_rebuild_threshold
        ):
            self.rebuild()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicRWR(nodes={self._graph.n_nodes}, "
            f"pending={self.pending_updates}, rebuilds={self.n_rebuilds})"
        )
