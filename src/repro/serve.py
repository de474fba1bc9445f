"""Multi-process query serving over memory-mapped artifact directories.

The payoff of the build/serve split: once preprocessing has been exported
with :func:`repro.persistence.save_artifacts`, any number of worker
processes can serve Algorithm 4 queries against the *same* on-disk bundle.
Each worker opens the directory with ``mmap_mode="r"``, so

- opening maps the arrays instead of copying them (past checksum
  verification, nothing is read until the first query touches it),
- the matrices live in the OS page cache **once**, shared by every worker
  on the machine, instead of once per process as with an eager load,
- the mappings are read-only, so no worker can corrupt another's state.

:func:`open_query_engine` is the single-process entry point (give it an
artifact directory or a store root);
:class:`WorkerPool` manages a set of worker processes answering
``query_many`` batches over task queues, and is what
``repro-cli serve`` and the serving benchmark build on.
"""

from __future__ import annotations

import functools
import os
import queue
import signal
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, telemetry, tracing
from repro._forkserver import process_context
from repro.bench.memory import mapped_rss_bytes, process_rss_bytes
from repro.core.engine import (
    BearQueryEngine,
    BePIQueryEngine,
    QueryEngine,
    SolverArtifacts,
)
from repro.core.topk import TopKResult, from_pairs, to_pairs, validate_k
from repro.exceptions import GraphFormatError, InvalidParameterError
from repro.faults import FaultPlan
from repro.persistence import PathLike
from repro.store import ArtifactStore, open_artifacts
from repro.telemetry import MetricsRegistry

#: Seconds a pool waits for a worker reply before giving up.
DEFAULT_TIMEOUT = 300.0

#: Seconds between liveness checks while waiting on the result queue.
POLL_INTERVAL = 0.1

#: Respawns allowed per worker slot before it is taken out of rotation.
DEFAULT_MAX_RESPAWNS = 3

#: Dispatch attempts per request before the caller sees a WorkerError.
DEFAULT_MAX_RETRIES = 3

#: First respawn backoff (seconds); doubles per respawn of the same slot.
DEFAULT_RESPAWN_BACKOFF = 0.25

#: Cap on the exponential respawn backoff.
MAX_RESPAWN_BACKOFF = 30.0

#: Default capacity of the pool's generation-keyed top-k result cache.
DEFAULT_TOPK_CACHE_ENTRIES = 4096


class WorkerError(RuntimeError):
    """A worker process reported a failure instead of a result."""


class DeadlineExpired(WorkerError):
    """The request's deadline budget was spent before it could be answered.

    Raised by the pool when a task's budget is already spent at submit
    time, and when a worker dequeues a task whose budget ran out while it
    sat in the queue (both count ``rwr.serve.deadline_expired``).
    Subclasses :class:`WorkerError` so existing error handling — the
    ``PoolServer`` error reply, CLI exit paths — keeps working, while the
    gateway can tell the two apart and degrade instead of failing.
    """


class TopKCache:
    """A small LRU cache of top-k replies, keyed by artifact generation.

    Keys are ``(generation, seed, k, exclude_seed)`` tuples: because the
    artifact directories are immutable and the query phase deterministic,
    a cached answer for a generation is valid for as long as that
    generation exists — no TTL, no explicit invalidation.  When the
    :class:`~repro.store.ArtifactStore` ``current`` pointer swaps, new
    queries carry the new generation in their key, so every stale entry
    simply stops being reachable and ages out of the LRU.

    Hits, misses and evictions are counted into the owning registry
    (``rwr.topk.cache.{hits,misses,evictions}``); ``max_entries=0``
    disables caching entirely.

    The cache is thread-safe: ``get``/``put``/``stats`` hold an internal
    lock, because under the async gateway the pool is reached from
    executor threads concurrently with stats readers — an unlocked
    ``OrderedDict.move_to_end`` racing a ``popitem`` corrupts the LRU
    order (or raises ``KeyError``) in ways a single synchronous caller
    never sees.
    """

    def __init__(self, max_entries: int = DEFAULT_TOPK_CACHE_ENTRIES,
                 registry: Optional[MetricsRegistry] = None):
        if max_entries < 0:
            raise InvalidParameterError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, TopKResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._registry = registry if registry is not None else MetricsRegistry()
        # Pre-register so an all-miss (or never-queried) cache still
        # exports zeros instead of absent series.
        self._hits = self._registry.counter(
            telemetry.TOPK_CACHE_HITS, help="top-k queries answered from cache"
        )
        self._misses = self._registry.counter(
            telemetry.TOPK_CACHE_MISSES, help="top-k queries needing a solve"
        )
        self._evictions = self._registry.counter(
            telemetry.TOPK_CACHE_EVICTIONS, help="top-k cache entries evicted (LRU)"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[TopKResult]:
        """The cached answer for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def put(self, key: Hashable, value: TopKResult) -> None:
        """Insert an answer, evicting least-recently-used entries beyond
        capacity."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def stats(self) -> Dict[str, float]:
        """Current counter values plus occupancy (for ``pool_stats``)."""
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
            }


def _command_seed_count(command: tuple) -> int:
    """How many seeds a worker command carries (0 for control commands)."""
    if command[0] == "query_many":
        return len(command[1])
    if command[0] == "query_topk":
        return len(command[1][0])
    return 0


def _single_caller(method):
    """Serialize a :class:`WorkerPool` worker round-trip under the pool's
    caller lock.  Dispatch + supervised collection assume exclusive use of
    the shared result queue; without the lock, two concurrent callers each
    consume (and drop) the other's replies and both time out."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._caller_lock:
            return method(self, *args, **kwargs)

    return wrapper


def _trace_task_payload(trace: Sequence[Tuple[int, int]]) -> tuple:
    """The trailing trace element of a traced task tuple: the dispatch
    wall-clock timestamp (for the worker's queue-wait span — perf counters
    are not comparable across processes) plus the origin contexts."""
    return (time.time(), tuple((int(t), int(s)) for t, s in trace))


def _task_deadline(message: tuple) -> Optional[float]:
    """The optional wall-clock deadline element of a task tuple.

    Task tuples are ``(op, wire_id, payload[, trace][, deadline])``; the
    deadline is an absolute ``time.time()`` instant (monotonic readings
    are not comparable across processes, mirroring the trace payload's
    dispatch timestamp).
    """
    if len(message) > 4 and message[4] is not None:
        return float(message[4])
    return None


def engine_for_bundle(bundle: SolverArtifacts) -> QueryEngine:
    """The query engine class matching a bundle's ``kind``."""
    if bundle.kind == "bepi":
        return BePIQueryEngine(bundle)
    if bundle.kind == "bear":
        return BearQueryEngine(bundle)
    raise InvalidParameterError(f"no query engine for artifact kind {bundle.kind!r}")


def resolve_artifact_path(path: PathLike) -> Path:
    """Resolve ``path`` to a concrete artifact directory.

    Accepts an artifact directory itself, or an
    :class:`~repro.store.ArtifactStore` root (resolved through its
    ``current`` pointer, so re-resolving after a publish picks up the new
    generation).
    """
    p = Path(path)
    if (p / "manifest.json").is_file():
        return p
    if (p / "generations").is_dir():
        current = ArtifactStore(p).current_path()
        if current is None:
            raise GraphFormatError(f"{path}: store has no published generation")
        return current
    raise GraphFormatError(f"{path}: neither an artifact directory nor a store root")


def open_query_engine(
    path: PathLike, mmap: bool = True, verify: bool = True
) -> QueryEngine:
    """Open an artifact directory (or store root) as a stateless query engine.

    This is what a serving worker calls: no solver object, no
    re-preprocessing — just the Algorithm 4 executor over memory-mapped
    matrices.  Opening goes through :func:`repro.store.open_artifacts`, so
    a corrupt current generation of a store root is quarantined and the
    last good generation is served instead.
    """
    return engine_for_bundle(open_artifacts(path, mmap=mmap, verify=verify))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@contextmanager
def _worker_trace(registry: MetricsRegistry, trace_payload):
    """Trace scope for one worker query batch.

    ``trace_payload`` is the optional trailing element of a traced task
    tuple: ``(dispatch_wall_time, ((trace_id, span_id), ...))`` — one
    context per traced origin request.  Yields ``None`` untraced, else a
    capture list that ends up holding every span record the batch emits
    (the ambient contexts make :meth:`MetricsRegistry.span` — and with it
    the engine's Algorithm-4 phase spans — trace children automatically).

    The pool queue wait is measured against the dispatch *wall-clock*
    timestamp: ``perf_counter`` readings are not comparable across
    processes, so this one span uses ``time.time()`` with the duration
    clamped at zero against clock steps.
    """
    if not trace_payload:
        yield None
        return
    dispatched_at, ctx_pairs = trace_payload
    contexts = tuple(
        tracing.TraceContext(int(t), int(s)) for t, s in ctx_pairs
    )
    with tracing.capture() as records:
        now = time.time()
        wait = max(0.0, now - float(dispatched_at))
        registry.histogram(
            "serve.queue_wait.seconds", help="pool task-queue wait per batch"
        ).observe(wait, exemplar=tracing.format_id(contexts[0].trace_id))
        for ctx in contexts:
            records.append(
                tracing.make_record(
                    "serve.queue_wait",
                    trace_id=ctx.trace_id,
                    span_id=tracing.mint_id(),
                    parent_id=ctx.span_id,
                    start_time=float(dispatched_at),
                    duration=wait,
                )
            )
        with tracing.activate(contexts):
            yield records


def _bundle_rss_bytes(engine: QueryEngine) -> Optional[int]:
    """Resident bytes of the served bundle's memory-mapped array files, or
    ``None`` (no ``/proc``, or a bundle not loaded from a directory)."""
    source = engine.artifacts.source
    return None if source is None else mapped_rss_bytes(source)


def _worker_main(worker_id, path, mmap, task_queue, result_queue, fault_plan=None):
    """Worker loop: open the artifact directory, then answer until ``stop``.

    Replies on the shared result queue as ``(kind, worker_id, request_id,
    payload)`` tuples; the load-time RSS delta in the ready message is what
    the serving benchmark reports (for mmap workers it stays far below the
    artifact size — the pages are shared, not copied).

    ``fault_plan`` is an optional :class:`repro.faults.FaultPlan` as a dict
    (dataclasses do not cross the process boundary cheaply); when present
    the worker installs it and honours its crash/hang/delay directives,
    which is how the chaos tests produce reproducible failures.
    """
    if fault_plan:
        faults.install(FaultPlan.from_dict(fault_plan))
    if faults.hang_for(worker_id):
        # Simulate a wedged worker: SIGTERM is ignored, so only the pool's
        # terminate -> kill escalation can reap this process.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    registry = MetricsRegistry()
    rss_before = process_rss_bytes()
    start = time.perf_counter()
    try:
        engine = open_query_engine(path, mmap=mmap)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        result_queue.put(("error", worker_id, "ready", f"{type(exc).__name__}: {exc}"))
        return
    load_seconds = time.perf_counter() - start
    rss_after = process_rss_bytes()
    rss_delta = (
        rss_after - rss_before if rss_before is not None and rss_after is not None else None
    )
    registry.gauge("serve.load.seconds", help="artifact open time").set(load_seconds)
    result_queue.put(
        (
            "ready",
            worker_id,
            "ready",
            {
                "worker_id": worker_id,
                "pid": os.getpid(),
                "n_nodes": engine.n_nodes,
                "load_seconds": load_seconds,
                "rss_before_load_bytes": rss_before,
                "rss_after_load_bytes": rss_after,
                "load_rss_delta_bytes": rss_delta,
            },
        )
    )
    started = time.perf_counter()
    batch_index = 0
    with registry.activate():
        while True:
            message = task_queue.get()
            command, request_id = message[0], message[1]
            if command == "stop":
                return
            trace_records: Optional[List[Dict[str, Any]]] = None
            try:
                if command in ("query_many", "query_topk"):
                    if command == "query_many":
                        seeds = message[2]
                    else:
                        seeds, top_k, exclude_seed = message[2]
                    trace_payload = message[3] if len(message) > 3 else None
                    deadline_wall = _task_deadline(message)
                    engine_deadline: Optional[float] = None
                    if deadline_wall is not None:
                        remaining = deadline_wall - time.time()
                        if remaining <= 0.0:
                            # The budget ran out while the task sat in the
                            # queue: drop it instead of burning a solve
                            # nobody is waiting for.
                            registry.counter(
                                telemetry.DEADLINE_EXPIRED,
                                help="tasks dropped with a spent deadline budget",
                            ).inc()
                            result_queue.put(
                                (
                                    "expired",
                                    worker_id,
                                    request_id,
                                    "deadline spent {:.1f} ms before the solve "
                                    "started".format(-remaining * 1000.0),
                                )
                            )
                            continue
                        engine_deadline = time.monotonic() + remaining
                    registry.counter("serve.requests", help="query batches served").inc()
                    registry.histogram(
                        "serve.batch.size",
                        buckets=telemetry.BATCH_SIZE_BUCKETS,
                        help="seeds per served batch",
                    ).observe(len(seeds))
                    with _worker_trace(registry, trace_payload) as trace_records:
                        with registry.span("serve.batch"):
                            if command == "query_many":
                                payload: Any = engine.query_many(
                                    seeds, deadline=engine_deadline
                                )
                            else:
                                # The payload shrink of the top-k path: k
                                # packed (int64, float64) pairs per seed
                                # cross the wire instead of an n-float
                                # dense row.
                                payload = [
                                    to_pairs(result)
                                    for result in engine.query_topk_many(
                                        seeds,
                                        top_k,
                                        exclude_seed=exclude_seed,
                                        deadline=engine_deadline,
                                    )
                                ]
                    # Injection window: the answer is computed but not yet
                    # sent — exactly where an OOM kill loses the most work.
                    delay = faults.delay_for(worker_id, batch_index)
                    crash = faults.crash_for(worker_id, batch_index)
                    batch_index += 1
                    if delay > 0.0:
                        time.sleep(delay)
                    if crash is not None:
                        os._exit(crash.exitcode)
                elif command == "reopen":
                    # The artifact store published a new generation: re-run
                    # the open so subsequent queries serve it.  mmap makes
                    # this near-free (nothing is read until touched).
                    engine = open_query_engine(path, mmap=mmap)
                    payload = {"n_nodes": engine.n_nodes, "pid": os.getpid()}
                elif command == "rss":
                    payload = process_rss_bytes()
                elif command == "bundle_rss":
                    payload = _bundle_rss_bytes(engine)
                elif command == "metrics":
                    registry.gauge(
                        "serve.uptime.seconds", help="worker loop uptime"
                    ).set(time.perf_counter() - started)
                    rss_now = process_rss_bytes()
                    if rss_now is not None:
                        registry.gauge("serve.rss.bytes", help="worker RSS").set(rss_now)
                    bundle_rss = _bundle_rss_bytes(engine)
                    if bundle_rss is not None:
                        registry.gauge(
                            "serve.bundle_rss.bytes",
                            help="resident bytes of the served bundle's mapped arrays",
                        ).set(bundle_rss)
                    payload = registry.snapshot()
                else:
                    raise ValueError(f"unknown worker command {command!r}")
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                result_queue.put(
                    ("error", worker_id, request_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                if trace_records:
                    # Traced query: ship the worker-side span records back
                    # across the process boundary in the reply tuple.
                    result_queue.put(
                        ("result", worker_id, request_id, payload, trace_records)
                    )
                else:
                    result_queue.put(("result", worker_id, request_id, payload))


class WorkerPool:
    """A supervised set of query-serving worker processes over one artifact path.

    Parameters
    ----------
    path:
        Artifact directory or store root; every worker opens it
        independently (see :func:`open_query_engine`).
    n_workers:
        Number of worker processes.
    mmap:
        Open the arrays memory-mapped (the point of the exercise); pass
        ``False`` only to measure what private copies would cost.
    start_method:
        ``multiprocessing`` start method.  The default (``None``) forks
        every worker, respawn included, from the process-wide forkserver
        whose server has imported :mod:`repro.serve`
        (:mod:`repro._forkserver`): only the first pool of a process pays
        for a new interpreter importing numpy and ``scipy.sparse``, and a
        later pool boots in tens of milliseconds instead of ~0.45 s.  The
        parent's own state never reaches a worker (the server is not the
        parent).  A forked worker's RSS counts only the server's pages it
        touches, so it is lower than a cold interpreter's, and its load
        delta also counts library pages the first open faults in; pass
        ``"spawn"`` to measure the artifact-loading cost alone, as
        ``benchmarks/bench_serve.py`` does.  Where the platform has no
        ``forkserver`` the default is ``"spawn"``.
    metrics_path:
        Optional path of a JSON metrics snapshot the pool keeps fresh: the
        merged worker metrics are rewritten there after every query batch
        and at shutdown, which is the file ``repro-cli metrics`` reads.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` shipped to every worker
        (chaos testing); respawned workers get the plan narrowed by
        :meth:`~repro.faults.FaultPlan.without_worker` so one-shot crash
        directives do not loop.
    max_respawns:
        Respawns allowed per worker slot before it is taken out of
        rotation permanently.
    max_retries:
        Dispatch attempts per request (first try included) before the
        caller sees a :class:`WorkerError`.
    respawn_backoff:
        First respawn delay in seconds; doubles per respawn of the same
        slot (capped at :data:`MAX_RESPAWN_BACKOFF`).
    stop_timeout:
        Seconds :meth:`stop` waits at each escalation step
        (cooperative stop → SIGTERM → SIGKILL).
    topk_cache_entries:
        Capacity of the generation-keyed :class:`TopKCache` fronting
        :meth:`query_topk` / :meth:`query_topk_many` / :meth:`scatter_topk`
        (0 disables caching).

    Top-k serving
    -------------
    The top-k methods answer "the ``k`` best nodes for this seed" with
    k-pair wire replies (``k`` packed ``(int64 id, float64 score)`` pairs
    instead of ``n`` float64 scores) and are fronted by an LRU result
    cache keyed on ``(artifact generation, seed, k, exclude_seed)``.
    When the pool serves an :class:`~repro.store.ArtifactStore` root, each
    top-k call re-resolves the store's ``current`` pointer: a published
    generation swap makes the workers re-open the artifacts (cheap — the
    new arrays are memory-mapped, nothing is read until touched) and
    retires every stale cache entry automatically, because old entries
    are keyed under the old generation and can never match again.

    Supervision
    -----------
    The pool polls worker liveness while waiting for replies.  A worker
    found dead (OOM kill, segfault, injected crash) is respawned with
    exponential backoff, and its in-flight requests are re-dispatched to
    healthy workers — at most ``max_retries`` attempts each.  Because the
    artifacts are immutable and the query phase is deterministic, a retried
    request returns bit-identical scores; callers never observe the crash
    beyond added latency.  Restart counts are exported as
    ``rwr.serve.worker_restarts`` / ``rwr.serve.request_retries`` and in
    :meth:`pool_stats`.

    Examples
    --------
    ::

        with WorkerPool(artifact_dir, n_workers=2) as pool:
            scores = pool.query_many([0, 1, 2])          # one worker
            parts = pool.scatter(range(100))             # all workers
    """

    def __init__(
        self,
        path: PathLike,
        n_workers: int = 2,
        mmap: bool = True,
        start_method: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        metrics_path: Optional[PathLike] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        respawn_backoff: float = DEFAULT_RESPAWN_BACKOFF,
        stop_timeout: float = 10.0,
        topk_cache_entries: int = DEFAULT_TOPK_CACHE_ENTRIES,
    ):
        if n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 1:
            raise InvalidParameterError(f"max_retries must be >= 1, got {max_retries}")
        self.path = Path(path)
        self.n_workers = n_workers
        self.timeout = timeout
        self.max_respawns = max_respawns
        self.max_retries = max_retries
        self.respawn_backoff = respawn_backoff
        self.stop_timeout = stop_timeout
        self.metrics_path = Path(metrics_path) if metrics_path is not None else None
        self._clean_orphan_metrics()
        self._started = time.perf_counter()
        self._worker_queries = [0] * n_workers
        # Guards _worker_queries: the counts are read by routing decisions
        # and pool_stats() while gateway executor threads submit work.
        self._queries_lock = threading.Lock()
        # Serializes worker round-trips (dispatch + supervised collection):
        # _collect assumes exclusive use of the shared result queue, so
        # concurrent callers — two PoolServers over one pool, or a fleet
        # metrics poll racing a query — must take turns or each would
        # consume and drop the other's replies.  Reentrant because e.g.
        # query_many -> _ensure_current_generation both take it.
        self._caller_lock = threading.RLock()
        self._mmap = mmap
        self._ctx = process_context(start_method)
        self._result_queue = self._ctx.Queue()
        self._task_queues: List[Any] = []
        self._processes: List[Any] = []
        self._worker_plans: List[Optional[FaultPlan]] = [fault_plan] * n_workers
        self._request_counter = 0
        self._closed = False
        # Supervision state: wire-id -> in-flight record, caller-abandoned
        # origins, permanently failed origins, restart bookkeeping.
        self._inflight: Dict[int, Dict[str, Any]] = {}
        self._cancelled: set = set()
        self._failed: Dict[int, str] = {}
        self._respawns = [0] * n_workers
        self._disabled = [False] * n_workers
        self._restart_log: List[Dict[str, Any]] = []
        self._force_killed: List[int] = []
        self._registry = MetricsRegistry()
        # Pre-register so the supervision counters export as 0 rather than
        # being absent from snapshots of an incident-free pool.
        self._registry.counter(
            telemetry.WORKER_RESTARTS, help="worker processes respawned"
        )
        self._registry.counter(
            telemetry.REQUEST_RETRIES,
            help="requests re-dispatched after a worker death",
        )
        self._registry.counter(
            telemetry.WORKER_REROUTES,
            help="pinned requests rerouted off a disabled worker slot",
        )
        self._registry.counter(
            telemetry.DEADLINE_EXPIRED,
            help="tasks dropped with a spent deadline budget",
        )
        # Top-k result cache, keyed by the artifact generation the workers
        # serve.  A bare artifact directory is its own (only) generation;
        # a store root re-resolves its current pointer per top-k call.
        self._is_store = (
            not (self.path / "manifest.json").is_file()
            and (self.path / "generations").is_dir()
        )
        try:
            self._generation: Optional[str] = str(resolve_artifact_path(self.path))
        except GraphFormatError:
            # Unpublished/unresolvable path: let the workers surface the
            # real startup error below instead of masking it here.
            self._generation = None
        # When serving a store, pin the generation the workers have open
        # with a liveness-scoped lease so ArtifactStore.prune cannot delete
        # the directory behind their memory maps; the lease moves with
        # every hot swap and is released on stop.
        self._generation_lease = None
        if self._is_store:
            from repro.store import ArtifactStore

            self._store: Optional["ArtifactStore"] = ArtifactStore(self.path)
            self._move_generation_lease(self._generation)
        else:
            self._store = None
        self._topk_cache = TopKCache(topk_cache_entries, registry=self._registry)
        for worker_id in range(n_workers):
            task_queue = self._ctx.Queue()
            process = self._spawn_process(worker_id, task_queue, fault_plan)
            self._task_queues.append(task_queue)
            self._processes.append(process)
        self._stats: List[Dict[str, Any]] = [{} for _ in range(n_workers)]
        try:
            self._await_ready(timeout)
        except BaseException:
            self._terminate()
            raise

    def _await_ready(self, timeout: float) -> None:
        """Wait for every worker's ``ready`` message, watching the workers.

        A worker that dies before it reports (killed, or failing before
        it can put its error) raises :class:`WorkerError` within two
        polls; a message it put before exiting is already in the pipe by
        then, so the second poll reads it first.
        """
        deadline = time.monotonic() + timeout
        pending = set(range(self.n_workers))
        dead_before: set = set()
        while pending:
            try:
                kind, worker_id, _, payload = self._result_queue.get(
                    timeout=POLL_INTERVAL
                )
            except queue.Empty:
                dead = {w for w in pending if not self._processes[w].is_alive()}
                lost = sorted(dead & dead_before)
                if lost:
                    raise WorkerError(
                        f"worker {lost[0]} died before it was ready "
                        f"(exit code {self._processes[lost[0]].exitcode})"
                    )
                dead_before = dead
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"workers {sorted(pending)} not ready after {timeout:g} s"
                    )
                continue
            if kind == "error":
                raise WorkerError(f"worker {worker_id} failed to start: {payload}")
            self._stats[worker_id] = payload
            pending.discard(worker_id)

    def _spawn_process(self, worker_id, task_queue, fault_plan):
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                str(self.path),
                self._mmap,
                task_queue,
                self._result_queue,
                fault_plan.to_dict() if fault_plan is not None else None,
            ),
            daemon=True,
        )
        process.start()
        return process

    def _admit_deadline(self, deadline_ms: Optional[float]) -> Optional[float]:
        """Convert a remaining-budget ``deadline_ms`` to an absolute
        wall-clock deadline, dropping already-expired requests up front."""
        if deadline_ms is None:
            return None
        if deadline_ms <= 0.0:
            self._registry.counter(
                telemetry.DEADLINE_EXPIRED,
                help="tasks dropped with a spent deadline budget",
            ).inc()
            raise DeadlineExpired(
                "request budget spent before dispatch "
                f"({deadline_ms:.1f} ms remaining)"
            )
        return time.time() + deadline_ms / 1000.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @_single_caller
    def query_many(
        self,
        seeds: Sequence[int],
        worker: Optional[int] = None,
        trace: Optional[Sequence[Tuple[int, int]]] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """``(k, n)`` RWR scores for ``seeds``, answered by one worker.

        By default the request goes to the **least-loaded** live worker
        (shallowest task queue, ties broken by fewest seeds submitted),
        so repeated calls spread across the pool instead of hot-spotting
        slot 0 while the rest idle.  Pass an explicit ``worker`` to pin
        the request (tests, determinism drills); a pinned worker whose
        slot has been taken out of rotation by the supervisor is rerouted
        to the least-loaded healthy one.

        ``trace`` optionally carries ``(trace_id, span_id)`` contexts —
        one per traced origin request — across the process boundary; the
        worker's span records come back with the reply and land in this
        process's :func:`repro.tracing.get_tracer` ring.

        ``deadline_ms`` is the request's remaining budget.  A spent budget
        raises :class:`DeadlineExpired` before dispatch; otherwise the
        deadline rides along in the task tuple and the worker drops the
        batch (or hands the engine a best-effort solve budget) based on
        how much remains when it dequeues.
        """
        deadline_wall = self._admit_deadline(deadline_ms)
        self._ensure_current_generation()
        worker = self._route_worker(worker)
        request_id = self._submit(
            worker, seeds, trace=trace, deadline_wall=deadline_wall
        )
        result = self._collect({request_id})[request_id]
        self._maybe_write_metrics()
        return result

    @_single_caller
    def query_many_each(self, seeds: Sequence[int]) -> List[np.ndarray]:
        """Have every healthy worker answer the same batch; returns one
        ``(k, n)`` matrix per worker (the cross-process determinism check)."""
        self._ensure_current_generation()
        requests = {self._submit(w, seeds): w for w in self._require_healthy()}
        results = self._collect(set(requests))
        self._maybe_write_metrics()
        return [results[rid] for rid in sorted(requests, key=requests.get)]

    @_single_caller
    def scatter(self, seeds: Sequence[int]) -> np.ndarray:
        """Split a batch across the healthy workers; rows come back in seed
        order (bit-identical even if a worker dies and its share is retried
        elsewhere — the artifacts are immutable)."""
        self._ensure_current_generation()
        seed_list = list(seeds)
        workers = self._require_healthy()
        chunks = [c for c in np.array_split(np.arange(len(seed_list)), len(workers))]
        requests = {}
        for worker, chunk in zip(workers, chunks):
            if chunk.size:
                requests[self._submit(worker, [seed_list[i] for i in chunk])] = chunk
        results = self._collect(set(requests))
        n = next(iter(results.values())).shape[1] if results else 0
        scores = np.empty((len(seed_list), n), dtype=np.float64)
        for request_id, chunk in requests.items():
            scores[chunk] = results[request_id]
        self._maybe_write_metrics()
        return scores

    # ------------------------------------------------------------------
    # Top-k queries (k-pair wire replies + generation-keyed cache)
    # ------------------------------------------------------------------
    def query_topk(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        worker: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> TopKResult:
        """Exact top-``k`` ``(id, score)`` pairs for one seed.

        Bit-identical (ids and scores) to ``query_many([seed])`` followed
        by the deterministic lexicographic sort, but the reply crossing
        the process boundary is ``k`` 16-byte pairs instead of ``n``
        floats, and repeats of a hot seed are answered straight from the
        generation-keyed cache without any engine solve.
        """
        return self.query_topk_many(
            [seed], k, exclude_seed=exclude_seed, worker=worker,
            deadline_ms=deadline_ms,
        )[0]

    @_single_caller
    def query_topk_many(
        self,
        seeds: Sequence[int],
        k: int,
        exclude_seed: bool = True,
        worker: Optional[int] = None,
        trace: Optional[Sequence[Tuple[int, int]]] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[TopKResult]:
        """Top-``k`` answers for a batch of seeds from one worker.

        Cached seeds are answered locally; only the misses are shipped to
        a worker (least-loaded by default, or pinned via ``worker``).
        ``trace`` carries trace contexts to the worker exactly as in
        :meth:`query_many` (cache hits never reach a worker, so a fully
        cached batch contributes no worker-side spans).
        """
        k = validate_k(k)
        seed_list = [int(s) for s in seeds]
        generation = self._ensure_current_generation()
        answers: Dict[int, TopKResult] = {}
        misses: List[int] = []
        for index, seed in enumerate(seed_list):
            cached = self._cache_get(generation, seed, k, exclude_seed)
            if cached is not None:
                answers[index] = cached
            else:
                misses.append(index)
        if misses:
            # Cache hits are free: only a dispatch to a worker spends the
            # budget, so a fully cached batch is served even at zero.
            deadline_wall = self._admit_deadline(deadline_ms)
            target = self._route_worker(worker)
            request_id = self._submit_topk(
                target, [seed_list[i] for i in misses], k, exclude_seed,
                trace=trace, deadline_wall=deadline_wall,
            )
            replies = self._collect({request_id})[request_id]
            self._absorb_topk_replies(
                generation, k, exclude_seed,
                [(i, seed_list[i]) for i in misses], replies, answers,
            )
        self._maybe_write_metrics()
        return [answers[index] for index in range(len(seed_list))]

    @_single_caller
    def scatter_topk(
        self,
        seeds: Sequence[int],
        k: int,
        exclude_seed: bool = True,
    ) -> List[TopKResult]:
        """Top-``k`` answers for a batch, cache first, misses split across
        all healthy workers; results come back in seed order (bit-identical
        even through a worker death — the artifacts are immutable)."""
        k = validate_k(k)
        seed_list = [int(s) for s in seeds]
        generation = self._ensure_current_generation()
        answers: Dict[int, TopKResult] = {}
        misses: List[int] = []
        for index, seed in enumerate(seed_list):
            cached = self._cache_get(generation, seed, k, exclude_seed)
            if cached is not None:
                answers[index] = cached
            else:
                misses.append(index)
        if misses:
            workers = self._require_healthy()
            chunks = np.array_split(np.asarray(misses, dtype=np.int64), len(workers))
            requests = {}
            for target, chunk in zip(workers, chunks):
                if chunk.size:
                    requests[self._submit_topk(
                        target, [seed_list[i] for i in chunk], k, exclude_seed
                    )] = chunk
            results = self._collect(set(requests))
            for request_id, chunk in requests.items():
                self._absorb_topk_replies(
                    generation, k, exclude_seed,
                    [(int(i), seed_list[int(i)]) for i in chunk],
                    results[request_id], answers,
                )
        self._maybe_write_metrics()
        return [answers[index] for index in range(len(seed_list))]

    def topk_cache_stats(self) -> Dict[str, float]:
        """Occupancy and hit/miss/eviction counters of the top-k cache."""
        return self._topk_cache.stats()

    @_single_caller
    def rss_bytes(self) -> List[int]:
        """Current resident set size of every healthy worker, in bytes."""
        return self._ask_each(("rss",))

    @_single_caller
    def bundle_rss_bytes(self) -> List[Optional[int]]:
        """Resident bytes of the served bundle in every healthy worker.

        The summed ``Rss`` of each worker's ``/proc/self/smaps`` mappings of
        the served generation's array files, next to :meth:`rss_bytes`'s
        whole-process figure: what of the process is the bundle, and what
        is the interpreter and its imports.  ``None`` where ``/proc`` is
        missing.  Read on request only; it costs a walk of the mapping
        table.
        """
        return self._ask_each(("bundle_rss",))

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-worker load statistics reported at startup."""
        return [dict(stats) for stats in self._stats]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @_single_caller
    def worker_metrics(self) -> List[Dict[str, Any]]:
        """One metrics snapshot per healthy worker (see :mod:`repro.telemetry`)."""
        return self._ask_each(("metrics",))

    def metrics(self) -> MetricsRegistry:
        """Merged metrics across every worker plus the pool's own counters.

        Counters sum and histograms merge bucket-wise, so the pool totals
        (``rwr.queries``, ``rwr.queries.unconverged``, latency
        distributions) match what a single-process run of the same batches
        would have recorded.  The worker gauges (``serve.load.seconds``,
        ``serve.uptime.seconds``, ``serve.rss.bytes``,
        ``serve.bundle_rss.bytes``) are per-process levels and merge by
        max: the bundle's pages are shared, so a sum would count each
        once per worker.  Supervision counters
        (``rwr.serve.worker_restarts``, ``rwr.serve.request_retries``) are
        recorded pool-side and merged in.
        """
        return telemetry.merge_snapshots(
            self.worker_metrics() + [self._registry.snapshot()]
        )

    def pool_stats(self) -> Dict[str, Any]:
        """Pool-level serving statistics (queue depth, per-worker throughput,
        supervision: respawns, retries, disabled slots, force-kills)."""
        uptime = time.perf_counter() - self._started
        depths = []
        for task_queue in self._task_queues:
            try:
                depths.append(int(task_queue.qsize()))
            except NotImplementedError:  # pragma: no cover - macOS queues
                depths.append(None)
        known = [d for d in depths if d is not None]
        workers = []
        with self._queries_lock:
            worker_queries = list(self._worker_queries)
        for worker_id, submitted in enumerate(worker_queries):
            process = self._processes[worker_id]
            workers.append(
                {
                    "worker_id": worker_id,
                    "queries_submitted": submitted,
                    "queries_per_second": submitted / uptime if uptime > 0 else 0.0,
                    "queue_depth": depths[worker_id],
                    "respawns": self._respawns[worker_id],
                    "disabled": self._disabled[worker_id],
                    "alive": bool(process is not None and process.is_alive()),
                }
            )
        return {
            "n_workers": self.n_workers,
            "uptime_seconds": uptime,
            "queue_depth": sum(known) if known else None,
            "queries_submitted": sum(worker_queries),
            "worker_restarts": sum(self._respawns),
            "requests_retried": int(
                self._registry.counter(telemetry.REQUEST_RETRIES).value
            ),
            "restarts": [dict(event) for event in self._restart_log],
            "force_killed": list(self._force_killed),
            "generation": self._generation,
            "topk_cache": self._topk_cache.stats(),
            "workers": workers,
        }

    def write_metrics(self, path: Optional[PathLike] = None) -> Path:
        """Write the merged worker metrics as a JSON snapshot.

        ``path`` defaults to the pool's ``metrics_path``.  The write is
        :meth:`~repro.telemetry.MetricsRegistry.write_json`'s atomic one;
        orphaned ``.tmp`` files from a previous process that died mid-write
        are cleaned up when the next pool starts.
        """
        target = path if path is not None else self.metrics_path
        if target is None:
            raise InvalidParameterError(
                "no metrics path: pass one or construct the pool with metrics_path"
            )
        return self.metrics().write_json(target)

    def _clean_orphan_metrics(self) -> None:
        """Remove stale ``.tmp`` staging files next to the metrics target."""
        if self.metrics_path is None or not self.metrics_path.parent.is_dir():
            return
        for orphan in self.metrics_path.parent.glob(self.metrics_path.name + ".*tmp"):
            try:
                orphan.unlink()
            except OSError:  # pragma: no cover - best effort
                pass

    def _maybe_write_metrics(self) -> None:
        if self.metrics_path is not None and not self._closed:
            self.write_metrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> List[int]:
        """Shut every worker down and reap the processes.

        Escalates per surviving process: cooperative ``stop`` message →
        ``terminate()`` (SIGTERM) → ``kill()`` (SIGKILL), waiting
        ``stop_timeout`` seconds at each step, so a wedged worker (stuck
        solve, ignored SIGTERM) cannot leave a zombie behind.  Returns the
        ids of workers that had to be force-killed (also recorded in
        :meth:`pool_stats` under ``"force_killed"``).
        """
        if self._closed:
            return list(self._force_killed)
        if self.metrics_path is not None:
            try:
                self.write_metrics()
            except (WorkerError, OSError):  # pragma: no cover - best effort
                pass
        self._closed = True
        if self._generation_lease is not None:
            self._generation_lease.release()
            self._generation_lease = None
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop", None))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            if process is not None:
                process.join(timeout=self.stop_timeout)
        self._terminate()
        return list(self._force_killed)

    def _terminate(self) -> None:
        """Escalate on still-running workers: SIGTERM, then SIGKILL."""
        survivors = [
            (worker_id, process)
            for worker_id, process in enumerate(self._processes)
            if process is not None and process.is_alive()
        ]
        for _, process in survivors:
            process.terminate()
        for _, process in survivors:
            process.join(timeout=self.stop_timeout)
        for worker_id, process in survivors:
            if process.is_alive():
                process.kill()
                process.join(timeout=self.stop_timeout)
                self._force_killed.append(worker_id)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Internals: dispatch
    # ------------------------------------------------------------------
    def _next_request_id(self) -> int:
        # Monotonic and never recycled: a late payload from a crashed or
        # abandoned request can never collide with a newer request's id.
        self._request_counter += 1
        return self._request_counter

    def _healthy_workers(self) -> List[int]:
        return [
            worker_id
            for worker_id in range(self.n_workers)
            if not self._disabled[worker_id]
            and self._processes[worker_id] is not None
        ]

    def _require_healthy(self) -> List[int]:
        workers = self._healthy_workers()
        if not workers:
            raise WorkerError(
                "no healthy workers left "
                f"(all {self.n_workers} slots exhausted their respawn budget)"
            )
        return workers

    def _route_worker(self, worker: Optional[int]) -> int:
        """Resolve a caller's worker choice: explicit pin or least-loaded.

        A pinned worker whose slot left rotation is rerouted through the
        same least-loaded selection as unpinned traffic — sending every
        orphaned pin to the lowest healthy slot would recreate exactly the
        hot-spotting the load-aware routing removed.  Reroutes are counted
        (``rwr.serve.worker_reroutes``) so a dashboard can tell pinned
        traffic is landing somewhere else than asked.
        """
        if worker is None:
            return self._least_loaded_worker()
        if not 0 <= worker < self.n_workers:
            raise InvalidParameterError(
                f"worker must be in [0, {self.n_workers}), got {worker}"
            )
        if self._disabled[worker]:
            self._registry.counter(
                telemetry.WORKER_REROUTES,
                help="pinned requests rerouted off a disabled worker slot",
            ).inc()
            return self._least_loaded_worker()
        return worker

    def _least_loaded_worker(self) -> int:
        """The healthy worker with the shallowest task queue.

        Ties (the common case in synchronous callers, where queues drain
        to zero between calls) break toward the fewest seeds submitted so
        far, then the lowest slot id — the same bookkeeping
        :meth:`pool_stats` reports, so routing is observable.
        """
        with self._queries_lock:
            worker_queries = list(self._worker_queries)

        def load(worker_id: int) -> Tuple[int, int, int]:
            try:
                depth = int(self._task_queues[worker_id].qsize())
            except NotImplementedError:  # pragma: no cover - macOS queues
                depth = 0
            return (depth, worker_queries[worker_id], worker_id)

        return min(self._require_healthy(), key=load)

    # ------------------------------------------------------------------
    # Internals: generation tracking + top-k plumbing
    # ------------------------------------------------------------------
    def _generation_token(self) -> Optional[str]:
        """The artifact generation the pool should be serving right now."""
        if not self._is_store:
            return self._generation
        try:
            return str(resolve_artifact_path(self.path))
        except GraphFormatError:
            return self._generation

    def refresh_generation(self) -> Optional[str]:
        """Follow the store's ``current`` pointer *now*; returns the name
        of the generation the pool is serving afterwards.

        Query paths already do this implicitly per call; this public hook
        exists for pollers (``repro serve --follow-store``) that want the
        workers swapped onto a freshly published generation even while no
        queries are flowing, and for callers that need the swap
        acknowledged before asserting on replies.  On a bare artifact
        directory it is a no-op returning the directory's resolved name.
        """
        token = self._ensure_current_generation()
        return Path(token).name if token is not None else None

    def _move_generation_lease(self, token: Optional[str]) -> None:
        """Re-pin the store lease onto the generation ``token`` resolves to."""
        if self._store is None or token is None:
            return
        old_lease = self._generation_lease
        try:
            self._generation_lease = self._store.acquire_lease(Path(token).name)
        except (GraphFormatError, OSError):  # pragma: no cover - races only
            self._generation_lease = None
        if old_lease is not None:
            old_lease.release()

    @_single_caller
    def _ensure_current_generation(self) -> Optional[str]:
        """Follow the store's ``current`` pointer before any query.

        When a new generation has been published since the workers opened
        their artifacts, every healthy worker re-opens (cheap: mmap) so
        replies match the generation the cache keys them under.  Entries
        keyed under the previous generation become unreachable and age
        out of the LRU — the automatic invalidation the cache relies on.

        Every query mode (dense ``query_many`` / ``query_many_each`` /
        ``scatter`` as well as the top-k paths) funnels through here, so
        after a publish the dense and top-k answers always come from the
        *same* generation — the store's ``current`` — rather than dense
        queries serving whatever the workers opened at spawn time.
        """
        token = self._generation_token()
        if token is not None and token != self._generation:
            requests = {
                self._dispatch(w, ("reopen",)): w for w in self._require_healthy()
            }
            results = self._collect(set(requests))
            for request_id, worker_id in requests.items():
                self._stats[worker_id].update(results[request_id])
            self._generation = token
            self._move_generation_lease(token)
        return self._generation

    def _cache_key(
        self, generation: Optional[str], seed: int, k: int, exclude_seed: bool
    ) -> Optional[Tuple]:
        if generation is None:
            return None
        return (generation, seed, k, bool(exclude_seed))

    def _cache_get(
        self, generation: Optional[str], seed: int, k: int, exclude_seed: bool
    ) -> Optional[TopKResult]:
        key = self._cache_key(generation, seed, k, exclude_seed)
        return self._topk_cache.get(key) if key is not None else None

    def _submit_topk(
        self,
        worker: int,
        seeds: List[int],
        k: int,
        exclude_seed: bool,
        trace: Optional[Sequence[Tuple[int, int]]] = None,
        deadline_wall: Optional[float] = None,
    ) -> int:
        command: tuple = ("query_topk", (seeds, k, exclude_seed))
        if trace or deadline_wall is not None:
            command += (_trace_task_payload(trace) if trace else None,)
        if deadline_wall is not None:
            command += (deadline_wall,)
        request_id = self._dispatch(worker, command)
        with self._queries_lock:
            self._worker_queries[worker] += len(seeds)
        return request_id

    def _absorb_topk_replies(
        self,
        generation: Optional[str],
        k: int,
        exclude_seed: bool,
        indexed_seeds: List[Tuple[int, int]],
        replies: List[np.ndarray],
        answers: Dict[int, TopKResult],
    ) -> None:
        """Unpack one worker's k-pair replies: fill ``answers``, populate
        the cache, and record the wire payload size."""
        reply_bytes = 0
        for (index, seed), packed in zip(indexed_seeds, replies):
            reply_bytes += int(packed.nbytes)
            result = from_pairs(packed)
            answers[index] = result
            key = self._cache_key(generation, seed, k, exclude_seed)
            if key is not None:
                self._topk_cache.put(key, result)
        self._registry.histogram(
            telemetry.TOPK_REPLY_BYTES,
            buckets=telemetry.PAYLOAD_BYTES_BUCKETS,
            help="bytes per top-k wire reply (k 16-byte pairs per seed)",
        ).observe(reply_bytes)

    def _ask_each(self, command: tuple) -> List[Any]:
        """Send a control ``command`` to every healthy worker; the replies
        in worker order."""
        requests = {self._dispatch(w, command): w for w in self._require_healthy()}
        results = self._collect(set(requests))
        return [results[rid] for rid in sorted(requests, key=requests.get)]

    def _dispatch(
        self,
        worker: int,
        command: tuple,
        origin: Optional[int] = None,
        attempts: int = 1,
    ) -> int:
        """Send ``command`` to ``worker``, tracking it for crash recovery.

        ``command`` is ``("query_many", seeds)``,
        ``("query_topk", (seeds, k, exclude_seed))``, ``("reopen",)``,
        ``("rss",)``, ``("bundle_rss",)`` or ``("metrics",)``.  ``origin``
        is the id the caller holds; the first dispatch uses the wire id
        itself, re-dispatches get a fresh wire id mapping back to the same
        origin.
        """
        if self._closed:
            raise WorkerError("pool is stopped")
        wire_id = self._next_request_id()
        if origin is None:
            origin = wire_id
        self._inflight[wire_id] = {
            "origin": origin,
            "worker": worker,
            "command": command,
            "attempts": attempts,
        }
        self._task_queues[worker].put((command[0], wire_id) + tuple(command[1:]))
        return wire_id

    def _submit(
        self,
        worker: int,
        seeds: Sequence[int],
        trace: Optional[Sequence[Tuple[int, int]]] = None,
        deadline_wall: Optional[float] = None,
    ) -> int:
        if not 0 <= worker < self.n_workers:
            raise InvalidParameterError(
                f"worker must be in [0, {self.n_workers}), got {worker}"
            )
        seed_list = list(seeds)
        command: tuple = ("query_many", seed_list)
        # The deadline is the task tuple's 5th element, so an untraced
        # deadline-carrying command pads the trace slot with None.
        if trace or deadline_wall is not None:
            command += (_trace_task_payload(trace) if trace else None,)
        if deadline_wall is not None:
            command += (deadline_wall,)
        request_id = self._dispatch(worker, command)
        with self._queries_lock:
            self._worker_queries[worker] += len(seed_list)
        return request_id

    # ------------------------------------------------------------------
    # Internals: supervised collection
    # ------------------------------------------------------------------
    def _collect(self, expected: set) -> Dict[int, Any]:
        """Wait for every ``expected`` origin id, supervising the workers.

        Instead of one blocking ``get`` per reply, the wait polls in
        :data:`POLL_INTERVAL` slices and checks worker liveness between
        slices: a dead worker is respawned and its in-flight requests are
        re-dispatched (:meth:`_reap_worker`).  On any raise — worker error,
        timeout, exhausted retries — every still-outstanding origin of this
        call is cancelled so its payload, should it ever arrive, is dropped
        instead of being delivered to a later call.
        """
        results: Dict[int, Any] = {}
        deadline = time.monotonic() + self.timeout
        try:
            while expected - set(results):
                self._check_workers()
                for origin in expected:
                    if origin in self._failed:
                        raise WorkerError(self._failed.pop(origin))
                try:
                    message = self._result_queue.get(timeout=POLL_INTERVAL)
                except queue.Empty:
                    if time.monotonic() >= deadline:
                        raise WorkerError(
                            f"timed out after {self.timeout}s waiting for "
                            f"{len(expected - set(results))} outstanding request(s)"
                        )
                    continue
                # Replies are 4-tuples; traced query replies carry the
                # worker's span records as a 5th element.
                kind, worker_id, request_id, payload = message[:4]
                if kind == "ready":
                    # A respawned worker finished opening the artifacts.
                    self._stats[worker_id] = payload
                    continue
                if request_id == "ready":
                    # A respawned worker failed to open the artifacts; the
                    # process is exiting and _check_workers will see it.
                    self._restart_log.append(
                        {"worker_id": worker_id, "event": "respawn_failed",
                         "error": str(payload)}
                    )
                    continue
                record = self._inflight.pop(request_id, None)
                if record is None or record["origin"] in self._cancelled:
                    continue  # stale: re-dispatched, resolved, or abandoned
                origin = record["origin"]
                if kind == "error":
                    raise WorkerError(f"worker {worker_id}: {payload}")
                if kind == "expired":
                    # The worker dropped the task on dequeue: its budget
                    # ran out in the queue (already counted worker-side).
                    raise DeadlineExpired(f"worker {worker_id}: {payload}")
                if len(message) > 4 and message[4]:
                    # Worker-side span records for a traced query: fold
                    # them into this process's tracer so a PoolServer (or
                    # an in-process caller) can assemble the full trace.
                    tracing.get_tracer().absorb(message[4])
                results[origin] = payload
        except BaseException:
            # Drain/cancel the rest of the batch: outstanding origins are
            # marked so late payloads are dropped, and their in-flight
            # records are forgotten so they are never re-dispatched.
            for origin in expected - set(results):
                self._cancelled.add(origin)
            for wire_id in [
                w for w, rec in self._inflight.items()
                if rec["origin"] in self._cancelled
            ]:
                del self._inflight[wire_id]
            raise
        return results

    def _check_workers(self) -> None:
        """Detect dead workers; respawn them and re-route their requests."""
        for worker_id in range(self.n_workers):
            process = self._processes[worker_id]
            if (
                process is None
                or self._disabled[worker_id]
                or process.is_alive()
            ):
                continue
            self._reap_worker(worker_id, process)

    def _reap_worker(self, worker_id: int, process) -> None:
        exitcode = process.exitcode
        self._restart_log.append(
            {
                "worker_id": worker_id,
                "event": "died",
                "exitcode": exitcode,
                "pid": process.pid,
            }
        )
        orphans = [
            wire_id
            for wire_id, record in self._inflight.items()
            if record["worker"] == worker_id
        ]
        if self._respawns[worker_id] < self.max_respawns:
            # Exponential backoff before the replacement: a crash loop
            # (bad artifacts, OOM pressure) must not busy-spin the host.
            backoff = min(
                self.respawn_backoff * (2 ** self._respawns[worker_id]),
                MAX_RESPAWN_BACKOFF,
            )
            time.sleep(backoff)
            self._respawns[worker_id] += 1
            plan = self._worker_plans[worker_id]
            if plan is not None:
                # The replacement must not replay its predecessor's crash.
                plan = plan.without_worker(worker_id)
                self._worker_plans[worker_id] = plan
            # Fresh task queue: messages queued to the dead worker must not
            # be double-served if they were already picked up pre-crash.
            task_queue = self._ctx.Queue()
            self._task_queues[worker_id] = task_queue
            self._processes[worker_id] = self._spawn_process(
                worker_id, task_queue, plan
            )
            self._registry.counter(
                telemetry.WORKER_RESTARTS, help="worker processes respawned"
            ).inc()
            self._restart_log.append(
                {"worker_id": worker_id, "event": "respawned",
                 "backoff_seconds": backoff}
            )
        else:
            self._disabled[worker_id] = True
            self._processes[worker_id] = None
            self._restart_log.append(
                {"worker_id": worker_id, "event": "disabled",
                 "respawns": self._respawns[worker_id]}
            )
        self._redispatch(worker_id, exitcode, orphans)

    def _redispatch(self, dead_worker: int, exitcode, orphans: List[int]) -> None:
        """Re-route a dead worker's in-flight requests to healthy workers.

        Artifacts are immutable and the query phase deterministic, so the
        retried result is bit-identical to what the dead worker would have
        returned.  A request that exhausts ``max_retries`` fails its origin
        with a :class:`WorkerError` naming the crash.

        The per-worker ``_worker_queries`` counts move with the work: the
        dead worker gives back the seeds it never answered and the retry
        target is charged for them, so the load-aware routing (and
        ``pool_stats``) keep reflecting where queries actually ran.
        """
        healthy = self._healthy_workers()
        for index, wire_id in enumerate(orphans):
            record = self._inflight.pop(wire_id, None)
            if record is None or record["origin"] in self._cancelled:
                continue
            seeds_moved = _command_seed_count(record["command"])
            if record["attempts"] >= self.max_retries or not healthy:
                with self._queries_lock:
                    self._worker_queries[dead_worker] -= seeds_moved
                self._failed[record["origin"]] = (
                    f"worker {dead_worker} died (exitcode {exitcode}) and "
                    f"request {record['origin']} exhausted its "
                    f"{self.max_retries} attempt(s)"
                    if healthy
                    else f"worker {dead_worker} died (exitcode {exitcode}) "
                    "with no healthy worker left to retry on"
                )
                continue
            target = healthy[index % len(healthy)]
            self._dispatch(
                target,
                record["command"],
                origin=record["origin"],
                attempts=record["attempts"] + 1,
            )
            with self._queries_lock:
                self._worker_queries[dead_worker] -= seeds_moved
                self._worker_queries[target] += seeds_moved
            self._registry.counter(
                telemetry.REQUEST_RETRIES,
                help="requests re-dispatched after a worker death",
            ).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self._closed else "running"
        return f"WorkerPool(path={str(self.path)!r}, n_workers={self.n_workers}, {state})"
