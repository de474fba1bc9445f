"""Asyncio gateway: the traffic-shaped front door of the serve tier.

:class:`repro.serve.WorkerPool` ends at a blocking single-host Python
API.  This module adds everything between that API and real traffic:

- **request coalescing** — a request to an idle shard leaves on the
  next event-loop turn; requests arriving while their shard's batch is in
  flight leave together, as one batched ``query_many`` /
  ``query_topk_many`` call, when it returns (the batched engine paths are
  ≥2x over looped single queries), so a thousand independent clients get
  the throughput of a well-batched one without a fixed wait;
- **admission control** — when the number of in-flight requests reaches
  ``max_pending`` (or every backend reports a queue deeper than
  ``shed_queue_depth``), new arrivals are *shed* with a typed
  :class:`Overloaded` instead of queueing unboundedly — bounded p99 for
  the traffic that is admitted;
- **sharding + failover** — backends (local pools or remote
  ``repro serve --listen`` endpoints speaking :mod:`repro.wire`) sit on a
  consistent-hash ring; each seed routes to its shard's backend, and
  connect/timeout failures fail over to the next replica on the ring.
  Immutable artifact generations make every replica answer bit-identically,
  so failover is invisible to callers;
- **telemetry** — request latency histograms, coalesce batch sizes, shed
  and failover counters, and per-backend health/queue-depth gauges, all
  through the existing :mod:`repro.telemetry` registry
  (``rwr.gateway.*``).

Topology::

    clients ──wire──> GatewayServer ──> Gateway ──wire──> PoolServer ──> WorkerPool   (host A)
                                            └─────wire──> PoolServer ──> WorkerPool   (host B)

or, single-box, a :class:`LocalBackend` wraps the pool in-process and the
wire hops disappear.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from bisect import bisect_right
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry, tracing, wire
from repro.core.topk import to_pairs, validate_k
from repro.exceptions import InvalidParameterError
from repro.serve import DeadlineExpired, WorkerPool, WorkerError
from repro.telemetry import MetricsRegistry

#: In-flight requests admitted before the gateway starts shedding.
DEFAULT_MAX_PENDING = 1024

#: Seconds between backend health/queue-depth polls.
DEFAULT_HEALTH_INTERVAL = 1.0

#: Seconds the gateway waits for one backend call before failing over.
DEFAULT_REQUEST_TIMEOUT = 60.0

#: Virtual points per backend on the consistent-hash ring.
DEFAULT_RING_POINTS = 64

#: Consecutive transport failures before a backend's breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before allowing a half-open probe.
DEFAULT_BREAKER_RESET = 2.0

#: Retry-budget tokens accrued per admitted request (≈ max retry ratio).
DEFAULT_RETRY_RATIO = 0.1

#: Retry-budget bucket capacity (burst of retries tolerated from idle).
DEFAULT_RETRY_BURST = 10.0

#: Schema identifier of :meth:`Gateway.fleet_snapshot` documents.
FLEET_SCHEMA = "repro-fleet/v1"


def compute_retry_after(pending: int, limit: int, base: float) -> float:
    """Retry hint for an :class:`Overloaded` shed: backlog-scaled + jittered.

    The hint grows with how far over the limit the backlog is (a gateway
    at 4x its limit needs longer than one just past it), and carries
    ±25% uniform jitter so the clients that were all shed in the same
    instant do not come back in the same instant — the synchronized-retry
    thundering herd simply re-creates the overload.
    """
    depth_factor = max(float(pending) / float(max(limit, 1)), 1.0)
    return float(base) * depth_factor * random.uniform(0.75, 1.25)


class Overloaded(RuntimeError):
    """The gateway shed this request under backpressure.

    Typed (rather than a generic error string) so clients and the wire
    layer can distinguish "retry shortly" from "this request is wrong":
    the request was never queued, and retrying after ``retry_after``
    seconds is expected to succeed once the backlog drains.
    """

    def __init__(self, pending: int, limit: int, retry_after: float = 0.05):
        super().__init__(
            f"gateway overloaded: {pending} pending request(s) at limit {limit}"
        )
        self.pending = int(pending)
        self.limit = int(limit)
        self.retry_after = float(retry_after)


class BackendError(RuntimeError):
    """A backend failed at the transport level (connect/timeout/closed).

    This is the *retriable* failure class — the gateway fails over to the
    next replica on the ring.  Callers only see it when every replica of a
    shard failed.
    """


class QueryError(RuntimeError):
    """The backend answered with an application error (bad seed, bad k).

    Retrying the identical request on a replica would fail identically,
    so this propagates to the caller without failover.
    """


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the CLI's ``--listen`` / ``--backend`` format)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise InvalidParameterError(
            f"endpoint must look like HOST:PORT, got {text!r}"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
def _hash64(text: str) -> int:
    """Deterministic 64-bit hash (Python's ``hash`` is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring over backend names.

    Each backend owns ``points`` pseudo-random positions on a 64-bit
    ring; a seed routes to the backend owning the first position at or
    after the seed's hash.  Adding or removing one backend therefore
    remaps only ~1/n of the seeds — the cache-locality property that
    makes per-backend top-k caches effective behind the gateway.  Hashes
    come from BLAKE2b, so routing is deterministic across processes and
    runs (unlike the salted builtin ``hash``).
    """

    def __init__(self, names: Sequence[str], points: int = DEFAULT_RING_POINTS):
        names = list(names)
        if not names:
            raise InvalidParameterError("hash ring needs at least one backend")
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"backend names must be unique, got {names}")
        self.names = names
        entries: List[Tuple[int, str]] = []
        for name in names:
            for point in range(points):
                entries.append((_hash64(f"{name}#{point}"), name))
        entries.sort()
        self._keys = [key for key, _ in entries]
        self._owners = [name for _, name in entries]

    def route(self, seed: int) -> str:
        """The backend name owning ``seed``'s shard."""
        return self.order(seed)[0]

    def order(self, seed: int) -> List[str]:
        """Every distinct backend in ring order starting at ``seed``'s
        position — the failover chain (primary first)."""
        start = bisect_right(self._keys, _hash64(str(int(seed))))
        seen: Dict[str, None] = {}
        n = len(self._owners)
        for offset in range(n):
            owner = self._owners[(start + offset) % n]
            if owner not in seen:
                seen[owner] = None
                if len(seen) == len(self.names):
                    break
        return list(seen)


# ----------------------------------------------------------------------
# Failure containment primitives
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-backend circuit breaker: closed → open → half-open → closed.

    *Closed* (healthy): calls flow; ``failure_threshold`` **consecutive**
    transport failures trip it open.  *Open*: every call is rejected
    without touching the backend, so a dead host costs a dict lookup
    instead of a connect timeout per request.  After ``reset_timeout``
    seconds the breaker turns *half-open*: exactly one probe call is let
    through — success closes the breaker, failure re-opens it for another
    ``reset_timeout``.  Application errors (bad seed, overload) never
    count: the transport worked, so they *reset* the failure streak.

    State is re-derived from the clock on read (no timers to leak); the
    caller reports outcomes via :meth:`record_success` /
    :meth:`record_failure` after every allowed call.
    """

    CLOSED, HALF_OPEN, OPEN = 0, 1, 2
    _STATE_NAMES = {0: "closed", 1: "half-open", 2: "open"}

    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        reset_timeout: float = DEFAULT_BREAKER_RESET,
    ):
        if failure_threshold < 1:
            raise InvalidParameterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise InvalidParameterError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> int:
        if self._opened_at is None:
            return self.CLOSED
        if time.monotonic() - self._opened_at >= self.reset_timeout:
            return self.HALF_OPEN
        return self.OPEN

    @property
    def state_name(self) -> str:
        return self._STATE_NAMES[self.state]

    def allow(self) -> bool:
        """May a call go to this backend right now?

        In the half-open state only the first caller gets a True (the
        probe); concurrent callers are rejected until the probe reports.
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.OPEN:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    @property
    def healthy(self) -> bool:
        """Closed with no failure streak: the last verdict was a success."""
        return self._failures == 0

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        probing = self._probing
        self._probing = False
        self._failures += 1
        if (
            self._opened_at is not None and probing
        ) or self._failures >= self.failure_threshold:
            # Trip (or re-trip after a failed half-open probe): the reset
            # clock restarts now.
            self._opened_at = time.monotonic()


class RetryBudget:
    """Token bucket bounding failover retries to a fraction of traffic.

    Every admitted request accrues ``ratio`` tokens (capped at ``burst``);
    every retry — a failover to the next replica, or a hedged duplicate —
    spends one whole token.  Under a failover storm (say a backend dies
    with hundreds of requests in flight) the bucket drains after ``burst``
    retries and the rest fail fast instead of doubling the load on the
    survivors, which is exactly how retry amplification turns one dead
    replica into a fleet-wide outage.
    """

    def __init__(
        self,
        ratio: float = DEFAULT_RETRY_RATIO,
        burst: float = DEFAULT_RETRY_BURST,
    ):
        if ratio < 0:
            raise InvalidParameterError(f"ratio must be >= 0, got {ratio}")
        if burst < 0:
            # burst == 0 is a legitimate ops knob: no retries, ever.
            raise InvalidParameterError(f"burst must be >= 0, got {burst}")
        self.ratio = float(ratio)
        self.burst = float(burst)
        self._tokens = float(burst)

    @property
    def tokens(self) -> float:
        return self._tokens

    def accrue(self) -> None:
        self._tokens = min(self._tokens + self.ratio, self.burst)

    def try_spend(self) -> bool:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class GatewayResult:
    """One answered gateway request: the value plus its degradation tag.

    ``value`` is the dense score row (``mode="dense"``) or the packed
    top-k pair records.  ``degraded`` marks a best-effort answer served
    from the stale answer cache or the Monte-Carlo fallback instead of an
    exact backend solve; ``error_bound`` is its per-entry L∞ bound
    (``0.0`` for exact answers and stale-cache answers, which are exact
    for a possibly older generation).
    """

    value: Any
    degraded: bool = False
    error_bound: float = 0.0
    #: Which degradation rung served the answer: ``"cache"``, ``"approx"``,
    #: or ``""`` for an exact backend solve.
    source: str = ""


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class LocalBackend:
    """A :class:`~repro.serve.WorkerPool` adapted to the async backend API.

    Pool calls are blocking and the pool's supervised collection loop is
    written for one caller at a time, so every call funnels through a
    dedicated single-thread executor — the coalescer batches concurrency
    *before* this point, so serialization costs nothing.
    """

    def __init__(self, pool: WorkerPool, name: str = "local"):
        self.pool = pool
        self.name = name
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"gw-backend-{name}"
        )
        self._inflight = 0

    async def _run(self, fn, *args):
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            return await loop.run_in_executor(self._executor, partial(fn, *args))
        except DeadlineExpired:
            # Keep the type: the gateway degrades on this, not fails.
            raise
        except (WorkerError, InvalidParameterError) as exc:
            raise QueryError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            self._inflight -= 1

    async def query_many(
        self,
        seeds: Sequence[int],
        trace: Sequence[Tuple[int, int]] = (),
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        return await self._run(
            partial(
                self.pool.query_many, list(seeds), trace=list(trace) or None,
                deadline_ms=deadline_ms,
            )
        )

    async def query_topk_many(
        self,
        seeds: Sequence[int],
        k: int,
        exclude_seed: bool,
        trace: Sequence[Tuple[int, int]] = (),
        deadline_ms: Optional[float] = None,
    ) -> List[np.ndarray]:
        results = await self._run(
            partial(
                self.pool.query_topk_many, list(seeds), k, exclude_seed,
                trace=list(trace) or None, deadline_ms=deadline_ms,
            )
        )
        return [to_pairs(result) for result in results]

    async def stats(self) -> Dict[str, Any]:
        stats = await self._run(self.pool.pool_stats)
        pool_depth = stats.get("queue_depth") or 0
        return {
            "queue_depth": int(pool_depth) + self._inflight,
            "generation": stats.get("generation"),
            "n_workers": stats.get("n_workers"),
            "queries_submitted": stats.get("queries_submitted"),
        }

    async def metrics_snapshot(self) -> Dict[str, Any]:
        """The pool's merged telemetry snapshot (fleet aggregation feed)."""
        registry = await self._run(self.pool.metrics)
        return registry.snapshot()

    async def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalBackend({self.name!r})"


class RemoteBackend:
    """A ``repro serve --listen`` endpoint reached over :mod:`repro.wire`.

    One persistent connection, reopened lazily after any failure; requests
    are serialized per connection (the protocol is strictly
    request/reply), which matches the server side funneling into one
    worker-pool dispatcher anyway.  Transport failures surface as
    :class:`BackendError` (→ ring failover); ``REPLY_ERROR`` frames
    surface as :class:`QueryError` (→ propagate); ``REPLY_OVERLOADED``
    frames surface as :class:`Overloaded`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: Optional[str] = None,
        connect_timeout: float = 5.0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.host = host
        self.port = int(port)
        self.name = name if name is not None else f"{host}:{port}"
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def _drop_connection(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer already gone
                pass

    async def _call(self, message: wire.Request) -> wire.Reply:
        async with self._lock:
            try:
                if self._writer is None:
                    self._reader, self._writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        self.connect_timeout,
                    )
                # endpoint= routes this connection's frames through the
                # fault injector (chaos drills); timeout= bounds every
                # *partial* read, so a peer that accepts but never sends a
                # complete frame cannot hold the call past the budget.
                await wire.write_message(
                    self._writer, message, endpoint=self.name
                )
                reply = await asyncio.wait_for(
                    wire.read_message(
                        self._reader,
                        timeout=self.request_timeout,
                        endpoint=self.name,
                    ),
                    self.request_timeout,
                )
            except (OSError, TimeoutError, wire.ProtocolError) as exc:
                await self._drop_connection()
                raise BackendError(
                    f"backend {self.name}: {type(exc).__name__}: {exc}"
                ) from exc
            except asyncio.CancelledError:
                # Cancelled mid-exchange (e.g. a bounded fleet-metrics
                # poll): the reply is still in flight, so the connection
                # is desynchronized for whoever uses it next.  Drop it.
                await self._drop_connection()
                raise
            if reply is None:
                await self._drop_connection()
                raise BackendError(f"backend {self.name}: connection closed")
        if isinstance(reply, wire.ErrorReply):
            if reply.message.startswith("DeadlineExpired"):
                # The server-side pool dropped the task as expired;
                # re-typed so the gateway degrades instead of failing.
                raise DeadlineExpired(reply.message)
            raise QueryError(reply.message)
        if isinstance(reply, wire.OverloadedReply):
            raise Overloaded(
                pending=reply.pending,
                limit=reply.limit,
                retry_after=reply.retry_after,
            )
        return reply

    async def query_many(
        self,
        seeds: Sequence[int],
        trace: Sequence[Tuple[int, int]] = (),
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        reply = await self._call(
            wire.QueryRequest(
                seeds=np.asarray(list(seeds), dtype=np.int64),
                trace=tuple(trace),
                deadline_ms=deadline_ms,
            )
        )
        if not isinstance(reply, wire.DenseReply):
            raise BackendError(
                f"backend {self.name}: unexpected reply {type(reply).__name__}"
            )
        self._absorb_trace(reply.trace_records)
        return reply.scores

    async def query_topk_many(
        self,
        seeds: Sequence[int],
        k: int,
        exclude_seed: bool,
        trace: Sequence[Tuple[int, int]] = (),
        deadline_ms: Optional[float] = None,
    ) -> List[np.ndarray]:
        reply = await self._call(
            wire.TopKRequest(
                seeds=np.asarray(list(seeds), dtype=np.int64),
                k=int(k),
                exclude_seed=bool(exclude_seed),
                trace=tuple(trace),
                deadline_ms=deadline_ms,
            )
        )
        if not isinstance(reply, wire.TopKReply):
            raise BackendError(
                f"backend {self.name}: unexpected reply {type(reply).__name__}"
            )
        self._absorb_trace(reply.trace_records)
        return reply.pairs

    @staticmethod
    def _absorb_trace(records: Sequence[Dict[str, Any]]) -> None:
        """Fold the server-side span records of a traced reply into this
        process's tracer — the gateway's ring ends up holding the whole
        cross-host trace."""
        if records:
            tracing.get_tracer().absorb(records)

    async def stats(self) -> Dict[str, Any]:
        reply = await self._call(wire.StatsRequest())
        if not isinstance(reply, wire.StatsReply):
            raise BackendError(
                f"backend {self.name}: unexpected reply {type(reply).__name__}"
            )
        return reply.stats

    async def metrics_snapshot(self) -> Dict[str, Any]:
        """The backend's merged telemetry snapshot via ``OP_METRICS``."""
        reply = await self._call(wire.MetricsRequest())
        if not isinstance(reply, wire.StatsReply):
            raise BackendError(
                f"backend {self.name}: unexpected reply {type(reply).__name__}"
            )
        return reply.stats

    async def close(self) -> None:
        async with self._lock:
            await self._drop_connection()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteBackend({self.name!r})"


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class Gateway:
    """Coalescing, shedding, sharding front door over one or more backends.

    Parameters
    ----------
    backends:
        :class:`LocalBackend` / :class:`RemoteBackend` instances (anything
        with ``name``, ``query_many``, ``query_topk_many``, ``stats``,
        ``close``).  Names must be unique — they are the ring identities.
    max_pending:
        Admission limit: requests in flight (queued or solving) before
        new arrivals are shed with :class:`Overloaded`.
    shed_queue_depth:
        Optional backpressure limit from the backends' own
        ``pool_stats()`` queue depth: when every live backend last
        reported a depth above this, arrivals are shed even below
        ``max_pending``.  ``None`` disables depth-based shedding.
    request_timeout:
        Seconds to wait for one backend call before treating it as failed
        and trying the next replica.
    health_interval:
        Seconds between background stats polls of every backend (feeds
        the circuit breakers, the queue-depth gauges and depth-based
        shedding).  The monitor starts with :meth:`start` /
        ``async with``.
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; defaults to a
        private one (exposed as :attr:`registry`).
    tracer:
        Optional :class:`~repro.tracing.Tracer` minting and collecting
        request traces; defaults to the process-global tracer.  The
        tracer's ``sample_rate`` decides which requests get a trace —
        a sampled request mints a ``trace_id`` at admission and the
        context rides to the backends (and across their spawn
        boundaries), so the tracer's ring ends up holding complete
        end-to-end traces.
    breaker_threshold / breaker_reset:
        Per-backend :class:`CircuitBreaker` tuning: consecutive transport
        failures before the breaker opens, and seconds before an open
        breaker allows its half-open probe.
    retry_budget_ratio / retry_budget_burst:
        :class:`RetryBudget` tuning — the fraction of admitted traffic
        that may turn into retries (failovers + hedges) and the burst
        tolerated from idle.
    hedge_after:
        Hedged-send trigger: ``None`` disables hedging, a float is a
        fixed delay in seconds, a ``"p95"``-style string tracks that
        percentile of recent backend-call latencies.  When the primary
        replica has not answered within the delay, the same batch is
        sent to the next closed-breaker replica and the first success
        wins (replicas answer bit-identically, so duplicates are safe).
    degraded_answerer:
        Optional :class:`repro.approximate.ApproximateAnswerer` (or
        compatible).  With it configured, a request whose deadline is
        nearly spent — or whose every replica is open-circuit — gets a
        Monte-Carlo approximate answer with an error bound instead of an
        error, whenever the stale answer cache has no hit.
    answer_cache_size:
        Entries kept in the degraded-answer cache (the last exact answer
        per ``(mode, seed)``).  ``0`` disables it.
    """

    def __init__(
        self,
        backends: Sequence[Any],
        max_pending: int = DEFAULT_MAX_PENDING,
        shed_queue_depth: Optional[int] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
        ring_points: int = DEFAULT_RING_POINTS,
        tracer: Optional[tracing.Tracer] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_reset: float = DEFAULT_BREAKER_RESET,
        retry_budget_ratio: float = DEFAULT_RETRY_RATIO,
        retry_budget_burst: float = DEFAULT_RETRY_BURST,
        hedge_after: Optional[Union[float, str]] = None,
        degraded_answerer: Optional[Any] = None,
        answer_cache_size: int = 4096,
    ):
        backends = list(backends)
        if not backends:
            raise InvalidParameterError("gateway needs at least one backend")
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.backends: Dict[str, Any] = {b.name: b for b in backends}
        if len(self.backends) != len(backends):
            raise InvalidParameterError(
                f"backend names must be unique, got {[b.name for b in backends]}"
            )
        self.ring = HashRing(list(self.backends), points=ring_points)
        self.max_pending = int(max_pending)
        self.shed_queue_depth = shed_queue_depth
        self.request_timeout = float(request_timeout)
        self.health_interval = float(health_interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else tracing.get_tracer()
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(breaker_threshold, breaker_reset)
            for name in self.backends
        }
        self.retry_budget = RetryBudget(retry_budget_ratio, retry_budget_burst)
        self.degraded_answerer = degraded_answerer
        # hedge_after: fixed seconds, or a latency percentile of recent
        # backend calls ("p95") — resolved per dispatch in _hedge_delay.
        self._hedge_fixed: Optional[float] = None
        self._hedge_percentile: Optional[float] = None
        if hedge_after is not None:
            if isinstance(hedge_after, str):
                text = hedge_after.strip().lower()
                try:
                    if not text.startswith("p"):
                        raise ValueError(text)
                    percentile = float(text[1:])
                    if not 0 < percentile < 100:
                        raise ValueError(text)
                except ValueError:
                    raise InvalidParameterError(
                        "hedge_after must be seconds or 'pNN' "
                        f"(0 < NN < 100), got {hedge_after!r}"
                    )
                self._hedge_percentile = percentile
            else:
                if hedge_after <= 0:
                    raise InvalidParameterError(
                        f"hedge_after must be > 0, got {hedge_after}"
                    )
                self._hedge_fixed = float(hedge_after)
        # Last exact answer per (mode, seed): the first rung of the
        # degradation ladder.
        self._answer_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._answer_cache_size = int(answer_cache_size)
        # Recent backend-call latencies feeding percentile hedging, the
        # shed replies' retry hint and the deadline watchdog's margin.
        self._attempt_latencies: deque = deque(maxlen=512)
        # (mode, shard) -> [(seed, future, trace_entry, deadline), ...]
        # waiting for the shard's next batch; trace_entry is None for
        # unsampled requests, deadline is an absolute monotonic instant or
        # None.
        self._pending: Dict[Tuple, List[Tuple[int, asyncio.Future, Any, Any]]] = {}
        # (mode, shard) -> (task, batch) of the batch in flight; the task is
        # None while the batch is due to leave on the next loop turn.
        self._in_flight: Dict[Tuple, Tuple[Optional[asyncio.Task], List]] = {}
        self._pending_total = 0
        self._depths: Dict[str, float] = {}
        # Backend name -> last full registry snapshot (OP_METRICS poll).
        self._fleet_snapshots: Dict[str, Dict[str, Any]] = {}
        # Backend name -> generation name it last reported serving, so
        # sharded replicas converging onto a freshly published generation
        # is observable (and divergence — a replica stuck on the old one —
        # shows up both here and in the per-backend generation gauge).
        self._generations: Dict[str, Optional[str]] = {}
        self._monitor_task: Optional[asyncio.Task] = None
        self._closed = False
        # Pre-register so an idle gateway exports zeros, not absent series.
        self._requests = self.registry.counter(
            telemetry.GATEWAY_REQUESTS, help="requests admitted or shed"
        )
        self._sheds = self.registry.counter(
            telemetry.GATEWAY_SHED, help="requests shed by admission control"
        )
        self._failovers = self.registry.counter(
            telemetry.GATEWAY_FAILOVERS, help="dispatches retried on a replica"
        )
        self._backend_errors = self.registry.counter(
            telemetry.GATEWAY_BACKEND_ERRORS,
            help="backend transport failures (connect/timeout/closed)",
        )
        self._latency = self.registry.histogram(
            telemetry.GATEWAY_REQUEST_SECONDS,
            help="end-to-end gateway request latency",
        )
        self._batch_sizes = self.registry.histogram(
            telemetry.GATEWAY_COALESCE_BATCH,
            buckets=telemetry.BATCH_SIZE_BUCKETS,
            help="seeds per coalesced backend solve",
        )
        self._deadline_exceeded = self.registry.counter(
            telemetry.DEADLINE_EXCEEDED,
            help="requests whose deadline expired at the gateway",
        )
        self._breaker_opened = self.registry.counter(
            telemetry.BREAKER_OPENED, help="circuit breakers tripped open"
        )
        self._breaker_closed = self.registry.counter(
            telemetry.BREAKER_CLOSED,
            help="circuit breakers closed by a successful probe",
        )
        self._breaker_rejected = self.registry.counter(
            telemetry.BREAKER_REJECTED,
            help="dispatch attempts skipped by an open breaker",
        )
        self._breaker_probes = self.registry.counter(
            telemetry.BREAKER_PROBES, help="half-open probe calls allowed"
        )
        self._hedge_sent = self.registry.counter(
            telemetry.HEDGE_SENT, help="hedged duplicate sends"
        )
        self._hedge_wins = self.registry.counter(
            telemetry.HEDGE_WINS, help="requests answered by the hedge first"
        )
        self._retry_exhausted = self.registry.counter(
            telemetry.RETRY_BUDGET_EXHAUSTED,
            help="retries refused by the drained token bucket",
        )
        self._degraded = self.registry.counter(
            telemetry.DEGRADED_REPLIES, help="degraded replies served"
        )
        self._degraded_cache = self.registry.counter(
            telemetry.DEGRADED_FROM_CACHE,
            help="degraded replies served from the stale answer cache",
        )
        self._degraded_approx = self.registry.counter(
            telemetry.DEGRADED_FROM_APPROX,
            help="degraded replies served by the Monte-Carlo fallback",
        )
        for name in self.backends:
            self._breaker_gauge(name).set(float(CircuitBreaker.CLOSED))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        """Start the background health monitor (idempotent)."""
        if self._monitor_task is None and self.health_interval > 0:
            self._monitor_task = asyncio.create_task(
                self._monitor(), name="gateway-health-monitor"
            )
        return self

    async def close(self) -> None:
        """Stop the monitor, fail unfinished requests, close the backends."""
        if self._closed:
            return
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        # Waiting requests and batches in flight both fail: cancelling the
        # in-flight dispatches leaves no task running past close().
        unanswered = [entry for batch in self._pending.values() for entry in batch]
        self._pending.clear()
        tasks = []
        for task, batch in self._in_flight.values():
            unanswered += batch
            if task is not None:
                task.cancel()
                tasks.append(task)
        await asyncio.gather(*tasks, return_exceptions=True)
        for _, future, _, _ in unanswered:
            if not future.done():
                future.set_exception(BackendError("gateway closed"))
        self._pending_total = 0
        for backend in self.backends.values():
            await backend.close()

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Public query API
    # ------------------------------------------------------------------
    async def query(
        self, seed: int, deadline_ms: Optional[float] = None
    ) -> np.ndarray:
        """The dense ``(n,)`` RWR score row for one seed.

        Bit-identical to a direct ``WorkerPool.query_many`` call carrying
        the same coalesced seed set (seed *order* within a batch never
        affects the bits, and every replica answers a given batch
        identically — the artifacts are immutable).  Different batch
        compositions agree to solver tolerance, not bit-for-bit: the
        engine solves a batch's linear systems together.

        ``deadline_ms`` is the request's total budget; with it set the
        answer may be *degraded* — use :meth:`query_detailed` to see the
        flag and its error bound.
        """
        return (await self.query_detailed(seed, deadline_ms=deadline_ms)).value

    async def query_detailed(
        self, seed: int, deadline_ms: Optional[float] = None
    ) -> GatewayResult:
        """:meth:`query` plus the degradation tag (flag + error bound)."""
        return await self._submit(("dense",), int(seed), deadline_ms)

    async def query_topk(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """The packed top-k ``(id, score)`` pair records for one seed
        (:data:`repro.core.topk.PAIR_DTYPE`; may be shorter than ``k``)."""
        return (
            await self.query_topk_detailed(
                seed, k, exclude_seed=exclude_seed, deadline_ms=deadline_ms
            )
        ).value

    async def query_topk_detailed(
        self,
        seed: int,
        k: int,
        exclude_seed: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> GatewayResult:
        """:meth:`query_topk` plus the degradation tag."""
        k = validate_k(k)
        return await self._submit(
            ("topk", k, bool(exclude_seed)), int(seed), deadline_ms
        )

    async def stats(self) -> Dict[str, Any]:
        """Gateway-side serving state (admission, per-backend health)."""
        batches = self._batch_sizes.count
        return {
            "pending": self._pending_total,
            "max_pending": self.max_pending,
            "shed_queue_depth": self.shed_queue_depth,
            "requests": self._requests.value,
            "sheds": self._sheds.value,
            "failovers": self._failovers.value,
            "backend_errors": self._backend_errors.value,
            "deadline_exceeded": self._deadline_exceeded.value,
            "degraded": self._degraded.value,
            "hedges": {
                "sent": self._hedge_sent.value,
                "wins": self._hedge_wins.value,
            },
            "retry_budget_tokens": self.retry_budget.tokens,
            "coalesce": {
                "batches": batches,
                "mean_batch": self._batch_sizes.sum / batches if batches else 0.0,
            },
            "backends": {
                name: {
                    "healthy": self.breakers[name].healthy,
                    "queue_depth": self._depths.get(name),
                    "generation": self._generations.get(name),
                    "breaker": self.breakers[name].state_name,
                }
                for name in self.backends
            },
        }

    # ------------------------------------------------------------------
    # Admission + coalescing
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        self._requests.inc()
        # Every admission attempt feeds the retry token bucket, so the
        # allowed retry volume tracks offered load.
        self.retry_budget.accrue()
        if self._pending_total >= self.max_pending:
            self._sheds.inc()
            raise Overloaded(
                pending=self._pending_total,
                limit=self.max_pending,
                retry_after=compute_retry_after(
                    self._pending_total,
                    self.max_pending,
                    # Capacity frees when a batch returns: about one
                    # backend call from now.
                    max(self._call_percentile(50.0) or 0.0, 0.01),
                ),
            )
        if self.shed_queue_depth is not None:
            depths = [
                depth
                for name, depth in self._depths.items()
                if depth is not None
                and self.breakers[name].state != CircuitBreaker.OPEN
            ]
            # Shed only when *every* live backend is over the limit — a
            # single deep replica is a routing problem, not an overload.
            if depths and min(depths) > self.shed_queue_depth:
                self._sheds.inc()
                raise Overloaded(
                    pending=self._pending_total,
                    limit=self.max_pending,
                    retry_after=compute_retry_after(
                        int(min(depths)),
                        int(self.shed_queue_depth),
                        max(self.health_interval, 0.05),
                    ),
                )

    async def _submit(
        self, mode: Tuple, seed: int, deadline_ms: Optional[float] = None
    ) -> GatewayResult:
        if self._closed:
            raise BackendError("gateway closed")
        self._admit()
        loop = asyncio.get_running_loop()
        deadline: Optional[float] = None
        if deadline_ms is not None:
            if deadline_ms <= 0.0:
                # Spent on arrival (hop latency ate the budget): the only
                # useful reply is an instant degraded one.
                self._deadline_exceeded.inc()
                answer = await self._degraded_answer(mode, seed)
                if answer is not None:
                    self._count_degraded(answer)
                    return answer
                raise DeadlineExpired(
                    f"deadline budget spent at admission "
                    f"({deadline_ms:.1f} ms remaining)"
                )
            deadline = time.monotonic() + deadline_ms / 1000.0
        future: asyncio.Future = loop.create_future()
        # Sampling decision at admission: a sampled request mints a trace
        # id plus the root span id every later span parents under.
        trace_entry: Optional[Dict[str, Any]] = None
        trace_id = self.tracer.start_trace()
        if trace_id is not None:
            trace_entry = {
                "trace_id": trace_id,
                "root": tracing.mint_id(),
                "enqueued": time.time(),
            }
        # Routed at admission, so a busy shard never holds back another.
        key = (mode, self.ring.route(seed))
        self._pending.setdefault(key, []).append(
            (seed, future, trace_entry, deadline)
        )
        self._pending_total += 1
        if key not in self._in_flight:
            # Idle shard: leave on the next loop turn, together with
            # whatever else is submitted in this one (a gather).
            self._in_flight[key] = (None, [])
            loop.call_soon(self._flush, key)
        watchdog: Optional[asyncio.TimerHandle] = None
        if deadline is not None:
            # Fire early by the median backend call, about one solve's
            # time to produce the degraded answer before the deadline; at
            # most a quarter of the budget, the rest left to the exact one.
            remaining = deadline - time.monotonic()
            margin = min(self._call_percentile(50.0) or 0.0, remaining / 4.0)
            fire_in = max(0.0, remaining - margin)
            watchdog = loop.call_later(
                fire_in, self._deadline_watchdog, mode, seed, future, deadline
            )
        start = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            return await future
        except BaseException as exc:
            error = exc
            raise
        finally:
            if watchdog is not None:
                watchdog.cancel()
            elapsed = max(0.0, time.perf_counter() - start)
            if trace_entry is None:
                self._latency.observe(elapsed)
            else:
                self._latency.observe(
                    elapsed, exemplar=tracing.format_id(trace_id)
                )
                tags: Dict[str, Any] = {"seed": int(seed), "mode": mode[0]}
                if error is not None:
                    tags["error"] = type(error).__name__
                # The root record lands last — every child (including the
                # backend's, absorbed from the reply) is already in the
                # ring, so slow-query assembly sees the full breakdown.
                self.tracer.record(
                    tracing.make_record(
                        "gateway.request",
                        trace_id=trace_id,
                        span_id=trace_entry["root"],
                        parent_id=None,
                        start_time=trace_entry["enqueued"],
                        duration=elapsed,
                        tags=tags,
                    )
                )

    def _flush(self, key: Tuple) -> None:
        """Send the requests waiting on ``key = (mode, shard)`` as one
        batch, and send the next when it returns (group commit)."""
        batch = self._pending.pop(key, None)
        if not batch:  # nothing arrived while the last batch was out
            self._in_flight.pop(key, None)
            return
        now = time.time()
        for seed, _, entry, _ in batch:
            if entry is not None:
                self.tracer.record(
                    tracing.make_record(
                        "gateway.coalesce_wait",
                        trace_id=entry["trace_id"],
                        span_id=tracing.mint_id(),
                        parent_id=entry["root"],
                        start_time=entry["enqueued"],
                        duration=max(0.0, now - entry["enqueued"]),
                    )
                )
        mode, shard = key
        task = asyncio.ensure_future(self._dispatch(mode, shard, batch))
        self._in_flight[key] = (task, batch)
        # Whether the batch succeeded, failed over, degraded or raised.
        task.add_done_callback(lambda _: self._flush(key))

    # ------------------------------------------------------------------
    # Dispatch + failover
    # ------------------------------------------------------------------
    def _record_generation(self, name: str, generation: Any) -> None:
        """Track the generation a backend reports serving.

        ``generation`` arrives as the pool's token (a resolved artifact
        path); only its final component — the ``gen-NNNNNN`` name for
        store-backed pools — is kept.  Store generations additionally
        export their numeric index as a gauge, so "replica stuck on an old
        generation" is a plottable, alertable signal rather than a string
        buried in stats.
        """
        gen_name = str(generation).rstrip("/").rsplit("/", 1)[-1] if generation else None
        self._generations[name] = gen_name
        if gen_name and gen_name.startswith("gen-"):
            suffix = gen_name[4:]
            if suffix.isdigit():
                self.registry.gauge(
                    f"{telemetry.GATEWAY_BACKEND_PREFIX}{name}.generation_index",
                    help="numeric index of the generation the backend serves",
                ).set(float(suffix))

    def _failover_chain(self, primary: str) -> List[str]:
        """Replicas to try: the primary, then the others in ring-name
        order.  A dead replica stays in the chain; its open breaker skips
        it without a call."""
        return [primary] + [n for n in self.ring.names if n != primary]

    def _breaker_gauge(self, name: str):
        return self.registry.gauge(
            f"{telemetry.GATEWAY_BACKEND_PREFIX}{name}.breaker_state",
            help="circuit breaker state: 0 closed, 1 half-open, 2 open",
        )

    def _breaker_allow(self, name: str) -> bool:
        breaker = self.breakers[name]
        state_before = breaker.state
        allowed = breaker.allow()
        if allowed and state_before == CircuitBreaker.HALF_OPEN:
            self._breaker_probes.inc()
        if not allowed:
            self._breaker_rejected.inc()
        self._breaker_gauge(name).set(float(breaker.state))
        return allowed

    def _breaker_success(self, name: str) -> None:
        breaker = self.breakers[name]
        if breaker.state != CircuitBreaker.CLOSED:
            self._breaker_closed.inc()
        breaker.record_success()
        self._breaker_gauge(name).set(float(CircuitBreaker.CLOSED))

    def _breaker_failure(self, name: str) -> None:
        breaker = self.breakers[name]
        state_before = breaker.state
        breaker.record_failure()
        state_after = breaker.state
        if (
            state_after == CircuitBreaker.OPEN
            and state_before != CircuitBreaker.OPEN
        ):
            self._breaker_opened.inc()
        self._breaker_gauge(name).set(float(state_after))

    def _call_percentile(self, percentile: float) -> Optional[float]:
        """That percentile of recent backend-call seconds, or None."""
        samples = sorted(self._attempt_latencies)
        if len(samples) < 16:  # too little signal to call a tail
            return None
        return samples[min(len(samples) - 1, int(len(samples) * percentile / 100.0))]

    def _hedge_delay(self) -> Optional[float]:
        """Seconds to wait for the primary before hedging, or None."""
        if self._hedge_fixed is not None:
            return self._hedge_fixed
        if self._hedge_percentile is None:
            return None
        return self._call_percentile(self._hedge_percentile)

    @staticmethod
    def _group_deadline(
        group: List[Tuple[int, asyncio.Future, Any, Any]]
    ) -> Optional[float]:
        """The batch-level deadline of one coalesced shard group.

        The batch serves every member, so it runs as long as *any* member
        can still use the answer: members without a deadline make the
        batch unbounded, otherwise the latest member deadline wins.
        Members whose own (earlier) deadline passes mid-solve are
        answered by their watchdog, not by aborting the shared solve.
        """
        latest: Optional[float] = None
        for _, _, _, deadline in group:
            if deadline is None:
                return None
            latest = deadline if latest is None else max(latest, deadline)
        return latest

    async def _dispatch(
        self,
        mode: Tuple,
        primary: str,
        group: List[Tuple[int, asyncio.Future, Any, Any]],
    ) -> None:
        seeds = [seed for seed, _, _, _ in group]
        self._batch_sizes.observe(len(seeds))
        deadline = self._group_deadline(group)
        chain = self._failover_chain(primary)
        last_error: Optional[BaseException] = None
        attempts = 0
        for position, name in enumerate(chain):
            if deadline is not None and time.monotonic() >= deadline:
                last_error = DeadlineExpired(
                    "deadline spent before a replica answered"
                )
                break
            if not self._breaker_allow(name):
                if last_error is None:
                    last_error = BackendError(
                        f"backend {name}: circuit breaker open"
                    )
                continue
            if attempts > 0:
                if not self.retry_budget.try_spend():
                    self._retry_exhausted.inc()
                    if last_error is None:
                        last_error = BackendError("retry budget exhausted")
                    break
                self._failovers.inc()
            attempts += 1
            # Hedge only the first live attempt: a failover retry is
            # already a duplicate send.
            hedge_name: Optional[str] = None
            hedge_delay = self._hedge_delay()
            if attempts == 1 and hedge_delay is not None:
                hedge_name = next(
                    (
                        n
                        for n in chain[position + 1 :]
                        if self.breakers[n].state == CircuitBreaker.CLOSED
                    ),
                    None,
                )
            try:
                if hedge_name is None:
                    rows = await self._attempt(
                        mode, name, seeds, group, attempts - 1, deadline
                    )
                else:
                    rows = await self._attempt_hedged(
                        mode, name, hedge_name, hedge_delay,
                        seeds, group, deadline,
                    )
            except DeadlineExpired as exc:
                # The backend itself dropped the task as expired: no
                # replica can beat the clock either — degrade.
                last_error = exc
                break
            except (BackendError, TimeoutError) as exc:
                last_error = exc
                continue
            except Exception as exc:  # QueryError, Overloaded, bugs
                self._resolve(group, error=exc)
                return
            self._resolve(group, rows=rows, mode=mode)
            return
        await self._resolve_degraded(
            mode,
            group,
            BackendError(
                f"no replica answered for this shard (last: {last_error})"
            )
            if not isinstance(last_error, DeadlineExpired)
            else last_error,
        )

    async def _attempt(
        self,
        mode: Tuple,
        name: str,
        seeds: List[int],
        group: List[Tuple[int, asyncio.Future, Any, Any]],
        attempt: int,
        deadline: Optional[float],
    ) -> List[Any]:
        """One backend call: spans, breaker bookkeeping, deadline budget."""
        backend = self.backends[name]
        # One backend span per traced origin request per attempt; the
        # (trace_id, span_id) contexts ride on the backend call so the
        # server's spans nest under them.
        spans = [
            (entry, tracing.mint_id())
            for _, _, entry, _ in group
            if entry is not None
        ]
        contexts = [(entry["trace_id"], span_id) for entry, span_id in spans]
        # Only traced batches pass the kwarg, so backend stubs without
        # trace support keep working untraced; same for deadlines.
        kwargs: Dict[str, Any] = {"trace": contexts} if contexts else {}
        timeout = self.request_timeout
        if deadline is not None:
            # The wire carries *remaining* milliseconds, recomputed at
            # send time so queue/coalesce latency is already charged.
            remaining = deadline - time.monotonic()
            kwargs["deadline_ms"] = max(remaining * 1000.0, 0.0)
            timeout = min(timeout, max(remaining, 0.001))
        started = time.time()
        start = time.perf_counter()
        try:
            if mode[0] == "dense":
                scores = await asyncio.wait_for(
                    backend.query_many(seeds, **kwargs), timeout
                )
                rows: List[Any] = [scores[i] for i in range(len(seeds))]
            else:
                _, k, exclude_seed = mode
                rows = list(
                    await asyncio.wait_for(
                        backend.query_topk_many(
                            seeds, k, exclude_seed, **kwargs
                        ),
                        timeout,
                    )
                )
        except (BackendError, TimeoutError) as exc:
            self._backend_errors.inc()
            self._breaker_failure(name)
            self._record_backend_spans(
                spans, name, attempt, started, start, error=exc
            )
            raise
        except asyncio.CancelledError:
            raise  # hedge loser or shutdown — no verdict on the backend
        except Exception as exc:  # QueryError, Overloaded: transport worked
            self._breaker_success(name)
            self._record_backend_spans(
                spans, name, attempt, started, start, error=exc
            )
            raise
        self._breaker_success(name)
        self._attempt_latencies.append(max(0.0, time.perf_counter() - start))
        self._record_backend_spans(spans, name, attempt, started, start)
        return rows

    async def _attempt_hedged(
        self,
        mode: Tuple,
        name: str,
        hedge_name: str,
        hedge_delay: float,
        seeds: List[int],
        group: List[Tuple[int, asyncio.Future, Any, Any]],
        deadline: Optional[float],
    ) -> List[Any]:
        """Race the primary against a delayed duplicate on ``hedge_name``.

        The hedge launches only if the primary is still unanswered after
        ``hedge_delay`` seconds *and* the retry budget has a token (a
        hedge is a duplicate send, exactly what the budget bounds).  The
        first success wins and the loser is cancelled; replicas answer
        bit-identically, so the caller cannot tell who won — except in
        the ``rwr.gateway.hedge.*`` counters.
        """
        primary = asyncio.ensure_future(
            self._attempt(mode, name, seeds, group, 0, deadline)
        )
        done, _ = await asyncio.wait({primary}, timeout=hedge_delay)
        if done:
            return await primary
        if not self.retry_budget.try_spend():
            self._retry_exhausted.inc()
            return await primary
        self._hedge_sent.inc()
        hedge = asyncio.ensure_future(
            self._attempt(mode, hedge_name, seeds, group, 1, deadline)
        )
        pending = {primary, hedge}
        primary_error: Optional[BaseException] = None
        other_error: Optional[BaseException] = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                error = task.exception()
                if error is None:
                    for loser in pending:
                        loser.cancel()
                    if pending:
                        await asyncio.wait(pending)
                    if task is hedge:
                        self._hedge_wins.inc()
                    return task.result()
                if task is primary:
                    primary_error = error
                else:
                    other_error = error
        raise primary_error if primary_error is not None else other_error

    def _record_backend_spans(
        self,
        spans: List[Tuple[Dict[str, Any], int]],
        name: str,
        attempt: int,
        started: float,
        start: float,
        error: Optional[BaseException] = None,
    ) -> None:
        """Emit the ``gateway.backend`` span (routing + socket RTT + server
        time) of one dispatch attempt into every origin request's trace."""
        if not spans:
            return
        duration = max(0.0, time.perf_counter() - start)
        tags: Dict[str, Any] = {"backend": name, "attempt": attempt}
        if error is not None:
            tags["error"] = type(error).__name__
        for entry, span_id in spans:
            self.tracer.record(
                tracing.make_record(
                    "gateway.backend",
                    trace_id=entry["trace_id"],
                    span_id=span_id,
                    parent_id=entry["root"],
                    start_time=started,
                    duration=duration,
                    tags=tags,
                )
            )

    def _resolve(
        self,
        group: List[Tuple[int, asyncio.Future, Any, Any]],
        rows: Optional[List[Any]] = None,
        error: Optional[BaseException] = None,
        mode: Optional[Tuple] = None,
    ) -> None:
        for index, (seed, future, _, _) in enumerate(group):
            self._pending_total -= 1
            if rows is not None and mode is not None:
                # Cache even when the future is already done (watchdog
                # served a degraded answer): the exact late answer is the
                # freshest thing the next degraded hit can get.
                self._cache_answer(mode, seed, rows[index])
            if future.done():  # caller gave up, or watchdog answered
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(GatewayResult(rows[index]))

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def _cache_answer(self, mode: Tuple, seed: int, value: Any) -> None:
        if self._answer_cache_size <= 0:
            return
        if mode[0] == "dense":
            # A dense row is a view into its batch's (k, n) score array;
            # an owned copy keeps one cached row from pinning the batch.
            value = np.array(value)
        key = (mode, int(seed))
        self._answer_cache[key] = value
        self._answer_cache.move_to_end(key)
        while len(self._answer_cache) > self._answer_cache_size:
            self._answer_cache.popitem(last=False)

    async def _degraded_answer(
        self, mode: Tuple, seed: int
    ) -> Optional[GatewayResult]:
        """The degradation ladder: stale cache hit, then Monte Carlo.

        Returns ``None`` when neither rung can answer (no cache entry, no
        answerer configured, or the answerer failed) — the caller falls
        back to the error it was about to raise.
        """
        key = (mode, int(seed))
        cached = self._answer_cache.get(key)
        if cached is not None:
            self._answer_cache.move_to_end(key)
            # A cache hit is an *exact* answer for a possibly stale
            # generation: its error bound is zero by construction.
            return GatewayResult(
                cached, degraded=True, error_bound=0.0, source="cache"
            )
        if self.degraded_answerer is None:
            return None
        loop = asyncio.get_running_loop()
        try:
            if mode[0] == "dense":
                scores, bound = await loop.run_in_executor(
                    None, partial(self.degraded_answerer.answer_many, [seed])
                )
                value = scores[0]
            else:
                _, k, exclude_seed = mode
                result, bound = await loop.run_in_executor(
                    None,
                    partial(
                        self.degraded_answerer.answer_topk,
                        seed, k, exclude_seed,
                    ),
                )
                value = to_pairs(result)
        except Exception:  # noqa: BLE001 — degraded path must not crash serving
            return None
        return GatewayResult(
            value, degraded=True, error_bound=float(bound), source="approx"
        )

    def _count_degraded(self, answer: GatewayResult) -> None:
        """Count a degraded reply at the moment it is actually served.

        The deadline watchdog and the terminal-error path race to compute
        an answer for the same future; only the winner serves it, so the
        loser must not count."""
        self._degraded.inc()
        if answer.source == "cache":
            self._degraded_cache.inc()
        else:
            self._degraded_approx.inc()

    async def _resolve_degraded(
        self,
        mode: Tuple,
        group: List[Tuple[int, asyncio.Future, Any, Any]],
        error: BaseException,
    ) -> None:
        """Resolve a group no replica answered: degraded where possible,
        the terminal error where not."""
        for seed, future, _, _ in group:
            self._pending_total -= 1
            if future.done():
                continue
            answer = await self._degraded_answer(mode, seed)
            if future.done():  # the watchdog raced us and answered
                continue
            if answer is not None:
                self._count_degraded(answer)
                future.set_result(answer)
            else:
                future.set_exception(error)

    def _deadline_watchdog(
        self, mode: Tuple, seed: int, future: asyncio.Future, deadline: float
    ) -> None:
        if future.done():
            return
        asyncio.ensure_future(self._expire(mode, seed, future, deadline))

    async def _expire(
        self, mode: Tuple, seed: int, future: asyncio.Future, deadline: float
    ) -> None:
        """A request's deadline is (nearly) up and no exact answer landed:
        serve a degraded one now rather than an exact one too late.

        The future resolves here but the in-flight backend batch is left
        to finish — its answer refreshes the cache, and
        :meth:`_resolve` skips the already-done future (that is also
        where ``_pending_total`` is decremented exactly once)."""
        if future.done():
            return
        self._deadline_exceeded.inc()
        self.registry.histogram(
            telemetry.DEADLINE_DEGRADED_AT,
            help="remaining budget (ms) when the deadline watchdog fired",
        ).observe(max(0.0, (deadline - time.monotonic()) * 1000.0))
        answer = await self._degraded_answer(mode, seed)
        if future.done():  # the exact answer won the race after all
            return
        if answer is not None:
            self._count_degraded(answer)
            future.set_result(answer)
        else:
            future.set_exception(
                DeadlineExpired(
                    f"deadline spent before any replica answered seed {seed}"
                )
            )

    # ------------------------------------------------------------------
    # Health monitor
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        # Checks the flag, not only cancellation: on Python 3.11 a
        # wait_for whose poll finishes as close() cancels it swallows the
        # cancel, and the loop would outlive close() forever.
        while not self._closed:
            for name, backend in list(self.backends.items()):
                depth_gauge = self.registry.gauge(
                    f"{telemetry.GATEWAY_BACKEND_PREFIX}{name}.queue_depth",
                    help="queue depth the backend last reported",
                )
                try:
                    stats = await asyncio.wait_for(
                        backend.stats(), min(self.health_interval, 5.0)
                    )
                except (BackendError, TimeoutError):
                    # A failed poll is a transport failure: it feeds the
                    # breaker exactly like a failed query.
                    self._depths.pop(name, None)
                    self._breaker_failure(name)
                    continue
                except (QueryError, Overloaded):
                    self._depths.pop(name, None)
                    continue
                depth = float(stats.get("queue_depth") or 0)
                self._depths[name] = depth
                depth_gauge.set(depth)
                self._record_generation(name, stats.get("generation"))
                # A live stats reply is proof of recovery: close the
                # breaker instead of waiting for a half-open probe.
                self._breaker_success(name)
                # Full registry snapshot for fleet aggregation — best
                # effort; a failed poll keeps the previous snapshot.
                poll = getattr(backend, "metrics_snapshot", None)
                if poll is not None:
                    try:
                        snapshot = await asyncio.wait_for(
                            poll(), min(self.health_interval, 5.0)
                        )
                    except (BackendError, QueryError, Overloaded, TimeoutError):
                        pass
                    else:
                        if snapshot:
                            self._fleet_snapshots[name] = snapshot
            await asyncio.sleep(self.health_interval)

    # ------------------------------------------------------------------
    # Fleet aggregation
    # ------------------------------------------------------------------
    def fleet_registry(self) -> MetricsRegistry:
        """One merged registry over the gateway's own metrics and every
        backend's last-polled snapshot (counters/gauges sum, histograms
        merge bucket-wise), so fleet-wide p50/p95/p99 read like a
        single-process run."""
        self.tracer.export_to(self.registry)
        return telemetry.merge_snapshots(
            list(self._fleet_snapshots.values()) + [self.registry.snapshot()]
        )

    def fleet_snapshot(self) -> Dict[str, Any]:
        """The fleet observability document ``repro top`` renders.

        Carries the gateway's own snapshot, each backend's last-polled
        snapshot keyed by backend name, the merged fleet registry, the
        per-backend serving generations, the tracer's counters and the
        recent slow-query log.
        """
        merged = self.fleet_registry()
        return {
            "schema": FLEET_SCHEMA,
            "gateway": self.registry.snapshot(),
            "backends": dict(self._fleet_snapshots),
            "merged": merged.snapshot(),
            "generations": dict(self._generations),
            "trace": self.tracer.stats(),
            "slow_queries": self.tracer.slow_queries(),
        }

    def fleet_prometheus(self) -> str:
        """Prometheus exposition of the whole fleet: the gateway's own
        series unlabelled, plus every backend's series labelled
        ``backend="<name>"`` (names are escaped, so arbitrary endpoint
        strings cannot break line validity)."""
        self.tracer.export_to(self.registry)
        parts = [self.registry.to_prometheus()]
        for name in sorted(self._fleet_snapshots):
            registry = MetricsRegistry.from_snapshot(self._fleet_snapshots[name])
            parts.append(registry.to_prometheus(labels={"backend": name}))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Gateway({list(self.backends)}, max_pending={self.max_pending})"
        )


# ----------------------------------------------------------------------
# Socket servers
# ----------------------------------------------------------------------
class _WireServer:
    """Shared asyncio socket-server scaffolding (accept/read/dispatch)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.base_events.Server] = None
        #: One task per open connection, so :meth:`close` can end them.
        self._connections: set = set()
        #: Handlers answering a request, each with the monotonic time until
        #: which :meth:`close` waits for its reply.
        self._answering: Dict[asyncio.Task, float] = {}
        self._closing = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0`` (ephemeral)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain the requests in flight, then end every
        open connection's handler.

        A request being answered gets until its deadline (see
        :meth:`_drain_seconds`) to be answered and written; its handler then
        ends.  Idle handlers, and handlers still answering past their
        request's deadline, are cancelled.  Left running, the handlers would
        be cancelled by the event loop's teardown instead, after the server
        and its pool are gone.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(
            *(
                asyncio.wait({task}, timeout=max(until - time.monotonic(), 0.0))
                for task, until in self._answering.items()
            )
        )
        handlers = list(self._connections)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await wire.read_message(reader)
                except wire.ProtocolError:
                    # A frame that does not parse (bad version, truncated
                    # body) is transport corruption, not an application
                    # error: close instead of replying, so the peer's
                    # failover/breaker machinery sees a dead link rather
                    # than a poisoned answer.
                    break
                if request is None or self._closing:
                    break
                self._answering[task] = time.monotonic() + self._drain_seconds(request)
                try:
                    reply = await self._answer(request)
                    await wire.write_message(writer, reply)
                finally:
                    del self._answering[task]
                if self._closing:
                    break
        except (ConnectionError, OSError):  # peer vanished mid-reply
            pass
        except asyncio.CancelledError:
            # The server is closing.  The handler is a top-level task that
            # nothing awaits, so it ends normally: asyncio's stream callback
            # would otherwise report the cancellation as an error.
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # peer gone, or closing
                pass

    def _deadline_ms(self, request: wire.Request) -> Optional[float]:
        """The request's budget: its deadline trailer, if it has one."""
        return getattr(request, "deadline_ms", None)

    def _drain_seconds(self, request: wire.Request) -> float:
        """How long :meth:`close` waits for this request's reply: its
        budget, else the gateway's timeout for one backend call."""
        deadline_ms = self._deadline_ms(request)
        if deadline_ms is None:
            return DEFAULT_REQUEST_TIMEOUT
        return deadline_ms / 1000.0

    async def _answer(self, request: wire.Request) -> wire.Reply:
        raise NotImplementedError


class PoolServer(_WireServer):
    """A :class:`~repro.serve.WorkerPool` behind the wire protocol.

    This is what ``repro serve --listen HOST:PORT`` runs: one of these
    per host, N of them behind a :class:`Gateway`.  Pool calls funnel
    through a single-thread executor (the pool's collection loop is
    single-caller); ``shed_queue_depth`` bounds the number of requests
    waiting on that executor before the server answers
    ``REPLY_OVERLOADED`` instead of queueing deeper.
    """

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        shed_queue_depth: Optional[int] = None,
    ):
        super().__init__(host, port)
        self.pool = pool
        self.shed_queue_depth = shed_queue_depth
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pool-server"
        )
        self._inflight = 0

    async def close(self) -> None:
        await super().close()
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def _run(self, fn, *args):
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            return await loop.run_in_executor(self._executor, partial(fn, *args))
        finally:
            self._inflight -= 1

    def _depth(self) -> int:
        stats_depth = 0
        for task_queue in self.pool._task_queues:
            try:
                stats_depth += int(task_queue.qsize())
            except (NotImplementedError, OSError):  # pragma: no cover
                pass
        return stats_depth + self._inflight

    def _pop_trace_records(
        self, trace: Sequence[Tuple[int, int]]
    ) -> Tuple[Dict[str, Any], ...]:
        """Pull the span records of a traced request out of this process's
        tracer ring so they travel back on the wire reply (the caller's
        gateway absorbs them — the trace lives where the request began)."""
        if not trace:
            return ()
        return tuple(
            tracing.get_tracer().pop_trace_records(
                [trace_id for trace_id, _ in trace]
            )
        )

    async def _answer(self, request: wire.Request) -> wire.Reply:
        try:
            if isinstance(request, wire.QueryRequest):
                if self._shedding():
                    return self._overloaded()
                scores = await self._run(
                    partial(
                        self.pool.query_many,
                        [int(s) for s in request.seeds],
                        trace=list(request.trace) or None,
                        deadline_ms=request.deadline_ms,
                    )
                )
                return wire.DenseReply(
                    scores=scores,
                    trace_records=self._pop_trace_records(request.trace),
                )
            if isinstance(request, wire.TopKRequest):
                if self._shedding():
                    return self._overloaded()
                results = await self._run(
                    partial(
                        self.pool.query_topk_many,
                        [int(s) for s in request.seeds],
                        request.k,
                        request.exclude_seed,
                        trace=list(request.trace) or None,
                        deadline_ms=request.deadline_ms,
                    )
                )
                return wire.TopKReply(
                    pairs=[to_pairs(r) for r in results],
                    trace_records=self._pop_trace_records(request.trace),
                )
            if isinstance(request, wire.MetricsRequest):
                registry = await self._run(self.pool.metrics)
                tracing.get_tracer().export_to(registry)
                return wire.StatsReply(stats=registry.snapshot())
            if isinstance(request, wire.StatsRequest):
                stats = await self._run(self.pool.pool_stats)
                worker_stats = self.pool.worker_stats()
                return wire.StatsReply(
                    stats={
                        "queue_depth": self._depth(),
                        "generation": stats.get("generation"),
                        "n_workers": stats.get("n_workers"),
                        "n_nodes": (
                            worker_stats[0].get("n_nodes")
                            if worker_stats else None
                        ),
                        "queries_submitted": stats.get("queries_submitted"),
                        "worker_restarts": stats.get("worker_restarts"),
                    }
                )
        except (WorkerError, InvalidParameterError) as exc:
            return wire.ErrorReply(f"{type(exc).__name__}: {exc}")
        return wire.ErrorReply(
            f"pool server cannot answer {type(request).__name__}"
        )

    def _shedding(self) -> bool:
        return (
            self.shed_queue_depth is not None
            and self._depth() > self.shed_queue_depth
        )

    def _overloaded(self) -> wire.OverloadedReply:
        depth = self._depth()
        return wire.OverloadedReply(
            pending=depth,
            limit=int(self.shed_queue_depth or 0),
            retry_after=compute_retry_after(
                depth, int(self.shed_queue_depth or 1), 0.05
            ),
        )


class GatewayServer(_WireServer):
    """A :class:`Gateway` behind the wire protocol (the client-facing hop).

    Every seed of an incoming request goes through the gateway's
    coalescer individually, so concurrent client connections merge into
    shared backend solves; a multi-seed request is simply N coalescable
    requests that happen to arrive together.
    """

    def __init__(
        self,
        gateway: Gateway,
        host: str = "127.0.0.1",
        port: int = 0,
        default_deadline_ms: Optional[float] = None,
    ):
        super().__init__(host, port)
        self.gateway = gateway
        # Budget applied to requests arriving *without* a deadline trailer
        # (v2 clients, or v3 clients that did not set one); None = no
        # default, those requests run unbounded as before.
        self.default_deadline_ms = default_deadline_ms

    def _deadline_ms(self, request: wire.Request) -> Optional[float]:
        deadline_ms = super()._deadline_ms(request)
        return self.default_deadline_ms if deadline_ms is None else deadline_ms

    async def _answer(self, request: wire.Request) -> wire.Reply:
        try:
            if isinstance(request, wire.QueryRequest):
                results = await self._gather(
                    [
                        self.gateway.query_detailed(
                            int(s), deadline_ms=self._deadline_ms(request)
                        )
                        for s in request.seeds
                    ]
                )
                rows = [r.value for r in results]
                scores = (
                    np.vstack(rows)
                    if rows
                    else np.empty((0, 0), dtype=np.float64)
                )
                return wire.DenseReply(
                    scores=scores, **self._degradation(results)
                )
            if isinstance(request, wire.TopKRequest):
                results = await self._gather(
                    [
                        self.gateway.query_topk_detailed(
                            int(s),
                            request.k,
                            request.exclude_seed,
                            deadline_ms=self._deadline_ms(request),
                        )
                        for s in request.seeds
                    ]
                )
                return wire.TopKReply(
                    pairs=[r.value for r in results],
                    **self._degradation(results),
                )
            if isinstance(request, wire.StatsRequest):
                return wire.StatsReply(stats=await self.gateway.stats())
            if isinstance(request, wire.MetricsRequest):
                return wire.StatsReply(stats=self.gateway.fleet_snapshot())
        except Overloaded as exc:
            return wire.OverloadedReply(
                pending=exc.pending, limit=exc.limit, retry_after=exc.retry_after
            )
        except (
            DeadlineExpired, QueryError, BackendError, InvalidParameterError
        ) as exc:
            return wire.ErrorReply(f"{type(exc).__name__}: {exc}")
        return wire.ErrorReply(
            f"gateway cannot answer {type(request).__name__}"
        )

    @staticmethod
    def _degradation(results: List[GatewayResult]) -> Dict[str, Any]:
        """The reply-level degradation tag of a multi-seed request: the
        reply is degraded if *any* seed was, and carries the worst bound."""
        degraded = any(r.degraded for r in results)
        bound = max(
            (r.error_bound for r in results if r.degraded), default=0.0
        )
        return {"degraded": degraded, "error_bound": bound}

    @staticmethod
    async def _gather(coros: List[Any]) -> List[Any]:
        """Gather that re-raises the highest-priority failure after every
        branch settled (a plain ``gather`` abandons siblings whose
        exceptions then log as never-retrieved)."""
        results = await asyncio.gather(*coros, return_exceptions=True)
        for exception_type in (Overloaded, QueryError, BackendError):
            for result in results:
                if isinstance(result, exception_type):
                    raise result
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results
