"""Unified telemetry: metrics registry, tracing spans, and exporters.

The paper's headline claims are all *measurements* — preprocessing time
(Theorem 1), query time (Figs. 1 and 12), memory (Table 5) and GMRES
iteration counts under ILU(0) (Figs. 6-7).  This module makes those
signals first-class at runtime instead of a patchwork of ad-hoc ``stats``
dict keys:

- :class:`MetricsRegistry` — a process-local registry of counters, gauges
  and fixed-bucket histograms (p50/p95/p99 from bucket interpolation), no
  external dependencies;
- :meth:`MetricsRegistry.span` — lightweight tracing spans (``with
  span("gmres.solve"):``) with nesting and monotonic timing, recorded as
  ``<name>.seconds`` histograms;
- exporters — :meth:`MetricsRegistry.to_json` for machine-readable
  snapshots and :meth:`MetricsRegistry.to_prometheus` for the Prometheus
  text exposition format;
- merging — worker processes ship :meth:`MetricsRegistry.snapshot` dicts
  to the pool, which folds them with :func:`merge_snapshots` (counters
  sum, histograms merge bucket-wise), so
  :meth:`repro.serve.WorkerPool.metrics` sees the same totals a
  single-process run would.  Gauges merge by max: each is a level of one
  process (RSS, the resident bundle, load time, uptime), and a sum would
  count a page shared by every worker once per worker.

Instrumented code does not pass registries around.  It records into the
*ambient* registry — a context-variable that defaults to a process-global
registry and is rebound by :meth:`MetricsRegistry.activate`:

    registry = MetricsRegistry()
    with registry.activate():
        solver.query(0)        # gmres/engine metrics land in `registry`

:class:`~repro.core.base.RWRSolver` activates its own per-solver registry
around every query, which is how ``solver.telemetry`` captures the inner
GMRES iteration counts without any plumbing through the call stack.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, MutableMapping, Optional, Tuple, Union,
)

from repro import tracing
from repro.exceptions import InvalidParameterError

#: Snapshot schema identifier embedded in every exported snapshot.
SNAPSHOT_SCHEMA = "repro-metrics/v1"

#: Log-spaced latency buckets (seconds), 10 µs .. 60 s.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Buckets for Krylov iteration counts (the paper reports < ~70, Table 4).
ITERATION_BUCKETS: Tuple[float, ...] = (
    1, 2, 3, 5, 8, 12, 20, 30, 50, 75, 100, 150, 250, 500, 1000,
)

#: Log-decade buckets for relative residuals (Fig. 10's accuracy axis).
RESIDUAL_BUCKETS: Tuple[float, ...] = tuple(10.0 ** e for e in range(-14, 1))

#: Buckets for batch sizes (seeds per query_many call).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Linear buckets for ratios in [0, 1] (pruning fractions, hit rates).
FRACTION_BUCKETS: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
)

#: Log-spaced buckets for wire payload sizes (bytes), 16 B .. 256 MiB.
PAYLOAD_BYTES_BUCKETS: Tuple[float, ...] = tuple(
    float(4 ** e) for e in range(2, 15)
)

# Canonical metric names shared by solvers, engines and serving workers so
# worker-merged totals line up with single-process runs.
QUERIES_TOTAL = "rwr.queries"
QUERIES_UNCONVERGED = "rwr.queries.unconverged"
QUERY_SECONDS = "rwr.query.seconds"
BATCH_SECONDS = "rwr.batch.seconds"
BATCH_SIZE = "rwr.batch.size"

# The Schur solve's safety net (the engine finishes each column GMRES
# leaves unconverged with the power rung).  Per-rung counters append the
# rung name: ``rwr.queries.fallback.power``.
FALLBACK_TOTAL = "rwr.queries.fallback"
FALLBACK_RUNG_PREFIX = "rwr.queries.fallback."
FALLBACK_RESIDUAL = "rwr.queries.fallback.residual"

# Serving supervision (worker crash detection / respawn / re-dispatch).
WORKER_RESTARTS = "rwr.serve.worker_restarts"
REQUEST_RETRIES = "rwr.serve.request_retries"
WORKER_REROUTES = "rwr.serve.worker_reroutes"

# Async gateway front door (repro.gateway): end-to-end request latency,
# seeds per coalesced backend solve, admission-control sheds, replica
# failovers, and per-backend breaker/queue-depth gauges
# (``rwr.gateway.backend.<name>.{breaker_state,queue_depth}``).
GATEWAY_REQUESTS = "rwr.gateway.requests"
GATEWAY_REQUEST_SECONDS = "rwr.gateway.request.seconds"
GATEWAY_COALESCE_BATCH = "rwr.gateway.coalesce.batch_size"
GATEWAY_SHED = "rwr.gateway.shed"
GATEWAY_FAILOVERS = "rwr.gateway.failovers"
GATEWAY_BACKEND_ERRORS = "rwr.gateway.backend.errors"
GATEWAY_BACKEND_PREFIX = "rwr.gateway.backend."

# Top-k query path: generation-keyed result cache in the serve tier,
# selection pruning ratio, and the size of the k-pair wire replies.
TOPK_CACHE_HITS = "rwr.topk.cache.hits"
TOPK_CACHE_MISSES = "rwr.topk.cache.misses"
TOPK_CACHE_EVICTIONS = "rwr.topk.cache.evictions"
TOPK_PRUNED_FRAC = "rwr.topk.pruned_frac"
TOPK_REPLY_BYTES = "rwr.topk.reply.bytes"

# Dynamic-update pipeline (repro.core.dynamic + repro.core.incremental):
# rebuild decisions (incremental correction vs full re-preprocess vs no-op
# skip), the tracked error bound of the generation being served, and the
# background-rebuild hot swaps.
DYNAMIC_REBUILDS = "rwr.dynamic.rebuilds"
DYNAMIC_REBUILDS_SKIPPED = "rwr.dynamic.rebuilds.skipped"
DYNAMIC_REBUILD_SECONDS = "rwr.dynamic.rebuild.seconds"
DYNAMIC_PUBLISHES = "rwr.dynamic.publishes"
DYNAMIC_PENDING_UPDATES = "rwr.dynamic.pending_updates"
DYNAMIC_SKIPPED_REBUILD_RATIO = "rwr.dynamic.skipped_rebuild_ratio"
DYNAMIC_CORRECTIONS = "rwr.dynamic.corrections"
DYNAMIC_FULL_REBUILDS = "rwr.dynamic.full_rebuilds"
DYNAMIC_ERROR_BOUND = "rwr.dynamic.error_bound"
DYNAMIC_BACKGROUND_SWAPS = "rwr.dynamic.background.swaps"

# Distributed tracing (repro.tracing): sampled traces minted at the
# gateway, span records landing in the tracer's ring, ring evictions,
# and slow-query log entries.  Exported by :meth:`repro.tracing.Tracer.
# export_to` so fleet snapshots carry tracer health alongside latency.
TRACE_TRACES = "rwr.trace.traces"
TRACE_SPANS = "rwr.trace.spans"
TRACE_DROPPED = "rwr.trace.dropped"
TRACE_SLOW = "rwr.trace.slow_queries"
TRACE_RING_SPANS = "rwr.trace.ring_spans"

# Deadline-aware request lifecycle: per-hop deadline budgets dropped by
# the worker pool before dispatch, gateway-side deadline misses, and the
# resilience machinery that keeps a flaky replica from consuming them —
# per-backend circuit breakers (``rwr.gateway.backend.<name>.breaker_state``
# gauges 0=closed 1=half-open 2=open), hedged sends, the token-bucket
# retry budget, and degraded (stale-cache / truncated-solve) replies.
DEADLINE_EXPIRED = "rwr.serve.deadline_expired"
DEADLINE_EXCEEDED = "rwr.gateway.deadline.exceeded"
DEADLINE_DEGRADED_AT = "rwr.gateway.deadline.degraded_at_ms"
BREAKER_OPENED = "rwr.gateway.breaker.opened"
BREAKER_CLOSED = "rwr.gateway.breaker.closed"
BREAKER_REJECTED = "rwr.gateway.breaker.rejected"
BREAKER_PROBES = "rwr.gateway.breaker.probes"
HEDGE_SENT = "rwr.gateway.hedge.sent"
HEDGE_WINS = "rwr.gateway.hedge.wins"
RETRY_BUDGET_EXHAUSTED = "rwr.gateway.retry_budget.exhausted"
DEGRADED_REPLIES = "rwr.gateway.degraded"
DEGRADED_FROM_CACHE = "rwr.gateway.degraded.cache"
DEGRADED_FROM_APPROX = "rwr.gateway.degraded.approx"


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    def reset(self, value: float = 0.0) -> None:
        """Set the counter outright (snapshot restore / stats back-compat)."""
        if value < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot be negative (reset to {value})"
            )
        with self._lock:
            self._value = float(value)


class Gauge:
    """A value that can go up and down (RSS bytes, queue depth, ratios)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``buckets`` are inclusive upper bounds (Prometheus ``le`` semantics);
    one implicit overflow bucket (``+Inf``) is always appended.  Percentiles
    are estimated by linear interpolation inside the bucket containing the
    requested rank — exact enough for latency/iteration distributions whose
    buckets follow the data's dynamic range.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
        help: str = "",
    ):
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise InvalidParameterError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise InvalidParameterError(
                f"histogram {name!r} buckets must be strictly increasing, got {uppers}"
            )
        self.name = name
        self.help = help
        self.buckets = uppers
        self._counts = [0] * (len(uppers) + 1)  # last entry = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._exemplars: Dict[int, str] = {}  # bucket index -> last trace id
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> List[int]:
        return list(self._counts)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Record one observation; ``exemplar`` optionally tags the bucket
        it lands in with a trace id, so a p99 spike in the summary links
        straight to a concrete trace in the tracer's ring."""
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[index] = str(exemplar)

    def exemplars(self) -> Dict[str, str]:
        """Bucket upper bound (formatted) -> most recent exemplar trace id."""
        with self._lock:
            items = dict(self._exemplars)
        bounds = list(self.buckets) + [float("inf")]
        return {_format_number(bounds[i]): trace for i, trace in sorted(items.items())}

    def observe_many(
        self, values: Iterable[float], exemplar: Optional[str] = None
    ) -> None:
        for value in values:
            self.observe(value, exemplar=exemplar)

    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in ``[0, 100]``).

        Interpolates linearly inside the bucket holding the requested rank;
        the first bucket interpolates from 0 and ranks landing in the
        overflow bucket clamp to the largest finite bound.  ``NaN`` when
        empty.
        """
        if not 0.0 <= q <= 100.0:
            raise InvalidParameterError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return float("nan")
        rank = (q / 100.0) * self._count
        cumulative = 0.0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank or index == len(self._counts) - 1:
                if index >= len(self.buckets):  # overflow bucket: clamp
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = self.buckets[index]
                fraction = (rank - cumulative) / bucket_count
                return lower + min(max(fraction, 0.0), 1.0) * (upper - lower)
            cumulative += bucket_count
        return self.buckets[-1]  # pragma: no cover - loop always returns

    def summary(self) -> Dict[str, float]:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations in (bucket-wise sum)."""
        if other.buckets != self.buckets:
            raise InvalidParameterError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({len(self.buckets)} vs {len(other.buckets)} buckets)"
            )
        with self._lock:
            for index, bucket_count in enumerate(other._counts):
                self._counts[index] += bucket_count
            self._sum += other._sum
            self._count += other._count
            self._exemplars.update(other._exemplars)


class Span:
    """One timed section of the query path; spans nest via a context stack.

    Duration (``seconds``) is measured with :func:`time.perf_counter`
    (monotonic — immune to wall-clock steps); ``start_time``/``end_time``
    are separate wall-clock timestamps kept for trace display only.

    When a trace is active (see :mod:`repro.tracing`) the span carries
    trace identity: ``contexts`` holds one
    :class:`~repro.tracing.TraceContext` per trace it belongs to (several
    when the work was coalesced from multiple origin requests), and a
    random 64-bit ``span_id`` is minted.  Nested spans inherit their
    parent's contexts re-parented under the parent's ``span_id``, which
    is how the Algorithm-4 phase spans become trace children for free.
    Untraced spans skip all of it — ``contexts`` is empty and ``span_id``
    ``None``.
    """

    __slots__ = ("name", "parent", "seconds", "contexts", "span_id",
                 "start_time", "end_time")

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        contexts: Optional[Tuple["tracing.TraceContext", ...]] = None,
    ):
        self.name = name
        self.parent = parent
        self.seconds: Optional[float] = None
        self.start_time: float = time.time()
        self.end_time: Optional[float] = None
        if contexts is None:
            if parent is not None:
                contexts = tuple(
                    ctx._replace(span_id=parent.span_id)
                    for ctx in parent.contexts
                )
            else:
                contexts = tracing.current_contexts()
        self.contexts = tuple(contexts)
        self.span_id: Optional[int] = tracing.mint_id() if self.contexts else None

    @property
    def trace_id(self) -> Optional[int]:
        """The primary trace this span belongs to (``None`` when untraced)."""
        return self.contexts[0].trace_id if self.contexts else None

    @property
    def parent_id(self) -> Optional[int]:
        """Parent span id within the primary trace (``None`` when untraced)."""
        return self.contexts[0].span_id if self.contexts else None

    @property
    def path(self) -> str:
        """Dotted path through the enclosing spans (``a/b/c``)."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}/{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.seconds is None else f"{self.seconds:.6f}s"
        return f"Span({self.path!r}, {state})"


_ACTIVE_SPAN: ContextVar[Optional[Span]] = ContextVar("repro_active_span", default=None)
_ACTIVE_REGISTRY: ContextVar[Optional["MetricsRegistry"]] = ContextVar(
    "repro_active_registry", default=None
)


def current_span() -> Optional[Span]:
    """The innermost open span of this context, or ``None``."""
    return _ACTIVE_SPAN.get()


class MetricsRegistry:
    """Process-local registry of named counters, gauges and histograms.

    Parameters
    ----------
    sampling:
        Enables high-volume signals that are too hot for the default level
        — currently the per-iteration GMRES residual trajectory
        (``gmres.residual_trajectory``).  Default off, so steady-state
        instrumentation overhead stays below the noise floor.
    """

    def __init__(self, sampling: bool = False):
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self.sampling = bool(sampling)

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise InvalidParameterError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    f"requested {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise InvalidParameterError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    f"requested {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        help: str = "",
    ) -> Histogram:
        bounds = DEFAULT_TIME_BUCKETS if buckets is None else buckets
        return self._get_or_create(name, lambda: Histogram(name, bounds, help), "histogram")

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    def reset(self) -> None:
        """Drop every registered metric."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Tracing spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, buckets: Optional[Iterable[float]] = None):
        """Time a section and record it as the ``<name>.seconds`` histogram.

        Spans nest (the enclosing span is restored on exit) and are
        exception-safe: the duration is recorded and the stack unwound even
        when the body raises, with the failure counted in
        ``<name>.errors``.

        When a trace is ambient (:func:`repro.tracing.activate`) the span
        additionally emits one trace record per origin trace and tags the
        histogram bucket with its trace id as an exemplar.
        """
        span = Span(name, parent=_ACTIVE_SPAN.get())
        token = _ACTIVE_SPAN.set(span)
        start = time.perf_counter()
        try:
            yield span
        except BaseException:
            self.counter(f"{name}.errors").inc()
            raise
        finally:
            span.seconds = max(0.0, time.perf_counter() - start)
            span.end_time = time.time()
            _ACTIVE_SPAN.reset(token)
            histogram = self.histogram(
                f"{name}.seconds",
                buckets=DEFAULT_TIME_BUCKETS if buckets is None else buckets,
            )
            if span.contexts:
                histogram.observe(
                    span.seconds, exemplar=tracing.format_id(span.trace_id)
                )
                tracing.record_span(span)
            else:
                histogram.observe(span.seconds)

    # ------------------------------------------------------------------
    # Ambient-registry plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self):
        """Make this the ambient registry for the enclosed block."""
        token = _ACTIVE_REGISTRY.set(self)
        try:
            yield self
        finally:
            _ACTIVE_REGISTRY.reset(token)

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able snapshot of every metric (the merge/export format)."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if metric.kind == "counter":
                counters[name] = {"value": metric.value, "help": metric.help}
            elif metric.kind == "gauge":
                gauges[name] = {"value": metric.value, "help": metric.help}
            else:
                entry = {
                    "buckets": list(metric.buckets),
                    "counts": metric.bucket_counts,
                    "sum": metric.sum,
                    "count": metric.count,
                    "help": metric.help,
                }
                with metric._lock:
                    exemplars = {str(i): t for i, t in metric._exemplars.items()}
                if exemplars:
                    entry["exemplars"] = exemplars
                histograms[name] = entry
        return {
            "schema": SNAPSHOT_SCHEMA,
            "sampling": self.sampling,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot in: counters sum, gauges keep the max, histograms
        merge bucket-wise."""
        for name, entry in snapshot.get("counters", {}).items():
            self.counter(name, help=entry.get("help", "")).inc(float(entry["value"]))
        for name, entry in snapshot.get("gauges", {}).items():
            seen = name in self._metrics
            gauge = self.gauge(name, help=entry.get("help", ""))
            value = float(entry["value"])
            gauge.set(max(gauge.value, value) if seen else value)
        for name, entry in snapshot.get("histograms", {}).items():
            incoming = Histogram(name, entry["buckets"], entry.get("help", ""))
            incoming._counts = [int(c) for c in entry["counts"]]
            incoming._sum = float(entry["sum"])
            incoming._count = int(entry["count"])
            incoming._exemplars = {
                int(i): str(t) for i, t in entry.get("exemplars", {}).items()
            }
            self.histogram(name, buckets=entry["buckets"], help=entry.get("help", "")).merge(
                incoming
            )

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls(sampling=bool(snapshot.get("sampling", False)))
        registry.merge_snapshot(snapshot)
        return registry

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document (what ``--metrics-out`` writes)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: Union[str, os.PathLike]) -> Path:
        """Write :meth:`to_json` to ``path`` atomically (parents created).

        The snapshot is staged in a pid-tagged ``.tmp`` file next to the
        target and renamed into place, so a reader of a periodically
        refreshed snapshot never sees it half-written, and a failed write
        leaves the previous snapshot whole.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(self.to_json())
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return target

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        snapshot = json.loads(text)
        schema = snapshot.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise InvalidParameterError(
                f"unsupported metrics snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})"
            )
        return cls.from_snapshot(snapshot)

    def to_prometheus(self, labels: Optional[Mapping[str, str]] = None) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Metric names are sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` and
        prefixed ``repro_``; counters gain the conventional ``_total``
        suffix, histograms emit ``_bucket``/``_sum``/``_count`` series with
        cumulative ``le`` labels.  ``labels`` attaches constant labels to
        every sample line (the gateway uses ``{"backend": name}`` for
        per-shard fleet series); label names are sanitized and values
        escaped, so arbitrary backend names cannot break line validity.
        """
        constant = [
            f'{_prometheus_label_name(key)}="{_escape_label_value(str(value))}"'
            for key, value in (labels or {}).items()
        ]

        def _sample(prom_name: str, value: str, extra: Optional[str] = None) -> str:
            parts = ([extra] if extra else []) + constant
            if parts:
                return f"{prom_name}{{{','.join(parts)}}} {value}"
            return f"{prom_name} {value}"

        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = _prometheus_name(name)
            if metric.kind == "counter":
                prom = f"{prom}_total"
                _emit_header(lines, prom, metric.help, "counter")
                lines.append(_sample(prom, _format_number(metric.value)))
            elif metric.kind == "gauge":
                _emit_header(lines, prom, metric.help, "gauge")
                lines.append(_sample(prom, _format_number(metric.value)))
            else:
                _emit_header(lines, prom, metric.help, "histogram")
                cumulative = 0
                for upper, bucket_count in zip(metric.buckets, metric.bucket_counts):
                    cumulative += bucket_count
                    lines.append(_sample(
                        f"{prom}_bucket", str(cumulative),
                        extra=f'le="{_format_number(upper)}"',
                    ))
                lines.append(_sample(f"{prom}_bucket", str(metric.count),
                                     extra='le="+Inf"'))
                lines.append(_sample(f"{prom}_sum", _format_number(metric.sum)))
                lines.append(_sample(f"{prom}_count", str(metric.count)))
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._metrics)} metrics, sampling={self.sampling})"


def _emit_header(lines: List[str], prom_name: str, help: str, kind: str) -> None:
    if help:
        # Normalize CR/CRLF to LF first, then escape per the exposition
        # format (backslash before newline, or the escapes double-escape).
        text = help.replace("\r\n", "\n").replace("\r", "\n")
        escaped = text.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {prom_name} {escaped}")
    lines.append(f"# TYPE {prom_name} {kind}")


def _prometheus_name(name: str) -> str:
    sanitized = "".join(ch if ch.isalnum() or ch in "_:" else "_" for ch in name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = f"_{sanitized}"
    return f"repro_{sanitized}"


def _prometheus_label_name(name: str) -> str:
    """Label names allow ``[a-zA-Z_][a-zA-Z0-9_]*`` (no colons)."""
    sanitized = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = f"_{sanitized}"
    return sanitized


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote and newline (CR normalized to LF first)."""
    value = value.replace("\r\n", "\n").replace("\r", "\n")
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Ambient registry: module-level entry points used by instrumented code
# ----------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The ambient registry: the innermost :meth:`MetricsRegistry.activate`
    context, falling back to the process-global registry."""
    active = _ACTIVE_REGISTRY.get()
    return active if active is not None else _GLOBAL_REGISTRY


def global_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL_REGISTRY


def active_registry() -> Optional[MetricsRegistry]:
    """The innermost :meth:`MetricsRegistry.activate` context, or ``None``.

    Unlike :func:`get_registry` this does *not* fall back to the global
    registry, so long-lived components that own a default registry (e.g.
    :class:`repro.core.dynamic.DynamicRWR`) can resolve "the registry the
    caller installed, else my own" per call instead of capturing one at
    construction time."""
    return _ACTIVE_REGISTRY.get()


def span(name: str, buckets: Optional[Iterable[float]] = None):
    """Open a span on the ambient registry (see :meth:`MetricsRegistry.span`)."""
    return get_registry().span(name, buckets=buckets)


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Merge worker snapshots into one registry: counters sum, gauges keep
    the max (each is one process's level), histograms merge bucket-wise
    (the associative fold :meth:`repro.serve.WorkerPool.metrics` relies
    on)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged


# ----------------------------------------------------------------------
# Registry-backed stats view (RWRSolver.stats back-compat)
# ----------------------------------------------------------------------
_COUNTER_BACKED = object()  # sentinel marking keys that read through to a counter


class RegistryStats(MutableMapping):
    """A dict-compatible view whose counting keys read through to a registry.

    Historically :class:`~repro.core.base.RWRSolver` mutated a raw ``stats``
    dict; the counters now live in the solver's
    :class:`MetricsRegistry` and this view keeps every existing key name and
    semantic intact (``stats["queries"]`` is still an ``int`` that starts at
    0 after preprocessing).  Non-counter keys behave exactly like plain dict
    entries.
    """

    def __init__(self, registry: MetricsRegistry, counter_keys: Mapping[str, str]):
        self._registry = registry
        self._counter_keys = dict(counter_keys)
        self._data: Dict[str, Any] = {}

    def __getitem__(self, key):
        value = self._data[key]
        if value is _COUNTER_BACKED:
            return int(self._registry.counter(self._counter_keys[key]).value)
        return value

    def __setitem__(self, key, value) -> None:
        if key in self._counter_keys:
            self._registry.counter(self._counter_keys[key]).reset(float(value))
            self._data[key] = _COUNTER_BACKED
        else:
            self._data[key] = value

    def __delitem__(self, key) -> None:
        del self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def touch(self, key: str) -> None:
        """Expose a counter-backed key without resetting its counter."""
        if key not in self._counter_keys:
            raise InvalidParameterError(f"{key!r} is not a counter-backed stats key")
        self._data.setdefault(key, _COUNTER_BACKED)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegistryStats({dict(self)!r})"
