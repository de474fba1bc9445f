"""Distributed request tracing for the sharded serve tier.

:mod:`repro.telemetry` spans time sections of the query path, but a span
dies in the process (and context) that opened it — a slow gateway request
cannot be attributed to coalesce wait vs. shard routing vs. pool queue
depth vs. GMRES iterations, because nothing connects the gateway's
timing to the worker's.  This module adds the connective tissue:

- :class:`TraceContext` — a ``(trace_id, span_id)`` pair naming one trace
  and the span new work should parent under.  The gateway mints a random
  64-bit ``trace_id`` per sampled request and the context rides along on
  :mod:`repro.wire` request frames (protocol v2) and through
  :class:`~repro.serve.WorkerPool` task tuples, so the worker's engine
  spans join the *caller's* trace across both the socket and the process
  boundary.
- :func:`activate` — installs contexts as the ambient trace for a block;
  :meth:`repro.telemetry.MetricsRegistry.span` picks them up, so the
  existing Algorithm-4 spans (``query.partition`` … ``query.backsub``)
  become trace children without any per-call plumbing.  A batch coalesced
  from several origin requests carries one context *per origin*: each
  finished span is recorded once per context, so the shared solve shows
  up under every origin's trace.
- :class:`Tracer` — where finished spans go: a bounded in-memory ring,
  an optional JSON-lines trace log (staged in a ``.tmp`` file and
  atomically renamed, like the pool's ``metrics_path``), and a
  structured slow-query log for any request over a configurable
  threshold.
- :func:`capture` — redirects records emitted in a block into a list
  instead of the tracer; workers use it to ship their span records back
  to the pool in the reply tuple, which is how a single trace ends up
  assembled in the gateway's ring.

Sampling: :meth:`Tracer.start_trace` mints a trace for a
``sample_rate`` fraction of requests (default
:data:`DEFAULT_SAMPLE_RATE`).  Untraced requests skip everything here —
the only cost left on the hot path is one context-variable read per
span, which keeps tracing under the <2% overhead budget
(``benchmarks/bench_observability.py`` gates it).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError

#: Fraction of gateway requests that get a trace by default.
DEFAULT_SAMPLE_RATE = 0.01

#: Finished span records kept in the in-memory ring.
DEFAULT_RING_CAPACITY = 4096

#: Slow-query entries kept (each carries its full span breakdown).
DEFAULT_SLOW_CAPACITY = 128

#: Span records retained for the JSON-lines trace log between flushes.
DEFAULT_LOG_CAPACITY = 20000

#: Records between automatic trace-log flushes (0 disables auto-flush).
LOG_FLUSH_EVERY = 200

_RNG = random.Random()


def _reseed_ids() -> None:
    _RNG.seed(int.from_bytes(os.urandom(8), "big"))


_reseed_ids()
# Python reseeds only the random module's own generator at fork: without
# this, every worker forked from one server would mint the same ids.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reseed_ids)


class TraceContext(NamedTuple):
    """One trace a piece of work belongs to.

    ``trace_id`` names the trace; ``span_id`` is the id of the span that
    work opened under this context should report as its parent.  The
    pair is what crosses process boundaries — 16 bytes on the wire.
    """

    trace_id: int
    span_id: int


def mint_id() -> int:
    """A random non-zero 63-bit id (JSON-safe, fits the wire's u64)."""
    value = 0
    while value == 0:
        value = _RNG.getrandbits(63)
    return value


def format_id(value: Optional[int]) -> Optional[str]:
    """Canonical hex rendering of a trace/span id (``None`` passes through)."""
    return None if value is None else format(int(value), "016x")


def parse_id(text: str) -> int:
    return int(text, 16)


# ----------------------------------------------------------------------
# Ambient trace contexts + capture redirection
# ----------------------------------------------------------------------
_ACTIVE_CONTEXTS: ContextVar[Tuple[TraceContext, ...]] = ContextVar(
    "repro_active_trace", default=()
)
_CAPTURE: ContextVar[Optional[List[Dict[str, Any]]]] = ContextVar(
    "repro_trace_capture", default=None
)


def current_contexts() -> Tuple[TraceContext, ...]:
    """The ambient trace contexts (empty tuple when untraced)."""
    return _ACTIVE_CONTEXTS.get()


def current_trace_hex() -> Optional[str]:
    """Hex trace id of the primary ambient context (histogram exemplars)."""
    contexts = _ACTIVE_CONTEXTS.get()
    return format_id(contexts[0].trace_id) if contexts else None


@contextmanager
def activate(contexts: Sequence[TraceContext]):
    """Install ``contexts`` as the ambient trace for the enclosed block.

    Spans opened inside (without an enclosing span) become children of
    every context's ``span_id`` — one record per context, so a solve
    shared by several coalesced origin requests appears in each trace.
    """
    token = _ACTIVE_CONTEXTS.set(tuple(contexts))
    try:
        yield
    finally:
        _ACTIVE_CONTEXTS.reset(token)


@contextmanager
def capture():
    """Collect records emitted in the block into a list instead of the
    tracer (workers ship the list back across the process boundary)."""
    records: List[Dict[str, Any]] = []
    token = _CAPTURE.set(records)
    try:
        yield records
    finally:
        _CAPTURE.reset(token)


def make_record(
    name: str,
    trace_id: int,
    span_id: int,
    parent_id: Optional[int],
    start_time: float,
    duration: float,
    tags: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One finished-span record (the ring/log/wire JSON unit)."""
    record: Dict[str, Any] = {
        "name": name,
        "trace_id": format_id(trace_id),
        "span_id": format_id(span_id),
        "parent_id": format_id(parent_id),
        "start": float(start_time),
        "duration": float(duration),
        "pid": os.getpid(),
    }
    if tags:
        record["tags"] = tags
    return record


def emit(record: Dict[str, Any]) -> None:
    """Route a record: the active capture list if any, else the tracer."""
    captured = _CAPTURE.get()
    if captured is not None:
        captured.append(record)
    else:
        get_tracer().record(record)


@contextmanager
def trace(name: str = "request", tags: Optional[Dict[str, Any]] = None):
    """Run the enclosed block as one sampled trace — the in-process entry
    point (servers sample at gateway admission instead).

    Asks the global tracer for a sampling decision; when sampled, the
    block runs under an active context (engine spans record as children)
    and a root record named ``name`` is emitted when it exits.  Yields
    the trace id, or ``None`` when the sampler passes.
    """
    tracer = get_tracer()
    trace_id = tracer.start_trace()
    if trace_id is None:
        yield None
        return
    context = TraceContext(trace_id, mint_id())
    wall = time.time()
    start = time.perf_counter()
    try:
        with activate([context]):
            yield trace_id
    finally:
        emit(
            make_record(
                name,
                trace_id=trace_id,
                span_id=context.span_id,
                parent_id=None,
                start_time=wall,
                duration=max(0.0, time.perf_counter() - start),
                tags=tags,
            )
        )


def record_span(span: Any) -> None:
    """Record a finished traced :class:`repro.telemetry.Span` — one record
    per context it belongs to (same span id, different trace/parent)."""
    for ctx in span.contexts:
        emit(
            make_record(
                span.name,
                trace_id=ctx.trace_id,
                span_id=span.span_id,
                parent_id=ctx.span_id,
                start_time=span.start_time,
                duration=span.seconds,
            )
        )


# ----------------------------------------------------------------------
# Trace sinks
# ----------------------------------------------------------------------
class Tracer:
    """Sampling decisions plus the sinks finished span records flow to.

    Parameters
    ----------
    sample_rate:
        Fraction of :meth:`start_trace` calls that mint a trace
        (clamped to [0, 1]).
    ring_capacity:
        Span records kept in the in-memory ring (oldest evicted first).
    log_path:
        Optional JSON-lines trace log.  Records are buffered and
        :meth:`flush_log` rewrites the file through a pid-tagged ``.tmp``
        stage and an atomic rename — a reader never sees a torn line.
    slow_threshold:
        Seconds; a finished *root* span (``parent_id`` ``None``) at or
        over this duration is entered into the slow-query log together
        with every ring record of its trace.  ``None`` disables it.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        log_path: Optional[Any] = None,
        slow_threshold: Optional[float] = None,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        log_capacity: int = DEFAULT_LOG_CAPACITY,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise InvalidParameterError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if ring_capacity < 1:
            raise InvalidParameterError(
                f"ring_capacity must be >= 1, got {ring_capacity}"
            )
        self.sample_rate = float(sample_rate)
        self.ring_capacity = int(ring_capacity)
        self.log_path = Path(log_path) if log_path is not None else None
        self.slow_threshold = slow_threshold
        self._ring: deque = deque(maxlen=ring_capacity)
        self._slow: deque = deque(maxlen=max(int(slow_capacity), 1))
        self._log_records: deque = deque(maxlen=max(int(log_capacity), 1))
        self._lock = threading.Lock()
        self._unflushed = 0
        self.n_traces = 0
        self.n_spans = 0
        self.n_absorbed = 0
        self.n_dropped = 0
        self.n_slow = 0

    # -- sampling ------------------------------------------------------
    def start_trace(self) -> Optional[int]:
        """A fresh trace id for a sampled request, else ``None``."""
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0 and _RNG.random() >= self.sample_rate:
            return None
        with self._lock:
            self.n_traces += 1
        return mint_id()

    # -- recording -----------------------------------------------------
    def record(self, record: Dict[str, Any]) -> None:
        """Add one finished span record to the ring (and log buffer)."""
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.n_dropped += 1
            self._ring.append(record)
            self.n_spans += 1
            if self.log_path is not None:
                self._log_records.append(record)
                self._unflushed += 1
        if record.get("parent_id") is None:
            self._maybe_slow(record)
        if (
            self.log_path is not None
            and LOG_FLUSH_EVERY
            and self._unflushed >= LOG_FLUSH_EVERY
        ):
            self.flush_log()

    def absorb(self, records: Iterable[Dict[str, Any]]) -> None:
        """Fold records shipped from another process into the sinks."""
        for record in records:
            with self._lock:
                self.n_absorbed += 1
                self.n_spans -= 1  # record() re-counts it below
            self.record(record)

    # -- lookup --------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in the ring, oldest first."""
        seen: Dict[str, None] = {}
        for record in self.records():
            seen.setdefault(record["trace_id"], None)
        return list(seen)

    def trace(self, trace_id: Any) -> List[Dict[str, Any]]:
        """Every ring record of one trace, sorted by start time."""
        wanted = trace_id if isinstance(trace_id, str) else format_id(trace_id)
        matched = [r for r in self.records() if r["trace_id"] == wanted]
        matched.sort(key=lambda r: r["start"])
        return matched

    def pop_trace_records(self, trace_ids: Iterable[int]) -> List[Dict[str, Any]]:
        """Remove and return every ring record of the given traces (what a
        :class:`~repro.gateway.PoolServer` attaches to its wire reply)."""
        wanted = {format_id(t) for t in trace_ids}
        taken: List[Dict[str, Any]] = []
        with self._lock:
            kept = deque(maxlen=self._ring.maxlen)
            for record in self._ring:
                (taken if record["trace_id"] in wanted else kept).append(record)
            self._ring = kept
        return taken

    # -- slow-query log ------------------------------------------------
    def _maybe_slow(self, root: Dict[str, Any]) -> None:
        if self.slow_threshold is None or root["duration"] < self.slow_threshold:
            return
        spans = [
            r for r in self.records()
            if r["trace_id"] == root["trace_id"] and r is not root
        ]
        spans.sort(key=lambda r: r["start"])
        entry = {
            "trace_id": root["trace_id"],
            "name": root["name"],
            "start": root["start"],
            "duration": root["duration"],
            "threshold": self.slow_threshold,
            "tags": root.get("tags", {}),
            "spans": spans + [root],
        }
        with self._lock:
            self._slow.append(entry)
            self.n_slow += 1
            if self.log_path is not None:
                self._log_records.append({"slow_query": entry})

    def slow_queries(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._slow)

    # -- trace log -----------------------------------------------------
    def flush_log(self, path: Optional[Any] = None) -> Optional[Path]:
        """Write the buffered records as JSON lines (tmp + atomic rename)."""
        target = Path(path) if path is not None else self.log_path
        if target is None:
            return None
        with self._lock:
            lines = [json.dumps(record) for record in self._log_records]
            self._unflushed = 0
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return target

    # -- stats / export ------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "traces_started": self.n_traces,
                "spans_recorded": self.n_spans,
                "spans_absorbed": self.n_absorbed,
                "ring_spans": len(self._ring),
                "ring_dropped": self.n_dropped,
                "slow_queries": self.n_slow,
            }

    def export_to(self, registry: Any) -> None:
        """Write the ``rwr.trace.*`` rows into a metrics registry."""
        from repro import telemetry

        stats = self.stats()
        registry.counter(
            telemetry.TRACE_TRACES, help="sampled traces started"
        ).reset(stats["traces_started"])
        registry.counter(
            telemetry.TRACE_SPANS, help="span records recorded to the ring"
        ).reset(stats["spans_recorded"])
        registry.counter(
            telemetry.TRACE_DROPPED, help="span records evicted from the ring"
        ).reset(stats["ring_dropped"])
        registry.counter(
            telemetry.TRACE_SLOW, help="requests over the slow-query threshold"
        ).reset(stats["slow_queries"])
        registry.gauge(
            telemetry.TRACE_RING_SPANS, help="span records currently in the ring"
        ).set(stats["ring_spans"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(sample_rate={self.sample_rate}, "
            f"ring={len(self._ring)}/{self.ring_capacity})"
        )


# ----------------------------------------------------------------------
# Process-global tracer
# ----------------------------------------------------------------------
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (what :func:`emit` records into)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-global tracer; returns the previous one."""
    global _GLOBAL_TRACER
    previous, _GLOBAL_TRACER = _GLOBAL_TRACER, tracer
    return previous


def configure(**kwargs: Any) -> Tracer:
    """Replace the global tracer with a fresh one (CLI flag plumbing)."""
    set_tracer(Tracer(**kwargs))
    return _GLOBAL_TRACER
