"""Length-prefixed binary wire protocol for the serve tier.

One protocol connects all three remote pieces of the serving stack: load
generators talk to the :class:`repro.gateway.GatewayServer`, and the
gateway talks to ``repro serve --listen`` pool backends — the frames are
identical in both hops, so a client can also bypass the gateway and hit a
pool directly.

Frame layout
------------
Every message (request or reply) is one *frame*::

    u32  length      little-endian byte count of the payload that follows
    u8   version     protocol version (3; any other value is rejected)
    u8   opcode      message type
    ...  body        opcode-specific, fixed little-endian layout

Requests
--------
``OP_QUERY``
    ``u32 n_seeds`` then ``n_seeds`` ``i64`` seed ids.  Answered with a
    ``REPLY_DENSE`` frame of ``n_seeds`` dense float64 score rows.
``OP_TOPK``
    ``u32 n_seeds``, ``u32 k``, ``u8 exclude_seed`` then ``n_seeds``
    ``i64`` seed ids.  Answered with a ``REPLY_TOPK`` frame carrying the
    existing 16-byte ``(int64 id, float64 score)`` pair records of
    :data:`repro.core.topk.PAIR_DTYPE` — the same payload shrink the
    in-process top-k path buys, now across hosts.
``OP_STATS``
    Empty body; answered with a ``REPLY_STATS`` JSON document (queue
    depth, generation, supervision counters).  This is what the gateway's
    health monitor polls for backpressure and failover decisions.
``OP_METRICS``
    Empty body; answered with a ``REPLY_STATS`` frame whose JSON is a
    full :meth:`repro.telemetry.MetricsRegistry.snapshot` — the fleet
    aggregation feed (gateway merges per-backend snapshots; ``repro
    top`` renders them).

Trace context
-------------
``OP_QUERY`` and ``OP_TOPK`` bodies may end with an optional trace
trailer::

    u32  n_ctx       trace contexts attached to this request
    ...  n_ctx x (u64 trace_id, u64 span_id)

One context per *origin* request riding in the frame (a gateway batch
coalesced from several sampled requests carries several).  The trailer
is optional: a body that ends before it, or ``n_ctx == 0``, is
untraced.  Symmetrically, ``REPLY_DENSE`` and ``REPLY_TOPK`` may end with
``u32 blob_len`` + UTF-8 JSON list of finished span records, carrying the
server-side span tree back to the caller so the gateway can assemble one
end-to-end trace.

Deadline budget
---------------
After the trace trailer, ``OP_QUERY`` and ``OP_TOPK`` bodies may carry a
deadline trailer::

    f8   deadline_ms   remaining request budget, in milliseconds

The budget is *relative* (remaining time, not a wall-clock instant) so
it survives clock skew between hosts; each hop re-computes the remainder
at send time.  An absent trailer (the body ends at the trace trailer)
means no deadline.  Symmetrically, ``REPLY_DENSE`` and ``REPLY_TOPK`` may
end, after the trace-record trailer, with a degraded-reply trailer::

    u8   degraded      1 when the answer is approximate / stale
    f8   error_bound   L1 error certificate of the degraded answer, hence
                       also a per-score bound (0.0 for a stale exact one)

The trailer is only written for degraded replies, so exact answers cost
no extra bytes.

Replies
-------
``REPLY_DENSE``
    ``u32 rows``, ``u64 cols`` then ``rows * cols`` ``f8`` scores
    (+ optional trace-record trailer, above).
``REPLY_TOPK``
    ``u32 n_seeds`` then per seed ``u32 n_pairs`` + ``n_pairs`` 16-byte
    pair records (``n_pairs`` can be below the requested ``k`` when the
    candidate pool was smaller — the documented clamp semantics)
    (+ optional trace-record trailer, above).
``REPLY_STATS``
    UTF-8 JSON for the rest of the payload.
``REPLY_ERROR``
    UTF-8 error message; the request failed and retrying it unchanged
    will fail again (bad seed id, unknown opcode).
``REPLY_OVERLOADED``
    UTF-8 JSON ``{"pending": .., "limit": .., "retry_after": ..}``; the
    server *shed* the request instead of queueing it unboundedly.
    Retrying after ``retry_after`` seconds is expected to succeed.

Every peer ships from this repository, so there is one protocol
version and one transport: :func:`write_message` / :func:`read_message`
over asyncio streams.

Integers and floats are little-endian on the wire (the native layout on
every deployment target, so encoding is zero-copy); the explicit dtypes
keep a big-endian host correct, just slower.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import faults

PROTOCOL_VERSION = 3

#: Upper bound on a single frame; a corrupt length prefix must not make a
#: reader allocate gigabytes.  1 GiB fits a ~16k-seed dense reply at
#: scale 23 — far beyond what the gateway ever batches.
MAX_FRAME_BYTES = 1 << 30

OP_QUERY = 1
OP_TOPK = 2
OP_STATS = 3
OP_METRICS = 4

REPLY_DENSE = 16
REPLY_TOPK = 17
REPLY_STATS = 18
REPLY_ERROR = 19
REPLY_OVERLOADED = 20

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<BB")  # version, opcode
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TOPK_HEAD = struct.Struct("<IIB")  # n_seeds, k, exclude_seed
_TRACE_CTX = struct.Struct("<QQ")  # trace_id, span_id
_DEADLINE = struct.Struct("<d")  # remaining budget, milliseconds
_DEGRADED = struct.Struct("<Bd")  # degraded flag, error bound

#: Explicit little-endian layouts for the array payloads.
WIRE_SEED_DTYPE = np.dtype("<i8")
WIRE_SCORE_DTYPE = np.dtype("<f8")
WIRE_PAIR_DTYPE = np.dtype([("id", "<i8"), ("score", "<f8")])


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not parse as a protocol frame."""


# ----------------------------------------------------------------------
# Message dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class QueryRequest:
    """Dense scores for a batch of seeds."""

    seeds: np.ndarray  # (n,) int64
    #: ``(trace_id, span_id)`` pairs — one per traced origin request.
    trace: Tuple[Tuple[int, int], ...] = ()
    #: Remaining request budget in milliseconds; ``None`` = no deadline.
    deadline_ms: Optional[float] = None

    opcode = OP_QUERY


@dataclass(frozen=True, eq=False)
class TopKRequest:
    """Top-k (id, score) pairs for a batch of seeds."""

    seeds: np.ndarray  # (n,) int64
    k: int
    exclude_seed: bool = True
    #: ``(trace_id, span_id)`` pairs — one per traced origin request.
    trace: Tuple[Tuple[int, int], ...] = ()
    #: Remaining request budget in milliseconds; ``None`` = no deadline.
    deadline_ms: Optional[float] = None

    opcode = OP_TOPK


@dataclass(frozen=True)
class StatsRequest:
    """Server-side stats (health/backpressure probe)."""

    opcode = OP_STATS


@dataclass(frozen=True)
class MetricsRequest:
    """Full telemetry registry snapshot (fleet aggregation feed)."""

    opcode = OP_METRICS


@dataclass(frozen=True, eq=False)
class DenseReply:
    scores: np.ndarray  # (rows, cols) float64
    #: Finished span records (JSON-able dicts) from the serving side.
    trace_records: Tuple[Dict[str, Any], ...] = ()
    #: ``True`` when the answer is approximate/stale (degradation ladder).
    degraded: bool = False
    #: A degraded answer's L1 error certificate, so also a per-score
    #: bound (0.0 = exact).
    error_bound: float = 0.0

    opcode = REPLY_DENSE


@dataclass(frozen=True, eq=False)
class TopKReply:
    #: One PAIR_DTYPE array per requested seed, in request order.
    pairs: List[np.ndarray] = field(default_factory=list)
    #: Finished span records (JSON-able dicts) from the serving side.
    trace_records: Tuple[Dict[str, Any], ...] = ()
    #: ``True`` when the answer is approximate/stale (degradation ladder).
    degraded: bool = False
    #: A degraded answer's L1 error certificate, so also a per-score
    #: bound (0.0 = exact).
    error_bound: float = 0.0

    opcode = REPLY_TOPK


@dataclass(frozen=True)
class StatsReply:
    stats: Dict[str, Any] = field(default_factory=dict)

    opcode = REPLY_STATS


@dataclass(frozen=True)
class ErrorReply:
    message: str

    opcode = REPLY_ERROR


@dataclass(frozen=True)
class OverloadedReply:
    """Typed shed: the server refused the request under backpressure."""

    pending: int = 0
    limit: int = 0
    retry_after: float = 0.05

    opcode = REPLY_OVERLOADED


Request = Union[QueryRequest, TopKRequest, StatsRequest, MetricsRequest]
Reply = Union[DenseReply, TopKReply, StatsReply, ErrorReply, OverloadedReply]


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _seed_bytes(seeds: Sequence[int]) -> bytes:
    return np.ascontiguousarray(seeds, dtype=WIRE_SEED_DTYPE).tobytes()


def _encode_trace(trace: Sequence[Tuple[int, int]]) -> bytes:
    parts = [_U32.pack(len(trace))]
    for trace_id, span_id in trace:
        parts.append(_TRACE_CTX.pack(int(trace_id), int(span_id)))
    return b"".join(parts)


def _encode_trace_records(records: Sequence[Dict[str, Any]]) -> bytes:
    blob = json.dumps(list(records)).encode("utf-8")
    return _U32.pack(len(blob)) + blob


def _encode_deadline(deadline_ms: Optional[float]) -> bytes:
    if deadline_ms is None:
        return b""
    return _DEADLINE.pack(float(deadline_ms))


def _encode_degraded(degraded: bool, error_bound: float) -> bytes:
    if not degraded:
        return b""
    return _DEGRADED.pack(1, float(error_bound))


def encode_message(message: Union[Request, Reply]) -> bytes:
    """Serialize a request or reply into a frame payload (no length prefix)."""
    head = _HEADER.pack(PROTOCOL_VERSION, message.opcode)
    if isinstance(message, QueryRequest):
        seeds = _seed_bytes(message.seeds)
        return (
            head + _U32.pack(len(seeds) // 8) + seeds
            + _encode_trace(message.trace)
            + _encode_deadline(message.deadline_ms)
        )
    if isinstance(message, TopKRequest):
        seeds = _seed_bytes(message.seeds)
        return (
            head
            + _TOPK_HEAD.pack(len(seeds) // 8, int(message.k), int(message.exclude_seed))
            + seeds
            + _encode_trace(message.trace)
            + _encode_deadline(message.deadline_ms)
        )
    if isinstance(message, StatsRequest):
        return head
    if isinstance(message, MetricsRequest):
        return head
    if isinstance(message, DenseReply):
        scores = np.ascontiguousarray(message.scores, dtype=WIRE_SCORE_DTYPE)
        if scores.ndim != 2:
            raise ProtocolError(
                f"dense reply must be 2-D (rows, cols), got shape {scores.shape}"
            )
        rows, cols = scores.shape
        return (
            head + _U32.pack(rows) + _U64.pack(cols) + scores.tobytes()
            + _encode_trace_records(message.trace_records)
            + _encode_degraded(message.degraded, message.error_bound)
        )
    if isinstance(message, TopKReply):
        parts = [head, _U32.pack(len(message.pairs))]
        for packed in message.pairs:
            wire = np.ascontiguousarray(packed).astype(WIRE_PAIR_DTYPE, copy=False)
            parts.append(_U32.pack(len(wire)))
            parts.append(wire.tobytes())
        parts.append(_encode_trace_records(message.trace_records))
        parts.append(_encode_degraded(message.degraded, message.error_bound))
        return b"".join(parts)
    if isinstance(message, StatsReply):
        return head + json.dumps(message.stats).encode("utf-8")
    if isinstance(message, ErrorReply):
        return head + message.message.encode("utf-8")
    if isinstance(message, OverloadedReply):
        body = {
            "pending": int(message.pending),
            "limit": int(message.limit),
            "retry_after": float(message.retry_after),
        }
        return head + json.dumps(body).encode("utf-8")
    raise ProtocolError(f"cannot encode {type(message).__name__}")


def decode_message(payload: bytes) -> Union[Request, Reply]:
    """Parse a frame payload back into its message dataclass."""
    if len(payload) < _HEADER.size:
        raise ProtocolError(f"frame too short ({len(payload)} bytes)")
    version, opcode = _HEADER.unpack_from(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(expected {PROTOCOL_VERSION})"
        )
    body = payload[_HEADER.size:]
    try:
        if opcode == OP_QUERY:
            (n,) = _U32.unpack_from(body)
            seeds = _read_array(body, _U32.size, n, WIRE_SEED_DTYPE)
            offset = _U32.size + n * WIRE_SEED_DTYPE.itemsize
            trace, offset = _decode_trace(body, offset)
            deadline = _decode_deadline(body, offset)
            return QueryRequest(seeds=seeds, trace=trace, deadline_ms=deadline)
        if opcode == OP_TOPK:
            n, k, exclude = _TOPK_HEAD.unpack_from(body)
            seeds = _read_array(body, _TOPK_HEAD.size, n, WIRE_SEED_DTYPE)
            offset = _TOPK_HEAD.size + n * WIRE_SEED_DTYPE.itemsize
            trace, offset = _decode_trace(body, offset)
            deadline = _decode_deadline(body, offset)
            return TopKRequest(
                seeds=seeds, k=int(k), exclude_seed=bool(exclude),
                trace=trace, deadline_ms=deadline,
            )
        if opcode == OP_STATS:
            return StatsRequest()
        if opcode == OP_METRICS:
            return MetricsRequest()
        if opcode == REPLY_DENSE:
            (rows,) = _U32.unpack_from(body)
            (cols,) = _U64.unpack_from(body, _U32.size)
            flat = _read_array(
                body, _U32.size + _U64.size, rows * cols, WIRE_SCORE_DTYPE
            )
            offset = _U32.size + _U64.size + rows * cols * WIRE_SCORE_DTYPE.itemsize
            records, offset = _decode_trace_records(body, offset)
            degraded, bound = _decode_degraded(body, offset)
            return DenseReply(
                scores=flat.reshape(rows, cols), trace_records=records,
                degraded=degraded, error_bound=bound,
            )
        if opcode == REPLY_TOPK:
            (n,) = _U32.unpack_from(body)
            offset = _U32.size
            pairs: List[np.ndarray] = []
            for _ in range(n):
                (n_pairs,) = _U32.unpack_from(body, offset)
                offset += _U32.size
                packed = _read_array(body, offset, n_pairs, WIRE_PAIR_DTYPE)
                offset += n_pairs * WIRE_PAIR_DTYPE.itemsize
                pairs.append(packed)
            records, offset = _decode_trace_records(body, offset)
            degraded, bound = _decode_degraded(body, offset)
            return TopKReply(
                pairs=pairs, trace_records=records,
                degraded=degraded, error_bound=bound,
            )
        if opcode == REPLY_STATS:
            return StatsReply(stats=_json_object(body))
        if opcode == REPLY_ERROR:
            return ErrorReply(message=body.decode("utf-8", errors="replace"))
        if opcode == REPLY_OVERLOADED:
            info = _json_object(body)
            return OverloadedReply(
                pending=int(info.get("pending", 0)),
                limit=int(info.get("limit", 0)),
                retry_after=float(info.get("retry_after", 0.05)),
            )
    except ProtocolError:
        raise
    except (struct.error, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed frame body for opcode {opcode}: {exc}") from exc
    raise ProtocolError(f"unknown opcode {opcode}")


def _json_object(body: bytes) -> Dict[str, Any]:
    """A JSON object body (stats and overloaded replies)."""
    value = json.loads(body.decode("utf-8"))
    if not isinstance(value, dict):
        raise ProtocolError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _decode_trace(
    body: bytes, offset: int
) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """The optional trace trailer; absent (body ends) means untraced.

    Returns ``(trace, end_offset)`` so later trailers know where they
    start.
    """
    if offset >= len(body):
        return (), offset
    (n_ctx,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    end = offset + n_ctx * _TRACE_CTX.size
    if end > len(body):
        raise ProtocolError(
            f"truncated trace trailer: need {end} body bytes, have {len(body)}"
        )
    trace = tuple(
        _TRACE_CTX.unpack_from(body, offset + i * _TRACE_CTX.size)
        for i in range(n_ctx)
    )
    return trace, end


def _decode_trace_records(
    body: bytes, offset: int
) -> Tuple[Tuple[Dict[str, Any], ...], int]:
    """The optional span-record trailer on replies; absent means none.

    Returns ``(records, end_offset)`` so later trailers know where they
    start.
    """
    if offset >= len(body):
        return (), offset
    (blob_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    if offset + blob_len > len(body):
        raise ProtocolError(
            f"truncated trace-record trailer: need {offset + blob_len} body "
            f"bytes, have {len(body)}"
        )
    records = json.loads(body[offset:offset + blob_len].decode("utf-8"))
    if not isinstance(records, list):
        raise ProtocolError("trace-record trailer must be a JSON list")
    return tuple(records), offset + blob_len


def _decode_deadline(body: bytes, offset: int) -> Optional[float]:
    """The optional deadline trailer on requests; absent means no budget."""
    if offset >= len(body):
        return None
    if offset + _DEADLINE.size > len(body):
        raise ProtocolError(
            f"truncated deadline trailer: need {offset + _DEADLINE.size} body "
            f"bytes, have {len(body)}"
        )
    (deadline_ms,) = _DEADLINE.unpack_from(body, offset)
    return float(deadline_ms)


def _decode_degraded(body: bytes, offset: int) -> Tuple[bool, float]:
    """The optional degraded trailer on replies; absent means exact."""
    if offset >= len(body):
        return False, 0.0
    if offset + _DEGRADED.size > len(body):
        raise ProtocolError(
            f"truncated degraded trailer: need {offset + _DEGRADED.size} body "
            f"bytes, have {len(body)}"
        )
    flag, bound = _DEGRADED.unpack_from(body, offset)
    return bool(flag), float(bound)


def _read_array(body: bytes, offset: int, count: int, dtype: np.dtype) -> np.ndarray:
    end = offset + count * dtype.itemsize
    if end > len(body):
        raise ProtocolError(
            f"truncated frame: need {end} body bytes, have {len(body)}"
        )
    # .copy() detaches the array from the receive buffer so the frame's
    # bytes object can be released immediately.
    return np.frombuffer(body, dtype=dtype, count=count, offset=offset).copy()


# ----------------------------------------------------------------------
# Frame transport — asyncio streams
# ----------------------------------------------------------------------
def pack_frame(payload: bytes) -> bytes:
    """Prefix a payload with its little-endian u32 length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(payload)) + payload


def _corrupt_payload(payload: bytes) -> bytes:
    # Flip the version byte: deterministic, and guaranteed to surface as
    # a ProtocolError at the peer instead of a silent score bit-flip.
    return bytes([payload[0] ^ 0xFF]) + payload[1:]


async def write_message(
    writer: asyncio.StreamWriter,
    message: Union[Request, Reply],
    *,
    endpoint: Optional[str] = None,
) -> None:
    """Encode, frame and flush one message on an asyncio stream.

    ``endpoint`` labels the link for network fault injection; the label
    is matched against :class:`repro.faults.ConnectionDrop` /
    :class:`~repro.faults.SlowLink` / :class:`~repro.faults.FrameCorrupt`
    specs of the installed plan (no plan → zero overhead).
    """
    actions = faults.wire_actions(endpoint) if endpoint is not None else None
    payload = encode_message(message)
    if actions is not None:
        if actions.delay:
            await asyncio.sleep(actions.delay)
        if actions.drop:
            raise ConnectionResetError(
                f"fault injection: connection to {endpoint!r} dropped"
            )
        if actions.corrupt:
            payload = _corrupt_payload(payload)
    writer.write(pack_frame(payload))
    await writer.drain()


async def read_message(
    reader: asyncio.StreamReader,
    *,
    timeout: Optional[float] = None,
    endpoint: Optional[str] = None,
) -> Optional[Union[Request, Reply]]:
    """Read one framed message; ``None`` on a clean EOF between frames.

    ``timeout`` bounds *every* partial read — a peer that accepts the
    connection but trickles (or never finishes) a frame cannot hold the
    reader past the budget; expiry raises :class:`ProtocolError`.
    """
    actions = faults.wire_actions(endpoint) if endpoint is not None else None
    if actions is not None:
        if actions.delay:
            await asyncio.sleep(actions.delay)
        if actions.drop:
            raise ConnectionResetError(
                f"fault injection: connection to {endpoint!r} dropped"
            )
    deadline = None if timeout is None else time.monotonic() + timeout

    async def _readexactly(count: int, what: str) -> bytes:
        if deadline is None:
            return await reader.readexactly(count)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ProtocolError(f"read timed out {what}")
        try:
            return await asyncio.wait_for(reader.readexactly(count), remaining)
        except asyncio.TimeoutError as exc:
            raise ProtocolError(f"read timed out {what}") from exc

    try:
        prefix = await _readexactly(_LEN.size, "waiting for a frame")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    try:
        payload = await _readexactly(length, "mid-frame")
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_message(payload)
