"""Tests for the length-prefixed binary wire protocol."""

import asyncio
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, wire
from repro.faults import ConnectionDrop, FaultPlan, FrameCorrupt, SlowLink


def _roundtrip(message):
    return wire.decode_message(wire.encode_message(message))


def _over_socketpair(scenario):
    """Run ``scenario(sender, reader)`` on asyncio streams over a socketpair.

    ``sender`` is the writer of one end, ``reader`` the reader of the
    other; both ends are closed afterwards.  Returns the scenario's result.
    """

    async def main():
        left, right = socket.socketpair()
        _, sender = await asyncio.open_connection(sock=left)
        reader, receiver = await asyncio.open_connection(sock=right)
        try:
            return await scenario(sender, reader)
        finally:
            for writer in (sender, receiver):
                writer.close()

    return asyncio.run(main())


class TestRoundTrips:
    def test_query_request(self):
        seeds = np.array([0, 7, 123456789], dtype=np.int64)
        decoded = _roundtrip(wire.QueryRequest(seeds=seeds))
        assert isinstance(decoded, wire.QueryRequest)
        assert np.array_equal(decoded.seeds, seeds)
        assert decoded.seeds.dtype == wire.WIRE_SEED_DTYPE

    def test_topk_request(self):
        seeds = np.array([3, 1], dtype=np.int64)
        decoded = _roundtrip(
            wire.TopKRequest(seeds=seeds, k=17, exclude_seed=False)
        )
        assert isinstance(decoded, wire.TopKRequest)
        assert np.array_equal(decoded.seeds, seeds)
        assert decoded.k == 17
        assert decoded.exclude_seed is False

    def test_stats_request(self):
        assert isinstance(_roundtrip(wire.StatsRequest()), wire.StatsRequest)

    def test_dense_reply_bit_identical(self):
        rng = np.random.default_rng(7)
        scores = rng.random((3, 41))
        decoded = _roundtrip(wire.DenseReply(scores=scores))
        assert isinstance(decoded, wire.DenseReply)
        # Bit-identical through the frame: scores are the acceptance
        # currency of the whole serve tier.
        assert np.array_equal(decoded.scores, scores)
        assert decoded.scores.shape == (3, 41)

    def test_dense_reply_empty(self):
        decoded = _roundtrip(
            wire.DenseReply(scores=np.empty((0, 0), dtype=np.float64))
        )
        assert decoded.scores.shape == (0, 0)

    def test_dense_reply_rejects_1d(self):
        with pytest.raises(wire.ProtocolError, match="2-D"):
            wire.encode_message(wire.DenseReply(scores=np.zeros(4)))

    def test_topk_reply_variable_lengths(self):
        # Per-seed pair counts may differ (the documented k clamp).
        first = np.array(
            [(4, 0.25), (1, 0.125)], dtype=wire.WIRE_PAIR_DTYPE
        )
        second = np.empty(0, dtype=wire.WIRE_PAIR_DTYPE)
        decoded = _roundtrip(wire.TopKReply(pairs=[first, second]))
        assert isinstance(decoded, wire.TopKReply)
        assert len(decoded.pairs) == 2
        assert np.array_equal(decoded.pairs[0], first)
        assert decoded.pairs[1].size == 0

    def test_topk_reply_accepts_native_pair_dtype(self):
        from repro.core.topk import PAIR_DTYPE

        native = np.array([(9, 0.5)], dtype=PAIR_DTYPE)
        decoded = _roundtrip(wire.TopKReply(pairs=[native]))
        assert decoded.pairs[0]["id"][0] == 9
        assert decoded.pairs[0]["score"][0] == 0.5

    def test_stats_reply(self):
        stats = {"queue_depth": 3, "generation": "gen-000002", "nested": {"a": 1}}
        decoded = _roundtrip(wire.StatsReply(stats=stats))
        assert decoded.stats == stats

    def test_error_reply(self):
        decoded = _roundtrip(wire.ErrorReply(message="seed 10**9 out of range"))
        assert decoded.message == "seed 10**9 out of range"

    def test_overloaded_reply(self):
        decoded = _roundtrip(
            wire.OverloadedReply(pending=12, limit=8, retry_after=0.25)
        )
        assert (decoded.pending, decoded.limit, decoded.retry_after) == (12, 8, 0.25)


class TestMalformedFrames:
    def test_empty_payload(self):
        with pytest.raises(wire.ProtocolError, match="too short"):
            wire.decode_message(b"")

    def test_wrong_version(self):
        payload = wire.encode_message(wire.StatsRequest())
        bad = bytes([wire.PROTOCOL_VERSION + 1]) + payload[1:]
        with pytest.raises(wire.ProtocolError, match="version"):
            wire.decode_message(bad)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_protocol_versions_rejected(self, version):
        # Every peer ships from this repository: a v1 or v2 frame is a
        # stale peer, not a dialect to parse.
        seeds = np.array([5, 9], dtype=np.int64)
        body = struct.pack("<I", 2) + seeds.astype("<i8").tobytes()
        frame = bytes([version, wire.OP_QUERY]) + body
        with pytest.raises(wire.ProtocolError, match=f"version {version}"):
            wire.decode_message(frame)

    def test_unknown_opcode(self):
        bad = struct.pack("<BB", wire.PROTOCOL_VERSION, 250)
        with pytest.raises(wire.ProtocolError, match="unknown opcode"):
            wire.decode_message(bad)

    def test_truncated_seed_array(self):
        payload = wire.encode_message(
            wire.QueryRequest(seeds=np.arange(4, dtype=np.int64))
        )
        with pytest.raises(wire.ProtocolError, match="truncated"):
            wire.decode_message(payload[:-8])

    def test_length_bomb_rejected(self):
        # A corrupt count must not make the reader allocate gigabytes.
        bad = (
            struct.pack("<BB", wire.PROTOCOL_VERSION, wire.OP_QUERY)
            + struct.pack("<I", 2**31)
        )
        with pytest.raises(wire.ProtocolError):
            wire.decode_message(bad)

    def test_oversized_frame_rejected_by_packer(self):
        with pytest.raises(wire.ProtocolError, match="MAX_FRAME_BYTES"):
            wire.pack_frame(b"x" * (wire.MAX_FRAME_BYTES + 1))


class TestBlockingTransport:
    """Frames over a connected socketpair, driven from synchronous test
    code through the one transport, ``write_message``/``read_message``."""

    def test_send_recv_over_socketpair(self):
        seeds = np.array([5, 6], dtype=np.int64)

        async def scenario(sender, reader):
            await wire.write_message(sender, wire.QueryRequest(seeds=seeds))
            await wire.write_message(sender, wire.StatsRequest())
            first = await wire.read_message(reader)
            second = await wire.read_message(reader)
            # Clean close between frames reads as None, not an error.
            sender.close()
            return first, second, await wire.read_message(reader)

        first, second, eof = _over_socketpair(scenario)
        assert np.array_equal(first.seeds, seeds)
        assert isinstance(second, wire.StatsRequest)
        assert eof is None

    def test_mid_frame_close_is_a_protocol_error(self):
        async def scenario(sender, reader):
            frame = wire.pack_frame(
                wire.encode_message(wire.StatsRequest()) + b"padding"
            )
            sender.write(frame[:5])  # length prefix + 1 payload byte
            await sender.drain()
            sender.close()
            with pytest.raises(wire.ProtocolError, match="mid-frame"):
                await wire.read_message(reader)

        _over_socketpair(scenario)

    def test_recv_rejects_length_prefix_bomb(self):
        async def scenario(sender, reader):
            sender.write(struct.pack("<I", wire.MAX_FRAME_BYTES + 1))
            await sender.drain()
            with pytest.raises(wire.ProtocolError, match="MAX_FRAME_BYTES"):
                await wire.read_message(reader)

        _over_socketpair(scenario)


class TestAsyncTransport:
    def test_stream_roundtrip_and_clean_eof(self):
        async def scenario():
            server_side = {}

            async def handler(reader, writer):
                server_side["request"] = await wire.read_message(reader)
                await wire.write_message(
                    writer, wire.DenseReply(scores=np.ones((1, 3)))
                )
                server_side["eof"] = await wire.read_message(reader)
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                reader, writer = await asyncio.open_connection(host, port)
                await wire.write_message(
                    writer, wire.QueryRequest(seeds=np.array([2], dtype=np.int64))
                )
                reply = await wire.read_message(reader)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
            assert np.array_equal(
                server_side["request"].seeds, np.array([2], dtype=np.int64)
            )
            assert server_side["eof"] is None
            assert np.array_equal(reply.scores, np.ones((1, 3)))

        asyncio.run(scenario())


class TestTraceTrailers:
    """Optional trace contexts on requests and span records on replies."""

    def test_query_request_trace_round_trip(self):
        trace = ((2**62 + 5, 7), (11, 2**50))
        decoded = _roundtrip(
            wire.QueryRequest(seeds=np.array([1, 2], dtype=np.int64), trace=trace)
        )
        assert decoded.trace == trace

    def test_topk_request_trace_round_trip(self):
        trace = ((123456789, 987654321),)
        decoded = _roundtrip(
            wire.TopKRequest(seeds=np.array([4], dtype=np.int64), k=3, trace=trace)
        )
        assert decoded.trace == trace
        assert decoded.k == 3

    def test_untraced_request_decodes_with_empty_trace(self):
        decoded = _roundtrip(wire.QueryRequest(seeds=np.array([1], dtype=np.int64)))
        assert decoded.trace == ()

    def test_dense_reply_trace_records_round_trip(self):
        records = (
            {"name": "serve.batch", "trace_id": "00ab", "duration": 0.5},
            {"name": "serve.queue_wait", "trace_id": "00ab", "duration": 0.1},
        )
        decoded = _roundtrip(
            wire.DenseReply(scores=np.ones((1, 2)), trace_records=records)
        )
        assert decoded.trace_records == records

    def test_topk_reply_trace_records_round_trip(self):
        from repro.core.topk import PAIR_DTYPE

        pairs = [np.array([(3, 0.5)], dtype=PAIR_DTYPE)]
        records = ({"name": "query.schur", "pid": 42},)
        decoded = _roundtrip(wire.TopKReply(pairs=pairs, trace_records=records))
        assert decoded.trace_records == records

    def test_metrics_request_round_trip(self):
        decoded = _roundtrip(wire.MetricsRequest())
        assert isinstance(decoded, wire.MetricsRequest)

    def test_truncated_trace_trailer_rejected(self):
        encoded = wire.encode_message(
            wire.QueryRequest(
                seeds=np.array([1], dtype=np.int64), trace=((10, 20),)
            )
        )
        with pytest.raises(wire.ProtocolError, match="trace"):
            wire.decode_message(encoded[:-4])


class TestDeadlineTrailers:
    """Optional deadline budget on requests, degraded flag + error bound
    on replies."""

    def test_query_request_deadline_round_trip(self):
        decoded = _roundtrip(
            wire.QueryRequest(
                seeds=np.array([1, 2], dtype=np.int64), deadline_ms=123.5
            )
        )
        assert decoded.deadline_ms == pytest.approx(123.5)

    def test_topk_request_deadline_round_trip(self):
        decoded = _roundtrip(
            wire.TopKRequest(
                seeds=np.array([4], dtype=np.int64), k=3, deadline_ms=0.25
            )
        )
        assert decoded.deadline_ms == pytest.approx(0.25)
        assert decoded.k == 3

    def test_deadline_composes_with_trace_trailer(self):
        trace = ((2**62 + 5, 7),)
        decoded = _roundtrip(
            wire.QueryRequest(
                seeds=np.array([1], dtype=np.int64),
                trace=trace,
                deadline_ms=50.0,
            )
        )
        assert decoded.trace == trace
        assert decoded.deadline_ms == pytest.approx(50.0)

    def test_unbounded_request_decodes_with_none(self):
        decoded = _roundtrip(
            wire.QueryRequest(seeds=np.array([1], dtype=np.int64))
        )
        assert decoded.deadline_ms is None

    def test_dense_reply_degraded_round_trip(self):
        decoded = _roundtrip(
            wire.DenseReply(
                scores=np.ones((1, 2)), degraded=True, error_bound=0.125
            )
        )
        assert decoded.degraded is True
        assert decoded.error_bound == pytest.approx(0.125)

    def test_topk_reply_degraded_round_trip(self):
        from repro.core.topk import PAIR_DTYPE

        pairs = [np.array([(3, 0.5)], dtype=PAIR_DTYPE)]
        decoded = _roundtrip(
            wire.TopKReply(pairs=pairs, degraded=True, error_bound=0.25)
        )
        assert decoded.degraded is True
        assert decoded.error_bound == pytest.approx(0.25)

    def test_exact_reply_decodes_undegraded(self):
        decoded = _roundtrip(wire.DenseReply(scores=np.ones((1, 2))))
        assert decoded.degraded is False
        assert decoded.error_bound == 0.0

    def test_degraded_composes_with_trace_records(self):
        records = ({"name": "serve.batch", "duration": 0.5},)
        decoded = _roundtrip(
            wire.DenseReply(
                scores=np.ones((1, 2)),
                trace_records=records,
                degraded=True,
                error_bound=0.5,
            )
        )
        assert decoded.trace_records == records
        assert decoded.degraded is True

    def test_truncated_deadline_trailer_rejected(self):
        encoded = wire.encode_message(
            wire.QueryRequest(
                seeds=np.array([1], dtype=np.int64), deadline_ms=99.0
            )
        )
        with pytest.raises(wire.ProtocolError, match="deadline"):
            wire.decode_message(encoded[:-4])

    def test_truncated_degraded_trailer_rejected(self):
        encoded = wire.encode_message(
            wire.DenseReply(
                scores=np.ones((1, 1)), degraded=True, error_bound=0.5
            )
        )
        with pytest.raises(wire.ProtocolError, match="degraded"):
            wire.decode_message(encoded[:-4])


class TestPartialFrameTimeouts:
    """A peer that accepts but never completes a frame must not hang the
    reader forever: ``timeout`` bounds every partial read."""

    def test_read_times_out_mid_frame(self):
        async def scenario(sender, reader):
            frame = wire.pack_frame(
                wire.encode_message(wire.StatsRequest()) + b"padding"
            )
            sender.write(frame[:5])  # length prefix + 1 byte, then silence
            await sender.drain()
            with pytest.raises(wire.ProtocolError, match="timed out"):
                await wire.read_message(reader, timeout=0.2)

        _over_socketpair(scenario)

    def test_read_times_out_on_missing_length_prefix(self):
        async def scenario(sender, reader):
            sender.write(b"\x01")  # 1 of 4 length-prefix bytes
            await sender.drain()
            with pytest.raises(wire.ProtocolError, match="timed out"):
                await wire.read_message(reader, timeout=0.2)

        _over_socketpair(scenario)

    def test_async_read_times_out_mid_frame(self):
        async def scenario():
            handler_done = asyncio.Event()

            async def handler(reader, writer):
                frame = wire.pack_frame(
                    wire.encode_message(wire.StatsRequest()) + b"pad"
                )
                writer.write(frame[:5])
                await writer.drain()
                try:
                    await reader.read()  # never completes the frame
                finally:
                    writer.close()
                    await writer.wait_closed()
                    handler_done.set()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                reader, writer = await asyncio.open_connection(host, port)
                with pytest.raises(wire.ProtocolError, match="timed out"):
                    await wire.read_message(reader, timeout=0.2)
                writer.close()
                await writer.wait_closed()
                await asyncio.wait_for(handler_done.wait(), timeout=5.0)

        asyncio.run(scenario())

    def test_async_complete_frame_unaffected_by_timeout(self):
        async def scenario():
            async def handler(reader, writer):
                request = await wire.read_message(reader, timeout=1.0)
                await wire.write_message(
                    writer, wire.DenseReply(scores=np.ones((1, 2)))
                )
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                reader, writer = await asyncio.open_connection(host, port)
                await wire.write_message(
                    writer,
                    wire.QueryRequest(seeds=np.array([1], dtype=np.int64)),
                )
                reply = await wire.read_message(reader, timeout=1.0)
                writer.close()
                return reply

        reply = asyncio.run(scenario())
        assert np.array_equal(reply.scores, np.ones((1, 2)))


class TestWireFaultInjection:
    """Network fault specs act on endpoint-tagged transport calls."""

    def setup_method(self):
        faults.clear()

    def teardown_method(self):
        faults.clear()

    def test_connection_drop_raises_reset(self):
        async def scenario(sender, reader):
            with faults.active(FaultPlan(
                connection_drops=(ConnectionDrop(endpoint="b1", count=1),)
            )):
                with pytest.raises(ConnectionResetError):
                    await wire.write_message(
                        sender, wire.StatsRequest(), endpoint="b1"
                    )
                # Budget spent: the next send goes through.
                await wire.write_message(
                    sender, wire.StatsRequest(), endpoint="b1"
                )
                return await wire.read_message(reader)

        assert isinstance(_over_socketpair(scenario), wire.StatsRequest)

    def test_drop_only_matches_its_endpoint(self):
        async def scenario(sender, reader):
            with faults.active(FaultPlan(
                connection_drops=(ConnectionDrop(endpoint="other", count=1),)
            )):
                await wire.write_message(
                    sender, wire.StatsRequest(), endpoint="b1"
                )
                return await wire.read_message(reader)

        assert isinstance(_over_socketpair(scenario), wire.StatsRequest)

    def test_frame_corrupt_breaks_decode_at_the_peer(self):
        async def scenario(sender, reader):
            with faults.active(FaultPlan(
                frame_corrupts=(FrameCorrupt(endpoint="b1", count=1),)
            )):
                await wire.write_message(
                    sender, wire.StatsRequest(), endpoint="b1"
                )
            with pytest.raises(wire.ProtocolError, match="version"):
                await wire.read_message(reader)

        _over_socketpair(scenario)

    def test_slow_link_delays_but_delivers(self):
        async def scenario(sender, reader):
            with faults.active(FaultPlan(
                slow_links=(SlowLink(endpoint="b1", seconds=0.05),)
            )):
                started = time.perf_counter()
                await wire.write_message(
                    sender, wire.StatsRequest(), endpoint="b1"
                )
                elapsed = time.perf_counter() - started
            return elapsed, await wire.read_message(reader)

        elapsed, message = _over_socketpair(scenario)
        assert elapsed >= 0.05
        assert isinstance(message, wire.StatsRequest)

    def test_drop_after_frames_lets_earlier_frames_through(self):
        async def scenario(sender, reader):
            with faults.active(FaultPlan(
                connection_drops=(
                    ConnectionDrop(endpoint="b1", after_frames=2, count=1),
                )
            )):
                for _ in range(2):
                    await wire.write_message(
                        sender, wire.StatsRequest(), endpoint="b1"
                    )
                with pytest.raises(ConnectionResetError):
                    await wire.write_message(
                        sender, wire.StatsRequest(), endpoint="b1"
                    )

        _over_socketpair(scenario)


# Valid payloads of every message type, trailers included: the fuzz
# below truncates and flips their bytes.
_VALID_MESSAGES = [
    wire.QueryRequest(
        seeds=np.array([0, 7, 2**40], dtype=np.int64),
        trace=((1, 2), (3, 4)),
        deadline_ms=12.5,
    ),
    wire.TopKRequest(seeds=np.array([3, 1], dtype=np.int64), k=16, deadline_ms=3.0),
    wire.StatsRequest(),
    wire.MetricsRequest(),
    wire.DenseReply(
        scores=np.arange(6, dtype=np.float64).reshape(2, 3),
        trace_records=({"name": "query", "ms": 1.5},),
        degraded=True,
        error_bound=0.01,
    ),
    wire.TopKReply(
        pairs=[
            np.array([(4, 0.25), (1, 0.125)], dtype=wire.WIRE_PAIR_DTYPE),
            np.empty(0, dtype=wire.WIRE_PAIR_DTYPE),
        ],
        trace_records=({"name": "topk"},),
    ),
    wire.StatsReply(stats={"queue_depth": 3, "nested": {"a": [1, 2]}}),
    wire.ErrorReply(message="seed out of range"),
    wire.OverloadedReply(pending=12, limit=8, retry_after=0.25),
]
_VALID_PAYLOADS = [wire.encode_message(m) for m in _VALID_MESSAGES]


def _decodes_or_refuses(payload: bytes) -> None:
    """``decode_message`` either returns a message or raises ProtocolError."""
    try:
        decoded = wire.decode_message(payload)
    except wire.ProtocolError:
        return
    assert decoded.opcode == payload[1]


class TestDecodeFuzz:
    """No byte string makes ``decode_message`` raise anything but
    :class:`wire.ProtocolError`, and a length prefix above
    ``MAX_FRAME_BYTES`` is refused before its payload is read."""

    @given(payload=st.binary(max_size=256))
    @settings(max_examples=500, deadline=None)
    def test_any_bytes(self, payload):
        _decodes_or_refuses(payload)

    @given(
        opcode=st.sampled_from(sorted({p[1] for p in _VALID_PAYLOADS})),
        body=st.binary(max_size=256),
    )
    @settings(max_examples=500, deadline=None)
    def test_any_body_under_a_known_opcode(self, opcode, body):
        _decodes_or_refuses(bytes([wire.PROTOCOL_VERSION, opcode]) + body)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_truncated_valid_payload(self, data):
        payload = data.draw(st.sampled_from(_VALID_PAYLOADS), label="payload")
        end = data.draw(st.integers(0, len(payload)), label="end")
        _decodes_or_refuses(payload[:end])

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_flipped_byte_of_valid_payload(self, data):
        payload = bytearray(data.draw(st.sampled_from(_VALID_PAYLOADS), label="payload"))
        index = data.draw(st.integers(0, len(payload) - 1), label="index")
        payload[index] ^= data.draw(st.integers(1, 255), label="mask")
        _decodes_or_refuses(bytes(payload))

    @pytest.mark.parametrize(
        "length", [wire.MAX_FRAME_BYTES + 1, 2**32 - 1]
    )
    def test_oversized_length_prefix_refused_before_the_payload(self, length):
        trailing = b"payload bytes the reader must not consume"

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("<I", length) + trailing)
            reader.feed_eof()
            with pytest.raises(wire.ProtocolError, match="exceeds MAX_FRAME_BYTES"):
                await wire.read_message(reader)
            # Only the 4-byte prefix was taken: no read of ``length`` bytes
            # (and so no buffer of that size) was attempted.
            assert await reader.read() == trailing

        asyncio.run(scenario())
