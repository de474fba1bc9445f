"""Tests for distributed request tracing (repro.tracing).

Covers the tracer's sinks in isolation (ring, trace log, slow-query log,
sampling), trace-context propagation across the two process boundaries —
the worker-pool spawn boundary and the gateway's wire protocol — and the
``repro top`` fleet rendering.
"""

import asyncio
import json
import os

import pytest

from repro import BePI, InvalidParameterError, telemetry, tracing
from repro.gateway import Gateway, GatewayServer, PoolServer, RemoteBackend
from repro.persistence import save_artifacts
from repro.serve import WorkerPool
from repro.tracing import TraceContext, Tracer


@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


@pytest.fixture
def tracer():
    """A fully-sampled tracer installed as the global one, restored after."""
    fresh = Tracer(sample_rate=1.0)
    previous = tracing.set_tracer(fresh)
    try:
        yield fresh
    finally:
        tracing.set_tracer(previous)


class TestIds:
    def test_mint_id_is_nonzero_and_fits_63_bits(self):
        for _ in range(100):
            value = tracing.mint_id()
            assert 0 < value < 2**63

    def test_format_parse_round_trip(self):
        value = tracing.mint_id()
        text = tracing.format_id(value)
        assert len(text) == 16
        assert tracing.parse_id(text) == value

    def test_format_none(self):
        assert tracing.format_id(None) is None


class TestSampling:
    def test_zero_rate_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start_trace() is None for _ in range(50))

    def test_full_rate_always_samples(self):
        tracer = Tracer(sample_rate=1.0)
        ids = [tracer.start_trace() for _ in range(10)]
        assert all(ids)
        assert tracer.stats()["traces_started"] == 10

    def test_invalid_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            Tracer(sample_rate=1.5)
        with pytest.raises(InvalidParameterError):
            Tracer(sample_rate=-0.1)


def _record(trace_id, name="work", parent=None, start=0.0, duration=0.01):
    return tracing.make_record(
        name, trace_id, tracing.mint_id(), parent, start, duration
    )


class TestTracerSinks:
    def test_ring_bounds_and_drop_count(self):
        tracer = Tracer(sample_rate=1.0, ring_capacity=4)
        trace_id = tracing.mint_id()
        for _ in range(6):
            tracer.record(_record(trace_id, parent=1))
        assert len(tracer.records()) == 4
        assert tracer.stats()["ring_dropped"] == 2

    def test_pop_trace_records_removes_only_matching(self):
        tracer = Tracer(sample_rate=1.0)
        keep, take = tracing.mint_id(), tracing.mint_id()
        tracer.record(_record(keep, parent=1))
        tracer.record(_record(take, parent=1))
        tracer.record(_record(take, parent=1))
        popped = tracer.pop_trace_records([take])
        assert len(popped) == 2
        assert {r["trace_id"] for r in popped} == {tracing.format_id(take)}
        remaining = tracer.records()
        assert len(remaining) == 1
        assert remaining[0]["trace_id"] == tracing.format_id(keep)

    def test_slow_query_log_gathers_whole_trace(self):
        tracer = Tracer(sample_rate=1.0, slow_threshold=0.005)
        trace_id = tracing.mint_id()
        tracer.record(_record(trace_id, "child", parent=7, duration=0.004))
        # Fast root: below the threshold, not logged.
        tracer.record(_record(trace_id, "fast-root", duration=0.004))
        assert tracer.slow_queries() == []
        tracer.record(_record(trace_id, "slow-root", duration=0.02))
        entries = tracer.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["name"] == "slow-root"
        assert entry["threshold"] == 0.005
        names = [span["name"] for span in entry["spans"]]
        assert "child" in names and "slow-root" in names

    def test_absorb_counts_separately(self):
        tracer = Tracer(sample_rate=1.0)
        trace_id = tracing.mint_id()
        tracer.absorb([_record(trace_id, parent=1), _record(trace_id, parent=1)])
        stats = tracer.stats()
        assert stats["spans_absorbed"] == 2
        assert len(tracer.records()) == 2

    def test_flush_log_writes_json_lines_atomically(self, tmp_path):
        log = tmp_path / "deep" / "trace.jsonl"
        tracer = Tracer(sample_rate=1.0, log_path=log)
        trace_id = tracing.mint_id()
        tracer.record(_record(trace_id, "a", parent=1))
        tracer.record(_record(trace_id, "b"))
        written = tracer.flush_log()
        assert written == log
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        # No tmp litter left next to the target.
        assert list(log.parent.glob("*.tmp")) == []

    def test_export_to_registry(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.record(_record(tracing.mint_id(), parent=1))
        registry = telemetry.MetricsRegistry()
        tracer.export_to(registry)
        assert registry.get(telemetry.TRACE_SPANS).value == 1
        assert registry.get(telemetry.TRACE_RING_SPANS).value == 1


class TestAmbientContexts:
    def test_activate_scopes_contexts(self):
        ctx = TraceContext(tracing.mint_id(), tracing.mint_id())
        assert tracing.current_contexts() == ()
        with tracing.activate([ctx]):
            assert tracing.current_contexts() == (ctx,)
            assert tracing.current_trace_hex() == tracing.format_id(ctx.trace_id)
        assert tracing.current_contexts() == ()
        assert tracing.current_trace_hex() is None

    def test_capture_redirects_records(self, tracer):
        ctx = TraceContext(tracing.mint_id(), tracing.mint_id())
        with tracing.capture() as captured:
            tracing.emit(_record(ctx.trace_id, "inside", parent=1))
        assert [r["name"] for r in captured] == ["inside"]
        assert tracer.records() == []  # nothing leaked to the tracer

    def test_traced_span_emits_one_record_per_context(self, tracer):
        contexts = [
            TraceContext(tracing.mint_id(), tracing.mint_id()),
            TraceContext(tracing.mint_id(), tracing.mint_id()),
        ]
        registry = telemetry.MetricsRegistry()
        with tracing.activate(contexts):
            with registry.span("multi.origin"):
                pass
        records = tracer.records()
        assert len(records) == 2
        assert {r["trace_id"] for r in records} == {
            tracing.format_id(ctx.trace_id) for ctx in contexts
        }
        # Same span, shared span id across both traces.
        assert len({r["span_id"] for r in records}) == 1

    def test_trace_block_emits_root_and_children(self, tracer):
        registry = telemetry.MetricsRegistry()
        with tracing.trace("batch", tags={"n": 3}) as trace_id:
            assert trace_id is not None
            with registry.span("query.partition"):
                pass
        records = tracer.trace(trace_id)
        assert [r["name"] for r in records] == ["batch", "query.partition"]
        root, child = records
        assert root["parent_id"] is None
        assert root["tags"] == {"n": 3}
        assert child["parent_id"] == root["span_id"]

    def test_trace_block_respects_sampling_off(self):
        previous = tracing.set_tracer(Tracer(sample_rate=0.0))
        try:
            with tracing.trace("batch") as trace_id:
                assert trace_id is None
                assert tracing.current_contexts() == ()
            assert tracing.get_tracer().records() == []
        finally:
            tracing.set_tracer(previous)


class TestSpawnBoundaryPropagation:
    def test_worker_engine_spans_carry_callers_trace(self, artifact_dir, tracer):
        trace_id = tracing.mint_id()
        root = tracing.mint_id()
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            pool.query_many([1, 2], trace=[(trace_id, root)])
        records = tracer.records()
        assert records, "worker-side spans never arrived"
        assert {r["trace_id"] for r in records} == {tracing.format_id(trace_id)}
        names = {r["name"] for r in records}
        assert "serve.queue_wait" in names
        assert "serve.batch" in names
        assert "query.partition" in names  # Algorithm-4 phase span
        # Spans were recorded in the worker process, not this one.
        assert {r["pid"] for r in records} - {os.getpid()}
        queue_wait = next(r for r in records if r["name"] == "serve.queue_wait")
        assert queue_wait["parent_id"] == tracing.format_id(root)
        assert queue_wait["duration"] >= 0.0

    def test_untraced_queries_ship_no_records(self, artifact_dir, tracer):
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            pool.query_many([1])
        assert tracer.records() == []


class TestForkedWorkerIds:
    def test_workers_of_one_and_of_successive_pools_mint_distinct_ids(
        self, artifact_dir, tracer
    ):
        """Workers are forked from one server that has imported
        ``repro.tracing``: each must reseed its id generator, or two
        workers (and the workers of the next pool) mint the same ids."""
        for _ in range(2):
            with WorkerPool(artifact_dir, n_workers=2, timeout=120) as pool:
                for worker in range(2):
                    pool.query_many(
                        [1], worker=worker,
                        trace=[(tracing.mint_id(), tracing.mint_id())],
                    )
        records = tracer.records()
        assert len({r["pid"] for r in records}) == 4
        span_ids = [r["span_id"] for r in records]
        assert len(span_ids) == len(set(span_ids))


class TestGatewayTracePropagation:
    """Real sockets: gateway -> PoolServer -> worker, one trace end to end."""

    def test_single_topk_query_produces_one_cross_process_trace(
        self, artifact_dir, tracer
    ):
        async def scenario():
            with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
                async with PoolServer(pool) as server:
                    backend = RemoteBackend(*server.address)
                    async with Gateway(
                        [backend], health_interval=0, tracer=tracer,
                    ) as gateway:
                        await gateway.query_topk(3, 5)

        asyncio.run(scenario())
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"
        spans = tracer.trace(trace_ids[0])
        assert len(spans) >= 5
        names = {span["name"] for span in spans}
        assert "gateway.request" in names
        assert "gateway.coalesce_wait" in names
        assert "gateway.backend" in names
        assert "serve.queue_wait" in names
        assert names & {"query.partition", "query.h11_solves", "query.schur"}
        assert len({span["pid"] for span in spans}) >= 2
        root = next(s for s in spans if s["parent_id"] is None)
        assert root["name"] == "gateway.request"

    def test_coalesced_batch_fans_spans_to_every_origin_trace(
        self, artifact_dir, tracer
    ):
        async def scenario():
            with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
                async with PoolServer(pool) as server:
                    backend = RemoteBackend(*server.address)
                    async with Gateway(
                        [backend], health_interval=0, tracer=tracer,
                    ) as gateway:
                        await asyncio.gather(
                            gateway.query(1), gateway.query(2)
                        )

        asyncio.run(scenario())
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 2
        for trace_id in trace_ids:
            names = {span["name"] for span in tracer.trace(trace_id)}
            # Each origin's trace holds its own gateway spans AND child
            # spans from the (shared) worker-side batch.
            assert "gateway.request" in names
            assert "gateway.coalesce_wait" in names
            assert "serve.batch" in names

    def test_gateway_server_answers_op_metrics_with_fleet_snapshot(
        self, artifact_dir, tracer
    ):
        from repro import wire

        async def scenario():
            with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
                async with PoolServer(pool) as server:
                    backend = RemoteBackend(*server.address)
                    async with Gateway(
                        [backend], health_interval=0, tracer=tracer,
                    ) as gateway:
                        async with GatewayServer(gateway) as front:
                            await gateway.query_topk(2, 4)
                            reader, writer = await asyncio.open_connection(
                                *front.address
                            )
                            try:
                                await wire.write_message(
                                    writer, wire.MetricsRequest()
                                )
                                reply = await wire.read_message(reader)
                            finally:
                                writer.close()
                            return reply

        reply = asyncio.run(scenario())
        from repro import wire

        assert isinstance(reply, wire.StatsReply)
        snapshot = reply.stats
        assert snapshot["schema"] == "repro-fleet/v1"
        assert snapshot["trace"]["traces_started"] >= 1
        merged = snapshot["merged"]
        assert telemetry.GATEWAY_REQUESTS in merged["counters"]


class TestFleetRendering:
    def _fleet_snapshot(self, tracer, artifact_dir):
        async def scenario():
            with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
                async with PoolServer(pool) as server:
                    backend = RemoteBackend(*server.address)
                    async with Gateway(
                        [backend], health_interval=0.1, tracer=tracer,
                    ) as gateway:
                        for seed in range(4):
                            await gateway.query_topk(seed, 5)
                        await asyncio.sleep(0.3)  # monitor polls metrics
                        return gateway.fleet_snapshot()

        return asyncio.run(scenario())

    def test_render_fleet_shows_backends_and_traces(
        self, artifact_dir, tracer
    ):
        from repro.cli import render_fleet

        snapshot = self._fleet_snapshot(tracer, artifact_dir)
        page = render_fleet(snapshot)
        assert "repro fleet" in page
        assert "1 backend(s)" in page
        assert "requests 4" in page
        assert "traces 4" in page

    def test_cmd_top_once_renders_a_json_snapshot(
        self, artifact_dir, tracer, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        snapshot = self._fleet_snapshot(tracer, artifact_dir)
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(snapshot))
        assert cli_main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro fleet" in out

    def test_render_fleet_accepts_bare_registry_snapshot(self):
        from repro.cli import render_fleet

        registry = telemetry.MetricsRegistry()
        registry.counter(telemetry.QUERIES_TOTAL).inc(3)
        page = render_fleet(registry.snapshot())
        assert "repro fleet" in page
        assert "(self)" in page
