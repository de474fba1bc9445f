"""Tests for the asyncio gateway: coalescing, shedding, sharding, failover."""

import asyncio
import time

import numpy as np
import pytest

from repro import BePI, InvalidParameterError, telemetry
from repro.core.topk import PAIR_DTYPE
from repro.gateway import (
    BackendError,
    CertifiedAnswerer,
    Gateway,
    GatewayServer,
    HashRing,
    LocalBackend,
    Overloaded,
    PoolServer,
    QueryError,
    RemoteBackend,
    _WireServer,
    parse_endpoint,
)
from repro.persistence import save_artifacts
from repro.serve import WorkerPool
from repro import wire

from .conftest import exact_rwr

@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("gw-artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


@pytest.fixture(scope="module")
def pool(artifact_dir):
    with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
        yield pool


class FakeBackend:
    """In-memory backend that records every batched call it answers.

    With a ``gate`` (an :class:`asyncio.Event`), each dense call is first
    recorded in ``held`` and then waits for the gate, so a test can hold a
    batch in flight.  ``fail`` is ``True`` for a transport failure or an
    exception to raise.
    """

    def __init__(self, name="fake", n_cols=4, delay=0.0, fail=False, gate=None):
        self.name = name
        self.n_cols = n_cols
        self.delay = delay
        self.fail = fail
        self.gate = gate
        self.held = []
        self.calls = []
        self.topk_calls = []

    async def query_many(self, seeds, trace=()):
        if self.gate is not None:
            self.held.append(list(seeds))
            await self.gate.wait()
        if isinstance(self.fail, Exception):
            raise self.fail
        if self.fail:
            raise BackendError(f"backend {self.name}: injected failure")
        if self.delay:
            await asyncio.sleep(self.delay)
        self.calls.append(list(seeds))
        # Row content is a function of the seed only, so tests can verify
        # each caller got *their* row back out of a shared batch.
        return np.array(
            [[float(s) + j / 10 for j in range(self.n_cols)] for s in seeds]
        )

    async def query_topk_many(self, seeds, k, exclude_seed, trace=()):
        if self.fail:
            raise BackendError(f"backend {self.name}: injected failure")
        self.topk_calls.append((list(seeds), k, exclude_seed))
        return [
            np.array([(int(s), 1.0)], dtype=PAIR_DTYPE) for s in seeds
        ]

    async def stats(self):
        return {"queue_depth": 0}

    async def close(self):
        pass


class TestParseEndpoint:
    def test_parses_host_and_port(self):
        assert parse_endpoint("127.0.0.1:7311") == ("127.0.0.1", 7311)
        assert parse_endpoint("example.com:80") == ("example.com", 80)

    @pytest.mark.parametrize("bad", ["localhost", ":80", "host:", "host:abc"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_endpoint(bad)


class TestHashRing:
    def test_routing_is_deterministic_across_instances(self):
        names = ["a:1", "b:2", "c:3"]
        first = HashRing(names)
        second = HashRing(list(reversed(names)))
        # Same owner for every seed regardless of construction order or
        # process (BLAKE2b, not the salted builtin hash).
        assert [first.route(s) for s in range(500)] == [
            second.route(s) for s in range(500)
        ]

    def test_order_is_a_failover_chain(self):
        ring = HashRing(["a", "b", "c"])
        for seed in range(100):
            chain = ring.order(seed)
            assert chain[0] == ring.route(seed)
            assert sorted(chain) == ["a", "b", "c"]

    def test_every_backend_owns_a_share(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.route(s) for s in range(2000)}
        assert owners == {"a", "b", "c"}

    def test_removing_a_backend_only_remaps_its_seeds(self):
        full = HashRing(["a", "b", "c"])
        reduced = HashRing(["a", "b"])
        for seed in range(1000):
            if full.route(seed) != "c":
                assert reduced.route(seed) == full.route(seed)

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(InvalidParameterError):
            HashRing([])
        with pytest.raises(InvalidParameterError):
            HashRing(["a", "a"])


class TestCoalescing:
    def test_concurrent_queries_merge_into_one_batched_solve(self):
        backend = FakeBackend()

        async def scenario():
            async with Gateway([backend], health_interval=0) as gateway:
                rows = await asyncio.gather(
                    *(gateway.query(seed) for seed in range(12))
                )
                return rows, await gateway.stats()

        rows, stats = asyncio.run(scenario())
        # One backend call carried all twelve concurrent requests...
        assert len(backend.calls) == 1
        assert sorted(backend.calls[0]) == list(range(12))
        # ...and each caller got its own row out of the shared batch.
        for seed, row in enumerate(rows):
            assert row[0] == float(seed)
        assert stats["requests"] == 12

    def test_batch_size_histogram_records_coalesced_sizes(self):
        backend = FakeBackend()

        async def scenario():
            async with Gateway([backend], health_interval=0) as gateway:
                await asyncio.gather(*(gateway.query(s) for s in range(8)))
                return gateway.registry.get(telemetry.GATEWAY_COALESCE_BATCH)

        histogram = asyncio.run(scenario())
        assert histogram.count == 1
        assert histogram.sum == 8

    def test_topk_and_dense_coalesce_separately(self):
        backend = FakeBackend()

        async def scenario():
            async with Gateway([backend], health_interval=0) as gateway:
                dense, pairs = await asyncio.gather(
                    gateway.query(3), gateway.query_topk(5, k=2)
                )
                return dense, pairs

        dense, pairs = asyncio.run(scenario())
        assert dense[0] == 3.0
        assert pairs["id"][0] == 5
        assert len(backend.calls) == 1 and len(backend.topk_calls) == 1


async def _until(condition, turns=1000):
    """Yield loop turns (never sleeping) until ``condition()`` holds."""
    for _ in range(turns):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


def _seed_on(gateway, name):
    return next(s for s in range(256) if gateway.ring.route(s) == name)


class TestWorkConservingCoalescing:
    """Idle shard: leave on the next loop turn.  Busy shard: wait for the
    batch in flight, then leave together."""

    def test_lone_request_leaves_without_a_timer(self):
        backend = FakeBackend()

        async def scenario():
            async with Gateway([backend], health_interval=0) as gateway:
                loop = asyncio.get_running_loop()
                delays = []
                call_later = loop.call_later
                loop.call_later = lambda delay, *args, **kwargs: (
                    delays.append(delay) or call_later(delay, *args, **kwargs)
                )
                try:
                    task = asyncio.ensure_future(gateway.query(4))
                    turns = 0
                    while not backend.calls and turns < 100:
                        await asyncio.sleep(0)
                        turns += 1
                finally:
                    del loop.call_later
                return await task, turns, delays, gateway.request_timeout

        row, turns, delays, request_timeout = asyncio.run(scenario())
        assert row[0] == 4.0
        # The backend saw the request within a few loop turns that never
        # slept, and the only timer armed was the backend call's timeout.
        assert turns <= 4
        assert all(delay == request_timeout for delay in delays)

    def test_burst_during_in_flight_batch_leaves_in_one_call(self):
        backend = FakeBackend(gate=asyncio.Event())

        async def scenario():
            async with Gateway([backend], health_interval=0) as gateway:
                first = asyncio.ensure_future(gateway.query(0))
                await _until(lambda: backend.held)
                burst = []
                for seed in range(1, 9):  # one arrival per loop turn
                    burst.append(asyncio.ensure_future(gateway.query(seed)))
                    await asyncio.sleep(0)
                await asyncio.sleep(0.02)
                held_while_busy = list(backend.held)
                backend.gate.set()
                rows = await asyncio.gather(first, *burst)
                histogram = gateway.registry.get(
                    telemetry.GATEWAY_COALESCE_BATCH
                )
                return held_while_busy, rows, histogram

        held_while_busy, rows, histogram = asyncio.run(scenario())
        assert held_while_busy == [[0]], "nothing may leave while busy"
        assert backend.calls == [[0], list(range(1, 9))]
        assert [row[0] for row in rows] == [float(s) for s in range(9)]
        assert (histogram.count, histogram.sum) == (2, 9)

    def test_busy_shard_does_not_delay_another_shard(self):
        busy = FakeBackend(name="busy", gate=asyncio.Event())
        idle = FakeBackend(name="idle")

        async def scenario():
            async with Gateway([busy, idle], health_interval=0) as gateway:
                held = asyncio.ensure_future(
                    gateway.query(_seed_on(gateway, "busy"))
                )
                await _until(lambda: busy.held)
                seed = _seed_on(gateway, "idle")
                row = await asyncio.wait_for(gateway.query(seed), 5.0)
                still_held = not held.done()
                busy.gate.set()
                await held
                return seed, row, still_held

        seed, row, still_held = asyncio.run(scenario())
        assert row[0] == float(seed)
        assert still_held, "the busy shard's batch was still in flight"
        assert idle.calls == [[seed]]

    @pytest.mark.parametrize("outcome", ["failover", "degraded", "error"])
    def test_follow_up_batch_leaves_after_any_outcome(self, outcome):
        gate = asyncio.Event()
        primary = FakeBackend(name="primary", gate=gate)
        backends = [primary]
        if outcome == "failover":
            backends.append(FakeBackend(name="replica"))

        async def scenario():
            async with Gateway(
                backends,
                health_interval=0,
                breaker_threshold=100,
                retry_budget_burst=10.0 if outcome == "failover" else 0.0,
                retry_budget_ratio=0.0,
            ) as gateway:
                seeds = [
                    s for s in range(256)
                    if gateway.ring.route(s) == "primary"
                ][:2]
                if outcome == "degraded":
                    gate.set()  # warm the stale-answer cache
                    await asyncio.gather(*(gateway.query(s) for s in seeds))
                    gate.clear()
                    primary.held.clear()
                first = asyncio.ensure_future(
                    gateway.query_detailed(seeds[0])
                )
                await _until(lambda: primary.held)
                follow_up = asyncio.ensure_future(
                    gateway.query_detailed(seeds[1])
                )
                await asyncio.sleep(0)
                primary.fail = (
                    QueryError("injected") if outcome == "error" else True
                )
                gate.set()
                results = await asyncio.gather(
                    first, follow_up, return_exceptions=True
                )
                return seeds, results

        seeds, results = asyncio.run(scenario())
        assert primary.held == [[seeds[0]], [seeds[1]]]
        for seed, result in zip(seeds, results):
            if outcome == "error":
                assert isinstance(result, QueryError)
            else:
                assert result.value[0] == float(seed)
                assert result.degraded == (outcome == "degraded")
        if outcome == "failover":
            assert backends[1].calls == [[seeds[0]], [seeds[1]]]

    def test_close_fails_waiting_requests_and_leaves_no_task(self):
        backend = FakeBackend(gate=asyncio.Event())

        async def scenario():
            gateway = await Gateway([backend], health_interval=0).start()
            in_flight = asyncio.ensure_future(gateway.query(0))
            await _until(lambda: backend.held)
            waiting = asyncio.ensure_future(gateway.query(1))
            await asyncio.sleep(0)
            await gateway.close()
            results = await asyncio.gather(
                in_flight, waiting, return_exceptions=True
            )
            await asyncio.sleep(0)
            others = asyncio.all_tasks() - {asyncio.current_task()}
            return results, others, gateway

        results, others, gateway = asyncio.run(scenario())
        for result in results:
            assert isinstance(result, BackendError)
            assert "gateway closed" in str(result)
        assert backend.held == [[0]], "the waiting request never left"
        assert others == set()
        assert gateway._in_flight == {} and gateway._pending == {}


class TestAdmissionControl:
    def test_sheds_beyond_max_pending(self):
        backend = FakeBackend(delay=0.2)

        async def scenario():
            async with Gateway(
                [backend],
                max_pending=3,
                health_interval=0,
            ) as gateway:
                outcomes = await asyncio.gather(
                    *(gateway.query(s) for s in range(10)),
                    return_exceptions=True,
                )
                return outcomes, await gateway.stats()

        outcomes, stats = asyncio.run(scenario())
        served = [o for o in outcomes if isinstance(o, np.ndarray)]
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(served) == 3
        assert len(shed) == 7
        # The typed reply tells clients how long to back off.
        assert all(o.retry_after > 0 and o.limit == 3 for o in shed)
        assert stats["sheds"] == 7
        # Shedding never failed an *admitted* request.
        assert not [o for o in outcomes if isinstance(o, BackendError)]

    def test_recovers_after_backlog_drains(self):
        backend = FakeBackend(delay=0.05)

        async def scenario():
            async with Gateway(
                [backend],
                max_pending=2,
                health_interval=0,
            ) as gateway:
                first = await asyncio.gather(
                    *(gateway.query(s) for s in range(4)),
                    return_exceptions=True,
                )
                # Backlog drained: the gateway admits traffic again.
                second = await gateway.query(9)
                return first, second

        first, second = asyncio.run(scenario())
        assert any(isinstance(o, Overloaded) for o in first)
        assert second[0] == 9.0


class TestGenerationSurfacing:
    def test_health_poll_exports_backend_generation(self):
        backend = FakeBackend(name="shard0")

        async def stats():
            return {
                "queue_depth": 0,
                "generation": "/store/generations/gen-000007",
            }

        backend.stats = stats

        async def scenario():
            async with Gateway([backend], health_interval=0.01) as gateway:
                for _ in range(100):
                    snapshot = await gateway.stats()
                    if snapshot["backends"]["shard0"]["generation"]:
                        break
                    await asyncio.sleep(0.01)
                gauge = gateway.registry.get(
                    f"{telemetry.GATEWAY_BACKEND_PREFIX}shard0"
                    ".generation_index"
                )
                return snapshot, gauge

        snapshot, gauge = asyncio.run(scenario())
        # The full path is reduced to the generation name, and the
        # numeric index is exported so replica divergence after a
        # publish is visible on a dashboard.
        assert snapshot["backends"]["shard0"]["generation"] == "gen-000007"
        assert gauge is not None and gauge.value == 7.0

    def test_non_generation_names_skip_the_index_gauge(self):
        backend = FakeBackend(name="bare")

        async def stats():
            return {"queue_depth": 0, "generation": "/artifacts/solver"}

        backend.stats = stats

        async def scenario():
            async with Gateway([backend], health_interval=0.01) as gateway:
                for _ in range(100):
                    snapshot = await gateway.stats()
                    if snapshot["backends"]["bare"]["generation"]:
                        break
                    await asyncio.sleep(0.01)
                gauge = gateway.registry.get(
                    f"{telemetry.GATEWAY_BACKEND_PREFIX}bare"
                    ".generation_index"
                )
                return snapshot, gauge

        snapshot, gauge = asyncio.run(scenario())
        assert snapshot["backends"]["bare"]["generation"] == "solver"
        assert gauge is None


class TestShardingAndFailover:
    def test_seeds_route_by_ring_shard(self):
        left = FakeBackend(name="left")
        right = FakeBackend(name="right")

        async def scenario():
            async with Gateway([left, right], health_interval=0) as gateway:
                await asyncio.gather(*(gateway.query(s) for s in range(32)))
                return gateway.ring

        ring = asyncio.run(scenario())
        for backend in (left, right):
            for batch in backend.calls:
                assert {ring.route(s) for s in batch} == {backend.name}
        routed = sorted(s for b in (left, right) for c in b.calls for s in c)
        assert routed == list(range(32))

    def test_failover_to_replica_when_primary_fails(self):
        healthy = FakeBackend(name="healthy")
        broken = FakeBackend(name="broken", fail=True)

        async def scenario():
            async with Gateway(
                [healthy, broken], health_interval=0
            ) as gateway:
                rows = await asyncio.gather(
                    *(gateway.query(s) for s in range(16))
                )
                return rows, await gateway.stats()

        rows, stats = asyncio.run(scenario())
        for seed, row in enumerate(rows):
            assert row[0] == float(seed)
        # Some seeds hashed to the broken backend and were retried on the
        # healthy replica.
        assert stats["failovers"] >= 1
        assert stats["backend_errors"] >= 1
        assert stats["backends"]["broken"]["healthy"] is False

    def test_all_replicas_down_surfaces_backend_error(self):
        async def scenario():
            async with Gateway(
                [FakeBackend(name="a", fail=True), FakeBackend(name="b", fail=True)],
                health_interval=0,
            ) as gateway:
                with pytest.raises(BackendError, match="replica"):
                    await gateway.query(1)

        asyncio.run(scenario())

    def test_failed_backend_is_deprioritized_not_dropped(self):
        broken = FakeBackend(name="broken", fail=True)
        healthy = FakeBackend(name="healthy")

        async def scenario():
            async with Gateway(
                [broken, healthy],
                health_interval=0,
                breaker_threshold=2,
                breaker_reset=0.05,
            ) as gateway:
                seed = next(
                    s for s in range(100) if gateway.ring.route(s) == "broken"
                )
                # Two failed dispatches trip the broken backend's breaker.
                for _ in range(2):
                    assert (await gateway.query(seed))[0] == float(seed)
                tripped = await gateway.stats()
                # Open breaker: the next dispatch skips the broken backend
                # without calling it, yet it stays in the chain.
                assert (await gateway.query(seed))[0] == float(seed)
                skipped = await gateway.stats()
                chain = gateway._failover_chain("broken")
                # Once the reset timeout passes, a half-open probe brings
                # the recovered backend back.
                broken.fail = False
                await asyncio.sleep(0.06)
                assert (await gateway.query(seed))[0] == float(seed)
                return seed, tripped, skipped, chain, await gateway.stats()

        seed, tripped, skipped, chain, recovered = asyncio.run(scenario())
        assert tripped["backend_errors"] == 2
        assert tripped["backends"]["broken"]["breaker"] == "open"
        assert skipped["backend_errors"] == 2, "an open breaker makes no call"
        assert chain == ["broken", "healthy"]
        assert recovered["backends"]["broken"]["breaker"] == "closed"
        assert recovered["backends"]["broken"]["healthy"] is True
        assert broken.calls == [[seed]]

    def test_close_stops_a_monitor_whose_polls_fail(self):
        dead = FakeBackend(name="dead", fail=True)

        async def stats():
            raise BackendError("backend dead: stats poll refused")

        dead.stats = stats

        async def cycles():
            # Closing while a poll completes must still end the monitor;
            # each cycle is a fresh chance to land in that window.
            for _ in range(20):
                gateway = Gateway([dead], health_interval=0.001)
                await gateway.start()
                await asyncio.sleep(0.02)
                closing = asyncio.ensure_future(gateway.close())
                done, _ = await asyncio.wait({closing}, timeout=2.0)
                if not done:
                    return False
            return True

        # A private loop: a monitor that outlived close() would make
        # asyncio.run's task cleanup wait for it forever.
        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(cycles()), "close() hung"
        finally:
            loop.close()

    def test_health_poller_feeds_the_breaker(self):
        flaky = FakeBackend(name="flaky")
        down = {"value": True}

        async def stats():
            if down["value"]:
                raise BackendError("backend flaky: stats poll refused")
            return {"queue_depth": 0}

        flaky.stats = stats

        async def wait_for_breaker(gateway, state):
            for _ in range(200):
                if gateway.breakers["flaky"].state_name == state:
                    return True
                await asyncio.sleep(0.01)
            return False

        async def scenario():
            async with Gateway(
                [flaky, FakeBackend(name="steady")],
                health_interval=0.01,
                breaker_threshold=2,
                breaker_reset=60.0,
            ) as gateway:
                opened = await wait_for_breaker(gateway, "open")
                down["value"] = False
                closed = await wait_for_breaker(gateway, "closed")
                return opened, closed, await gateway.stats()

        opened, closed, stats = asyncio.run(scenario())
        # Failed polls alone trip the breaker: no query was ever sent.
        assert opened, "failed stats polls must open the breaker"
        assert flaky.calls == [] and flaky.topk_calls == []
        # A live poll closes it again, long before the reset timeout.
        assert closed, "a successful poll must close the breaker"
        assert stats["backends"]["flaky"]["healthy"] is True


class TestBitIdentityThroughGateway:
    def test_dense_and_topk_match_direct_pool(self, pool, served_solver):
        seeds = [0, 3, 5, 11]
        expected = pool.query_many(seeds)
        expected_topk = [
            r.pairs() for r in pool.query_topk_many(seeds, 4, exclude_seed=True)
        ]

        async def scenario():
            async with Gateway(
                [LocalBackend(pool)], health_interval=0
            ) as gateway:
                rows = await asyncio.gather(
                    *(gateway.query(s) for s in seeds)
                )
                pairs = await asyncio.gather(
                    *(gateway.query_topk(s, 4) for s in seeds)
                )
                return rows, pairs

        rows, pairs = asyncio.run(scenario())
        for row, direct in zip(rows, expected):
            assert np.array_equal(row, direct)
        for packed, direct in zip(pairs, expected_topk):
            assert [(int(p["id"]), float(p["score"])) for p in packed] == direct


class TestWireTier:
    """Real sockets: PoolServer backends, RemoteBackend, GatewayServer."""

    def test_remote_backend_round_trip_and_failover_on_kill(
        self, pool, served_solver
    ):
        async def scenario():
            # Two wire servers over the same pool — bit-identical replicas,
            # exactly what immutable artifact generations guarantee.
            async with PoolServer(pool) as stays_up, PoolServer(pool) as dies:
                up_host, up_port = stays_up.address
                down_host, down_port = dies.address
                backends = [
                    RemoteBackend(up_host, up_port, name="up"),
                    RemoteBackend(down_host, down_port, name="down",
                                  connect_timeout=2.0),
                ]
                gateway = Gateway(
                    backends,
                    health_interval=0,
                )
                async with gateway:
                    seeds = list(range(16))
                    before = await asyncio.gather(
                        *(gateway.query(s) for s in seeds)
                    )
                    # Kill one replica mid-flight; its shard's seeds must
                    # fail over to the survivor with identical answers.
                    await dies.close()
                    after = await asyncio.gather(
                        *(gateway.query(s) for s in seeds)
                    )
                    stats = await gateway.stats()
                return before, after, stats

        before, after, stats = asyncio.run(scenario())
        expected = None
        for row_before, row_after in zip(before, after):
            assert np.array_equal(row_before, row_after)
        assert stats["failovers"] >= 1

    def test_gateway_server_answers_wire_clients(self, pool, served_solver):
        seeds = np.array([1, 2, 8], dtype=np.int64)
        expected = pool.query_many([int(s) for s in seeds])

        async def scenario():
            async with Gateway(
                [LocalBackend(pool)], health_interval=0
            ) as gateway:
                async with GatewayServer(gateway) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    await wire.write_message(
                        writer, wire.QueryRequest(seeds=seeds)
                    )
                    dense = await wire.read_message(reader)
                    await wire.write_message(
                        writer,
                        wire.TopKRequest(seeds=seeds[:1], k=3,
                                         exclude_seed=True),
                    )
                    topk = await wire.read_message(reader)
                    await wire.write_message(writer, wire.StatsRequest())
                    stats = await wire.read_message(reader)
                    writer.close()
                    await writer.wait_closed()
                    return dense, topk, stats

        dense, topk, stats = asyncio.run(scenario())
        assert isinstance(dense, wire.DenseReply)
        assert np.array_equal(dense.scores, expected)
        assert isinstance(topk, wire.TopKReply)
        direct = pool.query_topk(1, 3, exclude_seed=True)
        assert [(int(p["id"]), float(p["score"])) for p in topk.pairs[0]] == \
            direct.pairs()
        assert isinstance(stats, wire.StatsReply)
        assert stats.stats["pending"] == 0

    def test_pool_server_sheds_with_typed_reply(self, pool):
        async def scenario():
            server = PoolServer(pool, shed_queue_depth=-1)  # shed everything
            async with server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                await wire.write_message(
                    writer,
                    wire.QueryRequest(seeds=np.array([0], dtype=np.int64)),
                )
                reply = await wire.read_message(reader)
                writer.close()
                await writer.wait_closed()
                return reply

        reply = asyncio.run(scenario())
        assert isinstance(reply, wire.OverloadedReply)
        assert reply.retry_after > 0

    def test_invalid_seed_surfaces_as_query_error_not_failover(self, pool):
        async def scenario():
            async with PoolServer(pool) as server:
                host, port = server.address
                backend = RemoteBackend(host, port, name="only")
                async with Gateway([backend], health_interval=0) as gateway:
                    from repro.gateway import QueryError

                    with pytest.raises(QueryError, match="out of range"):
                        await gateway.query(10**9)
                    stats = await gateway.stats()
                    # An application error is not a transport failure: no
                    # failover, and the backend stays healthy.
                    assert stats["failovers"] == 0
                    assert stats["backends"]["only"]["healthy"] is True

        asyncio.run(scenario())


class TestCertifiedAnswerer:
    """The degraded rung: lazy load, the certificate as the bound, top-k."""

    def test_lazy_until_first_answer(self, artifact_dir, small_graph):
        answerer = CertifiedAnswerer(artifact_dir)
        assert not answerer.loaded
        scores, bound = answerer.answer_many([0])
        assert answerer.loaded
        assert scores.shape == (1, small_graph.n_nodes)
        assert bound >= 0.0

    def test_exact_answer_within_stated_bound(self, artifact_dir, small_graph):
        answerer = CertifiedAnswerer(artifact_dir)
        seeds = [0, 7]
        exact = np.stack([exact_rwr(small_graph, 0.05, s) for s in seeds])
        for deadline in (time.monotonic(), None):
            scores, bound = answerer.answer_many(seeds, deadline=deadline)
            assert np.abs(scores - exact).sum(axis=1).max() <= bound

    def test_answers_are_deterministic(self, artifact_dir, served_solver):
        first, _ = CertifiedAnswerer(artifact_dir).answer_many([3])
        second, _ = CertifiedAnswerer(artifact_dir).answer_many([3])
        assert np.array_equal(first, second)
        # Run to tol, the rung's answer is the backends' exact one.
        assert np.array_equal(first, served_solver.query_many([3]))

    def test_topk_ranks_the_approximate_scores(self, artifact_dir):
        answerer = CertifiedAnswerer(artifact_dir)
        result, bound = answerer.answer_topk(2, 5, deadline=time.monotonic())
        scores, same_bound = answerer.answer_many([2], deadline=time.monotonic())
        assert len(result.ids) == 5
        assert 2 not in result.ids  # exclude_seed honored
        assert bound > 0 and bound == same_bound
        # The ranking is the exact ranking of the truncated scores.
        assert list(result.scores) == sorted(result.scores, reverse=True)
        for node, score in zip(result.ids, result.scores):
            assert scores[0, node] == score


class TestGatewayValidation:
    def test_rejects_no_backends(self):
        with pytest.raises(InvalidParameterError):
            Gateway([])

    def test_rejects_duplicate_backend_names(self):
        with pytest.raises(InvalidParameterError):
            Gateway([FakeBackend(name="x"), FakeBackend(name="x")])

    def test_rejects_bad_limit(self):
        with pytest.raises(InvalidParameterError):
            Gateway([FakeBackend()], max_pending=0)

    def test_closed_gateway_refuses_queries(self):
        async def scenario():
            gateway = Gateway([FakeBackend()], health_interval=0)
            await gateway.start()
            await gateway.close()
            with pytest.raises(BackendError, match="closed"):
                await gateway.query(0)

        asyncio.run(scenario())


class _SlowServer(_WireServer):
    """Answers a query for seed ``ms`` after sleeping ``ms`` milliseconds."""

    def __init__(self, expected_requests: int):
        super().__init__()
        self.expected_requests = expected_requests
        self.answering = asyncio.Event()

    async def _answer(self, request):
        self.expected_requests -= 1
        if self.expected_requests == 0:
            self.answering.set()
        slept_ms = int(request.seeds[0])
        await asyncio.sleep(slept_ms / 1000.0)
        return wire.StatsReply(stats={"slept_ms": slept_ms})


def _close_scenario(requests):
    """Open an idle connection plus one connection per ``(sleep_ms,
    deadline_ms)`` request, close the server while every request is being
    answered, and return what is left: tasks, loop errors, close seconds,
    and each connection's reply (or ``None``) and final read."""

    async def scenario():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        server = _SlowServer(len(requests))
        await server.start()
        connections = [await asyncio.open_connection(*server.address)]
        for sleep_ms, deadline_ms in requests:
            connections.append(await asyncio.open_connection(*server.address))
            request = wire.QueryRequest(
                seeds=np.array([sleep_ms]), deadline_ms=deadline_ms
            )
            await wire.write_message(connections[-1][1], request)
        await server.answering.wait()
        started = asyncio.get_running_loop().time()
        await server.close()
        close_seconds = asyncio.get_running_loop().time() - started
        left = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        ends = []
        for index, (reader, writer) in enumerate(connections):
            reply = None
            if index and requests[index - 1][0] < 60_000:
                reply = await asyncio.wait_for(wire.read_message(reader), 10)
            ends.append((reply, await asyncio.wait_for(reader.read(), 10)))
            writer.close()
            await writer.wait_closed()
        return left, reported, close_seconds, ends

    return asyncio.run(scenario())


class TestServerClose:
    def test_close_ends_open_connection_handlers(self):
        """Closing a wire server ends the handlers of its open connections,
        an idle one and one whose request overruns its deadline, normally:
        no task is left for the event loop's teardown to cancel, nothing
        reaches the loop's exception handler, and each client reads
        end-of-stream."""
        left, reported, close_seconds, ends = _close_scenario([(60_000, 200.0)])
        assert left == []
        assert reported == []
        assert ends == [(None, b""), (None, b"")]
        assert close_seconds < 10

    def test_close_drains_requests_in_flight(self):
        """A request in flight when the server closes is answered and its
        reply written before its handler ends; an idle connection still
        reads end-of-stream, and the drain waits no longer than needed."""
        left, reported, close_seconds, ends = _close_scenario(
            [(300, 5000.0), (200, None), (60_000, 300.0)]
        )
        assert left == []
        assert reported == []
        idle, with_deadline, without_deadline, overrun = ends
        assert idle == (None, b"")
        assert with_deadline[0].stats == {"slept_ms": 300}
        assert without_deadline[0].stats == {"slept_ms": 200}
        assert with_deadline[1] == without_deadline[1] == b""
        assert overrun == (None, b"")
        assert close_seconds < 5
