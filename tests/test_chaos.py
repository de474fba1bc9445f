"""Network chaos drill: breakers open, hedges win, degraded replies hold.

The acceptance scenario of the request-lifecycle layer, over real
sockets: two replicas serve the same artifact generation, the fault
plan drops and slows one of them, and the gateway must (a) trip that
replica's breaker and half-open-recover it once the link heals, (b) keep
every client inside its deadline budget, and (c) only serve degraded
answers whose stated error bound the post-recovery exact answer
satisfies.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import BePI, faults, telemetry
from repro.approximate import ApproximateAnswerer
from repro.faults import ConnectionDrop, FaultPlan, SlowLink
from repro.gateway import (
    CircuitBreaker,
    Gateway,
    PoolServer,
    RemoteBackend,
)
from repro.persistence import save_artifacts
from repro.serve import WorkerPool


@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


@pytest.fixture(scope="module")
def pool(artifact_dir):
    with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
        yield pool


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


DEADLINE_MS = 2000.0
#: Seconds an opened breaker waits before its half-open probe.  It must
#: outlast the whole outage phase (six ~30 ms queries), which reads the
#: breaker OPEN; 1 s leaves a loaded machine a margin of several times.
BREAKER_RESET = 1.0


class TestChaosDrill:
    def test_breaker_opens_and_recovers_under_connection_drops(self, pool):
        """ConnectionDrop + SlowLink on one of two replicas: the dropped
        replica's breaker opens, every request stays inside its deadline
        (failing over to the survivor), and once the drop budget is spent
        a half-open probe closes the breaker again."""

        async def scenario():
            async with PoolServer(pool) as stable_srv, \
                    PoolServer(pool) as chaotic_srv:
                stable = RemoteBackend(*stable_srv.address, name="stable")
                chaotic = RemoteBackend(*chaotic_srv.address, name="chaotic")
                faults.install(FaultPlan(
                    connection_drops=(
                        ConnectionDrop(endpoint="chaotic", count=4),
                    ),
                    slow_links=(SlowLink(endpoint="chaotic", seconds=0.01),),
                ))
                gateway = Gateway(
                    [stable, chaotic],
                    health_interval=0,
                    breaker_threshold=2,
                    breaker_reset=BREAKER_RESET,
                )
                async with gateway:
                    chaotic_seeds = [
                        s for s in range(128)
                        if gateway.ring.route(s) == "chaotic"
                    ][:10]
                    assert len(chaotic_seeds) == 10
                    overruns = []
                    answers = {}
                    # Outage phase: drops trip the breaker; every request
                    # still answers, inside its budget, via the survivor.
                    for seed in chaotic_seeds[:6]:
                        started = time.monotonic()
                        answers[seed] = await gateway.query(
                            seed, deadline_ms=DEADLINE_MS
                        )
                        elapsed = time.monotonic() - started
                        overruns.append(elapsed - DEADLINE_MS / 1000.0)
                    opened = gateway.registry.get(
                        telemetry.BREAKER_OPENED
                    ).value
                    mid_state = gateway.breakers["chaotic"].state
                    # Recovery phase: keep poking until the probes spend
                    # the remaining drop budget and one succeeds.
                    for _ in range(8):
                        if (gateway.breakers["chaotic"].state
                                == CircuitBreaker.CLOSED):
                            break
                        await asyncio.sleep(BREAKER_RESET + 0.1)
                        seed = chaotic_seeds[6]
                        started = time.monotonic()
                        answers[seed] = await gateway.query(
                            seed, deadline_ms=DEADLINE_MS
                        )
                        overruns.append(
                            time.monotonic() - started - DEADLINE_MS / 1000.0
                        )
                    closed = gateway.registry.get(
                        telemetry.BREAKER_CLOSED
                    ).value
                    final_state = gateway.breakers["chaotic"].state_name
                    # Healed link: a chaotic-routed query flows normally.
                    seed = chaotic_seeds[7]
                    answers[seed] = await gateway.query(
                        seed, deadline_ms=DEADLINE_MS
                    )
                    exact = {
                        s: pool.query_many([s])[0] for s in answers
                    }
                    stats = await gateway.stats()
                return opened, mid_state, closed, final_state, overruns, \
                    answers, exact, stats

        (opened, mid_state, closed, final_state, overruns, answers, exact,
         stats) = asyncio.run(scenario())
        assert opened >= 1, "the dropped replica's breaker must trip"
        assert mid_state == CircuitBreaker.OPEN
        assert closed >= 1, "a half-open probe must close the breaker"
        assert final_state == "closed"
        assert stats["failovers"] >= 1
        # The acceptance bound: never past the deadline (generous
        # scheduler slack on a loaded CI box).
        assert max(overruns) <= 0.2
        # Replicas are bit-identical, so every answer — whichever replica
        # served it — matches the pool directly.
        for seed, row in answers.items():
            assert np.array_equal(row, exact[seed])

    def test_degraded_replies_hold_their_bound_through_recovery(
        self, pool, artifact_dir
    ):
        """Single replica fully down: the Monte-Carlo rung answers with a
        stated bound, and the post-recovery exact answer satisfies it."""

        async def scenario():
            async with PoolServer(pool) as srv:
                backend = RemoteBackend(*srv.address, name="lonely")
                faults.install(FaultPlan(
                    connection_drops=(
                        ConnectionDrop(endpoint="lonely", count=3),
                    ),
                ))
                answerer = ApproximateAnswerer(artifact_dir, n_walks=2000)
                gateway = Gateway(
                    [backend],
                    health_interval=0,
                    breaker_threshold=100,  # keep retrying the real link
                    degraded_answerer=answerer,
                    answer_cache_size=0,  # force the Monte-Carlo rung
                )
                async with gateway:
                    seeds = [1, 5, 9]
                    degraded = {}
                    for seed in seeds:  # one drop each: all degraded
                        result = await gateway.query_detailed(seed)
                        degraded[seed] = result
                    # Drop budget spent: exact service resumes.
                    exact = {}
                    for seed in seeds:
                        result = await gateway.query_detailed(seed)
                        exact[seed] = result
                    stats = await gateway.stats()
                return degraded, exact, stats

        degraded, exact, stats = asyncio.run(scenario())
        assert stats["degraded"] == 3
        for seed in degraded:
            d, e = degraded[seed], exact[seed]
            assert d.degraded and not e.degraded
            assert d.error_bound > 0
            gap = float(np.max(np.abs(d.value - e.value)))
            assert gap <= d.error_bound, (
                f"seed {seed}: degraded answer missed its stated bound "
                f"({gap:.5f} > {d.error_bound:.5f})"
            )

    def test_hedged_send_beats_a_slow_link(self, pool):
        """SlowLink on the primary replica: the hedge fires after 30 ms,
        the fast replica answers first, and the client never sees the
        slow link's latency."""

        async def scenario():
            async with PoolServer(pool) as fast_srv, \
                    PoolServer(pool) as slow_srv:
                fast = RemoteBackend(*fast_srv.address, name="fast")
                slow = RemoteBackend(*slow_srv.address, name="slow")
                faults.install(FaultPlan(
                    slow_links=(SlowLink(endpoint="slow", seconds=0.4),),
                ))
                gateway = Gateway(
                    [fast, slow],
                    health_interval=0,
                    hedge_after=0.03,
                )
                async with gateway:
                    seed = next(
                        s for s in range(128)
                        if gateway.ring.route(s) == "slow"
                    )
                    started = time.monotonic()
                    row = await gateway.query(seed, deadline_ms=DEADLINE_MS)
                    elapsed = time.monotonic() - started
                    wins = gateway.registry.get(telemetry.HEDGE_WINS).value
                    sent = gateway.registry.get(telemetry.HEDGE_SENT).value
                expected = pool.query_many([seed])[0]
                return row, expected, elapsed, sent, wins

        row, expected, elapsed, sent, wins = asyncio.run(scenario())
        assert sent >= 1 and wins >= 1
        assert elapsed < 0.4, "the hedge must answer before the slow link"
        assert np.array_equal(row, expected)

    def test_corrupt_frame_fails_over_not_crashes(self, pool):
        """FrameCorrupt on one replica: the peer rejects the frame, the
        gateway treats it as a transport failure and fails over."""
        from repro.faults import FrameCorrupt

        async def scenario():
            async with PoolServer(pool) as good_srv, \
                    PoolServer(pool) as bad_srv:
                good = RemoteBackend(*good_srv.address, name="good")
                bad = RemoteBackend(*bad_srv.address, name="bad",
                                    request_timeout=1.0)
                faults.install(FaultPlan(
                    frame_corrupts=(FrameCorrupt(endpoint="bad", count=1),),
                ))
                gateway = Gateway(
                    [good, bad],
                    health_interval=0,
                )
                async with gateway:
                    seed = next(
                        s for s in range(128)
                        if gateway.ring.route(s) == "bad"
                    )
                    row = await gateway.query(seed, deadline_ms=DEADLINE_MS)
                    stats = await gateway.stats()
                expected = pool.query_many([seed])[0]
                return row, expected, stats

        row, expected, stats = asyncio.run(scenario())
        assert np.array_equal(row, expected)
        assert stats["backend_errors"] >= 1
