"""Deadline-aware request lifecycle: budgets, breakers, hedging, degradation.

Covers the serve-stack robustness layer end to end at the unit and
in-process-integration level; the socket-level chaos drill lives in
``test_chaos.py``.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import BePI, telemetry
from repro.core.topk import PAIR_DTYPE
from repro.exceptions import InvalidParameterError
from repro.gateway import (
    BackendError,
    CircuitBreaker,
    Gateway,
    GatewayResult,
    GatewayServer,
    RetryBudget,
    compute_retry_after,
)
from repro.persistence import save_artifacts
from repro.serve import DeadlineExpired, WorkerPool


@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("lifecycle-artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


@pytest.fixture(scope="module")
def pool(artifact_dir):
    with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
        yield pool


class FakeBackend:
    """In-memory backend recording calls; optional delay/failure."""

    def __init__(self, name="fake", n_cols=4, delay=0.0, fail=False):
        self.name = name
        self.n_cols = n_cols
        self.delay = delay
        self.fail = fail
        self.calls = []
        self.deadlines = []

    async def query_many(self, seeds, trace=(), deadline_ms=None):
        if self.fail:
            raise BackendError(f"backend {self.name}: injected failure")
        if self.delay:
            await asyncio.sleep(self.delay)
        self.calls.append(list(seeds))
        self.deadlines.append(deadline_ms)
        return np.array(
            [[float(s) + j / 10 for j in range(self.n_cols)] for s in seeds]
        )

    async def query_topk_many(self, seeds, k, exclude_seed, trace=(),
                              deadline_ms=None):
        if self.fail:
            raise BackendError(f"backend {self.name}: injected failure")
        if self.delay:
            await asyncio.sleep(self.delay)
        self.deadlines.append(deadline_ms)
        return [np.array([(int(s), 1.0)], dtype=PAIR_DTYPE) for s in seeds]

    async def stats(self):
        return {"queue_depth": 0}

    async def close(self):
        pass


class FakeAnswerer:
    """Degraded-answer stub with a fixed bound and recorded calls (and,
    per call, the deadline it was given and the instant it ran)."""

    def __init__(self, n_cols=4, bound=0.25):
        self.n_cols = n_cols
        self.bound = bound
        self.calls = []
        self.deadlines = []

    def answer_many(self, seeds, deadline=None):
        self.calls.append(list(seeds))
        self.deadlines.append((deadline, time.monotonic()))
        return (
            np.full((len(seeds), self.n_cols), 0.5, dtype=np.float64),
            self.bound,
        )

    def answer_topk(self, seed, k, exclude_seed=True, deadline=None):
        from repro.core.topk import TopKResult

        self.calls.append([seed])
        self.deadlines.append((deadline, time.monotonic()))
        ids = np.arange(k, dtype=np.int64)
        return TopKResult(ids=ids, scores=np.full(k, 0.5)), self.bound


# ----------------------------------------------------------------------
# compute_retry_after (satellite: jittered, depth-scaled retry_after)
# ----------------------------------------------------------------------
class TestComputeRetryAfter:
    def test_scales_with_queue_depth(self):
        shallow = [compute_retry_after(10, 10, 0.05) for _ in range(200)]
        deep = [compute_retry_after(40, 10, 0.05) for _ in range(200)]
        # 4x the depth -> 4x the center of the jitter band.
        assert min(deep) > max(shallow)

    def test_jitter_spreads_repeated_calls(self):
        values = {compute_retry_after(1, 10, 0.05) for _ in range(50)}
        assert len(values) > 1, "retry_after must not be a constant"
        low, high = min(values), max(values)
        # +/-25% jitter around base (pending below limit clamps to 1.0x).
        assert low >= 0.05 * 0.75 - 1e-12
        assert high <= 0.05 * 1.25 + 1e-12
        assert (high - low) > 0.05 * 0.05, "jitter band too narrow"

    def test_below_capacity_clamps_to_base(self):
        for _ in range(20):
            assert compute_retry_after(1, 1024, 0.1) >= 0.1 * 0.75 - 1e-12

    def test_zero_limit_does_not_divide_by_zero(self):
        assert compute_retry_after(5, 0, 0.05) > 0


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_at_threshold_and_rejects(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_allows_a_single_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        time.sleep(0.06)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow(), "half-open must admit one probe"
        assert not breaker.allow(), "only one probe until it resolves"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=0.05)
        for _ in range(5):
            breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()  # one failed probe re-opens, not five
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_state_names(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        assert breaker.state_name == "closed"
        breaker.record_failure()
        assert breaker.state_name == "open"

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(failure_threshold=0, reset_timeout=1.0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(failure_threshold=1, reset_timeout=0.0)


# ----------------------------------------------------------------------
# RetryBudget
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_burst_spends_down_to_zero(self):
        budget = RetryBudget(ratio=0.0, burst=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_accrual_refills_at_ratio(self):
        budget = RetryBudget(ratio=0.5, burst=4.0)
        while budget.try_spend():
            pass
        budget.accrue()
        assert not budget.try_spend(), "0.5 tokens is not a whole retry"
        budget.accrue()
        assert budget.try_spend(), "two admissions buy one retry at 0.5"

    def test_accrual_caps_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=3.0)
        for _ in range(100):
            budget.accrue()
        assert budget.tokens == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Deadline math at the gateway (satellite: boundary coverage)
# ----------------------------------------------------------------------
class TestGatewayDeadlines:
    def test_group_deadline_is_max_of_members(self):
        now = time.monotonic()
        group = [(0, None, None, now + 1.0), (1, None, None, now + 2.0)]
        assert Gateway._group_deadline(group) == pytest.approx(now + 2.0)

    def test_group_deadline_none_if_any_member_unbounded(self):
        now = time.monotonic()
        assert Gateway._group_deadline(
            [(0, None, None, now + 1.0), (1, None, None, None)]
        ) is None
        assert Gateway._group_deadline([(0, None, None, None)]) is None

    def test_zero_budget_at_admission_raises(self):
        async def scenario():
            backend = FakeBackend()
            async with Gateway([backend], health_interval=0) as gateway:
                with pytest.raises(DeadlineExpired, match="admission"):
                    await gateway.query(1, deadline_ms=0.0)
                with pytest.raises(DeadlineExpired, match="admission"):
                    await gateway.query(1, deadline_ms=-10.0)
                assert backend.calls == []
                return gateway.registry.get(
                    telemetry.DEADLINE_EXCEEDED
                ).value

        assert asyncio.run(scenario()) == 2

    def test_zero_budget_with_answerer_degrades_instead(self):
        async def scenario():
            backend = FakeBackend()
            answerer = FakeAnswerer()
            async with Gateway(
                [backend],
                health_interval=0,
                degraded_answerer=answerer,
            ) as gateway:
                result = await gateway.query_detailed(3, deadline_ms=-1.0)
                assert result.degraded
                assert result.error_bound == pytest.approx(answerer.bound)
                assert backend.calls == []
                return result

        result = asyncio.run(scenario())
        assert isinstance(result, GatewayResult)
        assert np.all(result.value == 0.5)

    def test_deadline_behind_busy_shard_answers_in_budget(self):
        """A 30 ms budget must not wait out a 10 s batch in flight: behind
        it the watchdog degrades in budget, and another shard answers it
        exactly."""

        async def scenario():
            slow = FakeBackend(name="slow", delay=10.0)
            fast = FakeBackend(name="fast")
            answerer = FakeAnswerer()
            gateway = Gateway(
                [slow, fast], health_interval=0, degraded_answerer=answerer
            )
            async with gateway:
                on_slow, on_fast = (
                    next(s for s in range(256) if gateway.ring.route(s) == name)
                    for name in ("slow", "fast")
                )
                in_flight = asyncio.ensure_future(gateway.query(on_slow))
                await asyncio.sleep(0.01)  # the slow shard is now busy
                outcomes = []
                for seed in (on_slow, on_fast):
                    started = time.monotonic()
                    result = await gateway.query_detailed(seed, deadline_ms=30.0)
                    outcomes.append((result, time.monotonic() - started))
            with pytest.raises(BackendError, match="gateway closed"):
                await in_flight
            return outcomes, on_fast

        outcomes, on_fast = asyncio.run(scenario())
        (held, held_s), (idle, idle_s) = outcomes
        # Behind the busy shard the watchdog answers from the ladder...
        assert held_s < 0.5
        assert held.degraded
        # ...while the idle shard dispatches at once: exact, in budget.
        assert idle_s < 0.5
        assert not idle.degraded
        assert idle.value[0] == pytest.approx(float(on_fast))

    def test_watchdog_degrades_when_backend_outlasts_budget(self):
        async def scenario():
            backend = FakeBackend(delay=0.5)  # slower than the budget
            answerer = FakeAnswerer()
            async with Gateway(
                [backend],
                health_interval=0,
                degraded_answerer=answerer,
            ) as gateway:
                started = time.monotonic()
                result = await gateway.query_detailed(7, deadline_ms=60.0)
                elapsed = time.monotonic() - started
                stats = await gateway.stats()
                return result, elapsed, stats

        result, elapsed, stats = asyncio.run(scenario())
        assert result.degraded
        assert result.error_bound == pytest.approx(0.25)
        # Never past the budget (plus scheduler slack).
        assert elapsed < 0.060 + 0.1
        assert stats["deadline_exceeded"] == 1
        assert stats["degraded"] == 1

    def test_rung_is_given_each_call_sites_deadline(self):
        """Spent at admission, fired by the watchdog, and no replica
        answering a request without a deadline: the rung's solve stops at
        the request's own deadline, or runs to ``tol`` when it has none."""

        async def scenario():
            answerer = FakeAnswerer()
            async with Gateway(
                [FakeBackend(delay=0.5)],
                health_interval=0,
                degraded_answerer=answerer,
                answer_cache_size=0,
            ) as gateway:
                await gateway.query_detailed(1, deadline_ms=-1.0)
                watched_at = time.monotonic()
                await gateway.query_detailed(2, deadline_ms=60.0)
            async with Gateway(
                [FakeBackend(fail=True)],
                health_interval=0,
                degraded_answerer=answerer,
                answer_cache_size=0,
            ) as gateway:
                result = await gateway.query_detailed(3)
            return answerer, watched_at, result

        answerer, watched_at, result = asyncio.run(scenario())
        # One solve per request: seed 2's backend call expires while the
        # watchdog's solve runs, and does not start a second one.
        assert answerer.calls == [[1], [2], [3]]
        (spent, called), (watched, _), (unbounded, _) = answerer.deadlines
        assert spent < called  # already past when the rung runs
        assert watched == pytest.approx(watched_at + 0.060, abs=0.05)
        assert unbounded is None
        assert result.degraded

    def test_watchdog_without_ladder_raises_deadline_expired(self):
        async def scenario():
            backend = FakeBackend(delay=0.5)
            async with Gateway(
                [backend],
                health_interval=0,
                answer_cache_size=0,
            ) as gateway:
                with pytest.raises(DeadlineExpired, match="replica"):
                    await gateway.query(7, deadline_ms=40.0)

        asyncio.run(scenario())

    def test_mixed_deadline_batch_dispatches_unbounded(self):
        """A coalesced batch with one unbounded member must not impose the
        bounded member's deadline on the shared backend solve."""

        async def scenario():
            backend = FakeBackend()
            async with Gateway([backend], health_interval=0) as gateway:
                bounded = asyncio.create_task(
                    gateway.query(1, deadline_ms=5000.0)
                )
                unbounded = asyncio.create_task(gateway.query(2))
                rows = await asyncio.gather(bounded, unbounded)
                return backend, rows

        backend, rows = asyncio.run(scenario())
        assert len(backend.calls) == 1, "the two requests must coalesce"
        assert sorted(backend.calls[0]) == [1, 2]
        assert backend.deadlines == [None]
        assert rows[0][0] == pytest.approx(1.0)
        assert rows[1][0] == pytest.approx(2.0)

    def test_all_bounded_batch_forwards_remaining_budget(self):
        async def scenario():
            backend = FakeBackend()
            async with Gateway([backend], health_interval=0) as gateway:
                first = asyncio.create_task(
                    gateway.query(1, deadline_ms=5000.0)
                )
                second = asyncio.create_task(
                    gateway.query(2, deadline_ms=9000.0)
                )
                await asyncio.gather(first, second)
                return backend

        backend = asyncio.run(scenario())
        assert len(backend.deadlines) == 1
        remaining = backend.deadlines[0]
        # Group deadline is the max member (9 s), minus time already spent.
        assert remaining is not None
        assert 5000.0 < remaining <= 9000.0

    def test_expired_member_in_coalesced_batch_answered_separately(self):
        """Only the tight-deadline origin degrades; the patient one gets
        the exact shared solve."""

        async def scenario():
            backend = FakeBackend(delay=0.15)
            answerer = FakeAnswerer()
            async with Gateway(
                [backend],
                health_interval=0,
                degraded_answerer=answerer,
            ) as gateway:
                tight = asyncio.create_task(
                    gateway.query_detailed(1, deadline_ms=50.0)
                )
                patient = asyncio.create_task(
                    gateway.query_detailed(2, deadline_ms=10_000.0)
                )
                return await asyncio.gather(tight, patient)

        tight, patient = asyncio.run(scenario())
        assert tight.degraded
        assert not patient.degraded
        assert patient.value[0] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Deadlines at the worker pool (the serve hop)
# ----------------------------------------------------------------------
class TestPoolDeadlines:
    def test_zero_and_negative_budgets_rejected_at_submit(self, pool):
        before = pool.metrics().get(telemetry.DEADLINE_EXPIRED).value
        with pytest.raises(DeadlineExpired, match="before dispatch"):
            pool.query_many([0], deadline_ms=0.0)
        with pytest.raises(DeadlineExpired, match="before dispatch"):
            pool.query_many([0], deadline_ms=-25.0)
        after = pool.metrics().get(telemetry.DEADLINE_EXPIRED).value
        assert after == before + 2

    def test_microscopic_budget_expires_at_the_worker(self, pool):
        # 1 microsecond survives admission but is long spent by the time
        # the worker dequeues the task: the worker drops it.
        with pytest.raises(DeadlineExpired):
            pool.query_many([0], deadline_ms=0.001)

    def test_generous_budget_answers_exactly(self, pool, served_solver):
        scores = pool.query_many([3], deadline_ms=60_000.0)
        assert np.array_equal(scores, served_solver.query_many([3]))

    def test_topk_cache_hit_costs_no_budget(self, pool):
        pool.query_topk(2, 3)  # warm the top-k cache
        # A spent budget must not matter when the answer needs no worker.
        result = pool.query_topk(2, 3, deadline_ms=0.0)
        assert len(result.ids) == 3


# ----------------------------------------------------------------------
# Breakers / retry budget / hedging at the gateway
# ----------------------------------------------------------------------
class TestBreakerIntegration:
    def test_breaker_opens_after_consecutive_failures(self):
        async def scenario():
            bad = FakeBackend(name="bad", fail=True)
            good = FakeBackend(name="good")
            async with Gateway(
                [bad, good],
                health_interval=0,
                breaker_threshold=3,
                breaker_reset=60.0,
            ) as gateway:
                bad_seeds = [
                    s for s in range(64) if gateway.ring.route(s) == "bad"
                ][:8]
                assert len(bad_seeds) >= 3
                for seed in bad_seeds:
                    row = await gateway.query(seed)
                    assert row[0] == pytest.approx(float(seed))
                stats = await gateway.stats()
                return stats

        stats = asyncio.run(scenario())
        assert stats["backends"]["bad"]["breaker"] == "open"
        assert stats["backends"]["good"]["breaker"] == "closed"

    def test_open_breaker_skips_to_replica_without_calling(self):
        async def scenario():
            bad = FakeBackend(name="bad", fail=True)
            good = FakeBackend(name="good")
            async with Gateway(
                [bad, good],
                health_interval=0,
                breaker_threshold=1,
                breaker_reset=60.0,
            ) as gateway:
                bad_seeds = [
                    s for s in range(64) if gateway.ring.route(s) == "bad"
                ][:4]
                for seed in bad_seeds:
                    await gateway.query(seed)
                rejected = gateway.registry.get(
                    telemetry.BREAKER_REJECTED
                ).value
                return rejected, bad.calls

        rejected, bad_calls = asyncio.run(scenario())
        assert rejected >= 1, "open breaker must short-circuit the attempt"

    def test_half_open_probe_recovers_backend(self):
        async def scenario():
            flaky = FakeBackend(name="flaky", fail=True)
            good = FakeBackend(name="good")
            async with Gateway(
                [flaky, good],
                health_interval=0,
                breaker_threshold=1,
                breaker_reset=0.05,
            ) as gateway:
                seed = next(
                    s for s in range(64) if gateway.ring.route(s) == "flaky"
                )
                await gateway.query(seed)  # trips the breaker
                assert gateway.breakers["flaky"].state == CircuitBreaker.OPEN
                flaky.fail = False  # backend recovers
                await asyncio.sleep(0.06)  # reset timeout elapses
                await gateway.query(seed)  # half-open probe succeeds
                stats = await gateway.stats()
                closed = gateway.registry.get(
                    telemetry.BREAKER_CLOSED
                ).value
                probes = gateway.registry.get(
                    telemetry.BREAKER_PROBES
                ).value
                return stats, closed, probes

        stats, closed, probes = asyncio.run(scenario())
        assert stats["backends"]["flaky"]["breaker"] == "closed"
        assert closed >= 1
        assert probes >= 1

    def test_exhausted_retry_budget_stops_failover(self):
        async def scenario():
            bad = FakeBackend(name="bad", fail=True)
            good = FakeBackend(name="good")
            answerer = FakeAnswerer()
            async with Gateway(
                [bad, good],
                health_interval=0,
                breaker_threshold=100,  # keep the breaker out of the way
                retry_budget_ratio=0.0,
                retry_budget_burst=0.0,  # no retries at all
                degraded_answerer=answerer,
            ) as gateway:
                seed = next(
                    s for s in range(64) if gateway.ring.route(s) == "bad"
                )
                result = await gateway.query_detailed(seed)
                exhausted = gateway.registry.get(
                    telemetry.RETRY_BUDGET_EXHAUSTED
                ).value
                return result, exhausted, good.calls

        result, exhausted, good_calls = asyncio.run(scenario())
        assert exhausted >= 1
        assert good_calls == [], "failover must be refused without tokens"
        assert result.degraded, "refused failover degrades, not errors"


class TestHedging:
    def test_hedge_wins_against_slow_primary(self):
        async def scenario():
            slow = FakeBackend(name="slow", delay=0.5)
            fast = FakeBackend(name="fast", delay=0.0)
            async with Gateway(
                [slow, fast],
                health_interval=0,
                hedge_after=0.02,
            ) as gateway:
                seed = next(
                    s for s in range(64) if gateway.ring.route(s) == "slow"
                )
                started = time.monotonic()
                row = await gateway.query(seed)
                elapsed = time.monotonic() - started
                sent = gateway.registry.get(telemetry.HEDGE_SENT).value
                wins = gateway.registry.get(telemetry.HEDGE_WINS).value
                return row, elapsed, sent, wins, seed

        row, elapsed, sent, wins, seed = asyncio.run(scenario())
        assert row[0] == pytest.approx(float(seed))
        assert elapsed < 0.4, "the hedge must answer before the slow primary"
        assert sent == 1
        assert wins == 1

    def test_no_hedge_when_primary_is_fast(self):
        async def scenario():
            a = FakeBackend(name="a")
            b = FakeBackend(name="b")
            async with Gateway(
                [a, b],
                health_interval=0,
                hedge_after=0.25,
            ) as gateway:
                for seed in range(8):
                    await gateway.query(seed)
                return gateway.registry.get(telemetry.HEDGE_SENT).value

        assert asyncio.run(scenario()) == 0

    def test_percentile_hedge_spec_validated(self):
        backend = FakeBackend()
        with pytest.raises(InvalidParameterError, match="hedge_after"):
            Gateway([backend], hedge_after="fast")
        with pytest.raises(InvalidParameterError, match="hedge_after"):
            Gateway([backend], hedge_after="p0")
        with pytest.raises(InvalidParameterError, match="hedge_after"):
            Gateway([backend], hedge_after=-0.5)
        gateway = Gateway([backend], hedge_after="p95")
        assert gateway._hedge_percentile == pytest.approx(95.0)


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_cache_rung_serves_stale_exact_answer(self):
        async def scenario():
            backend = FakeBackend(name="only")
            async with Gateway(
                [backend],
                health_interval=0,
                breaker_threshold=100,
                retry_budget_burst=0.0,
                retry_budget_ratio=0.0,
            ) as gateway:
                exact = await gateway.query_detailed(4)
                backend.fail = True
                degraded = await gateway.query_detailed(4)
                cache_hits = gateway.registry.get(
                    telemetry.DEGRADED_FROM_CACHE
                ).value
                return exact, degraded, cache_hits

        exact, degraded, cache_hits = asyncio.run(scenario())
        assert not exact.degraded
        assert degraded.degraded
        assert degraded.error_bound == 0.0, "stale exact answers are exact"
        assert np.array_equal(degraded.value, exact.value)
        assert cache_hits == 1

    def test_cached_dense_row_owns_its_memory(self):
        async def scenario():
            backend = FakeBackend(name="only")
            async with Gateway(
                [backend],
                health_interval=0,
                breaker_threshold=100,
                retry_budget_burst=0.0,
                retry_budget_ratio=0.0,
            ) as gateway:
                seeds = list(range(8))
                await asyncio.gather(*(gateway.query(s) for s in seeds))
                batched = backend.calls
                backend.fail = True
                stale = await gateway.query_detailed(3)
                return batched, stale

        batched, stale = asyncio.run(scenario())
        assert batched == [list(range(8))], "the seeds must share one batch"
        assert stale.degraded and stale.value[0] == 3.0
        # A view into the (8, n) batch array would keep the whole batch
        # alive for as long as this one row sits in the cache.
        assert stale.value.base is None

    def test_approx_rung_when_cache_misses(self):
        async def scenario():
            backend = FakeBackend(name="only", fail=True)
            answerer = FakeAnswerer(bound=0.125)
            async with Gateway(
                [backend],
                health_interval=0,
                breaker_threshold=100,
                retry_budget_burst=0.0,
                retry_budget_ratio=0.0,
                degraded_answerer=answerer,
            ) as gateway:
                result = await gateway.query_detailed(9)
                approx = gateway.registry.get(
                    telemetry.DEGRADED_FROM_APPROX
                ).value
                return result, approx

        result, approx = asyncio.run(scenario())
        assert result.degraded
        assert result.error_bound == pytest.approx(0.125)
        assert approx == 1

    def test_no_rung_left_surfaces_backend_error(self):
        async def scenario():
            backend = FakeBackend(name="only", fail=True)
            async with Gateway(
                [backend],
                health_interval=0,
                breaker_threshold=100,
                retry_budget_burst=0.0,
                retry_budget_ratio=0.0,
                answer_cache_size=0,
            ) as gateway:
                with pytest.raises(BackendError, match="no replica"):
                    await gateway.query(11)

        asyncio.run(scenario())

    def test_degraded_topk_flows_through_the_wire(self, pool):
        """End to end over sockets: a degraded reply carries its flag and
        bound in the v3 trailer."""
        from repro import wire

        async def scenario():
            backend = FakeBackend(name="only", fail=True)
            answerer = FakeAnswerer(bound=0.2)
            async with Gateway(
                [backend],
                health_interval=0,
                retry_budget_burst=0.0,
                retry_budget_ratio=0.0,
                degraded_answerer=answerer,
            ) as gateway:
                async with GatewayServer(gateway) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    await wire.write_message(
                        writer,
                        wire.QueryRequest(
                            seeds=np.array([5], dtype=np.int64),
                            deadline_ms=5000.0,
                        ),
                    )
                    reply = await wire.read_message(reader)
                    writer.close()
                    await writer.wait_closed()
                    return reply

        reply = asyncio.run(scenario())
        assert reply.degraded
        assert reply.error_bound == pytest.approx(0.2)
        assert np.all(reply.scores == 0.5)


# ----------------------------------------------------------------------
# GatewayServer glue
# ----------------------------------------------------------------------
class TestGatewayServerDeadlines:
    def test_default_deadline_applies_when_request_has_none(self, pool):
        from repro import wire

        async def scenario():
            backend = FakeBackend(name="only", delay=0.5)
            answerer = FakeAnswerer()
            async with Gateway(
                [backend],
                health_interval=0,
                degraded_answerer=answerer,
            ) as gateway:
                server = GatewayServer(gateway, default_deadline_ms=50.0)
                async with server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    started = time.monotonic()
                    await wire.write_message(
                        writer,
                        wire.QueryRequest(seeds=np.array([3], dtype=np.int64)),
                    )
                    reply = await wire.read_message(reader)
                    elapsed = time.monotonic() - started
                    writer.close()
                    await writer.wait_closed()
                    return reply, elapsed

        reply, elapsed = asyncio.run(scenario())
        assert reply.degraded, "the server's default budget must bind"
        assert elapsed < 0.4

    def test_degradation_summary_over_batch(self):
        results = [
            GatewayResult(value=None),
            GatewayResult(value=None, degraded=True, error_bound=0.1),
            GatewayResult(value=None, degraded=True, error_bound=0.3),
        ]
        flags = GatewayServer._degradation(results)
        assert flags == {"degraded": True, "error_bound": 0.3}
        assert GatewayServer._degradation([GatewayResult(value=None)]) == {
            "degraded": False, "error_bound": 0.0,
        }


# ----------------------------------------------------------------------
# Engine-level budgets: best-effort iterates instead of overruns
# ----------------------------------------------------------------------
class TestEngineDeadline:
    def test_expired_deadline_returns_best_effort_not_hang(
        self, served_solver, small_graph
    ):
        engine = served_solver.engine
        past = time.monotonic() - 1.0
        scores = engine.query_many([0, 1], deadline=past)
        assert scores.shape == (2, small_graph.n_nodes)
        assert np.all(np.isfinite(scores))

    def test_generous_deadline_matches_unbounded_answer(self, served_solver):
        engine = served_solver.engine
        bounded = engine.query_many([2], deadline=time.monotonic() + 60.0)
        unbounded = engine.query_many([2])
        assert np.array_equal(bounded, unbounded)

    def test_gmres_deadline_caps_iterations(self, dd_matrix):
        from repro.linalg.gmres import gmres

        rng = np.random.default_rng(0)
        b = rng.standard_normal(dd_matrix.shape[0])
        # An already-expired deadline: the solve stops at the first check
        # and still hands back a finite best-effort iterate + residual.
        result = gmres(dd_matrix, b, tol=1e-14,
                       deadline=time.monotonic() - 1.0)
        assert np.all(np.isfinite(result.x))
        unbounded = gmres(dd_matrix, b, tol=1e-14)
        assert result.n_iterations <= unbounded.n_iterations
