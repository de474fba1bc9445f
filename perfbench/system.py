"""Set-up, the serving stack, the load generator, the update probe, and
the workload drivers.

The open-loop load generator, ``GatewayServer`` -> ``Gateway`` ->
``RemoteBackend`` -> ``PoolServer`` on loopback and the pool's client side
run in one process; the pool has a single worker process.  The program is
driven only through its public API.
"""

from __future__ import annotations

import asyncio
import ctypes
import functools
import gc
import resource
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro import (
    ArtifactStore,
    BePI,
    DynamicRWR,
    Gateway,
    GatewayServer,
    PoolServer,
    RemoteBackend,
    WorkerPool,
    open_query_engine,
    tracing,
    wire,
)
from repro.core import topk
from repro.telemetry import MetricsRegistry

from perfbench import calibrate, layers, oracle
from perfbench.updates import Generation, apply_update, replay
from perfbench.workloads import (
    BLOCK_SIZE, RESTART, TOLERANCE, TOP_K, Workload, repeat_share,
)

#: Set-up rounds per run.  The first one serves the timed window; each of
#: the others runs after one slice of that window and carries a share of
#: the update probe.  So ``setup_s`` and ``update_p50_ms`` are medians of
#: samples spread through the whole run, like the latencies, instead of
#: samples taken back to back at one end of it while the machine's speed
#: drifts.
SETUP_ROUNDS = 9
SLICES = SETUP_ROUNDS - 1
#: Seeds asked of a pool after each update batch is acknowledged.
CHECKS_PER_UPDATE = 2
#: Alternating traced/untraced slices of a traced run (seconds), so the
#: tracing overhead is measured on the same traffic and cache state.
TRACE_SLICE_S = 1.0


def settled_rss_mb() -> float:
    """Resident set size of this process once garbage is collected and
    freed heap pages are handed back (glibc ``malloc_trim``), so the
    reading is live memory rather than whatever the allocator kept."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: read RSS as it stands
        pass
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3


def percentile(values: List[float], q: float) -> float:
    """Percentile where failed operations count as infinitely slow."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="higher"))


# ----------------------------------------------------------------------
# Set-up: graph in memory -> preprocess -> publish -> pool boot -> answer
# ----------------------------------------------------------------------
@dataclass
class Round:
    """One set-up round and what it measured."""

    store: ArtifactStore
    published: Path
    pool: WorkerPool
    first_reply: Any
    seconds: float
    #: ``perf_counter`` at the round's midpoint, for ``Meter.factor_at``.
    at: float
    boot_s: float
    publish_ms: float
    publish_mb: float
    build: Dict[str, float]


class SetUps:
    """Every set-up round of a run; the first one is kept for serving."""

    def __init__(self, graph, root: Path, meter: calibrate.Meter):
        self.graph, self.root, self.meter = graph, root, meter
        self.first_seed = int(np.argmax(graph.out_degrees()))
        self.rounds: List[Round] = []
        self.build_peak_rss_mb = 0.0

    def round(self) -> Round:
        """Run the whole set-up once, in a store directory of its own,
        after a sample of the machine's speed: the rounds are spread
        through the run, and so are the samples."""
        self.meter.sample()
        start = time.perf_counter()
        solver = BePI(c=RESTART, tol=TOLERANCE).preprocess(self.graph)
        store = ArtifactStore(self.root / f"store-{len(self.rounds)}")
        published = time.perf_counter()
        path = store.publish(solver)
        booting = time.perf_counter()
        pool = WorkerPool(store.root, n_workers=1)
        booted = time.perf_counter()
        reply = pool.query_topk(self.first_seed, TOP_K)
        seconds = time.perf_counter() - start
        if not self.rounds:  # the process's first build sets its peak
            self.build_peak_rss_mb = peak_rss_mb()
        self.rounds.append(Round(
            store, path, pool, reply, seconds, start + seconds / 2, booted - booting,
            1e3 * (booting - published), layers.directory_mb(path),
            layers.build_metrics(solver.stats),
        ))
        return self.rounds[-1]

    @property
    def serving(self) -> Round:
        return self.rounds[0]

    def seconds(self) -> List[float]:
        return [r.seconds for r in self.rounds]

    def build(self) -> Dict[str, float]:
        """Median over the rounds of each ``build.*`` metric and of the
        pool boot time."""
        build = {
            name: float(np.median([r.build[name] for r in self.rounds]))
            for name in self.rounds[0].build
        }
        build["pool.boot_s"] = float(np.median([r.boot_s for r in self.rounds]))
        return build


# ----------------------------------------------------------------------
# What a run observed
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What one workload run observed; ``report`` turns it into metrics."""

    latencies_ms: List[float] = field(default_factory=list)
    #: ``perf_counter`` when each operation was made (``update_at``: each
    #: update batch), for ``Meter.factor_at``.
    latency_at: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    update_ms: List[float] = field(default_factory=list)
    update_at: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    serve_rss_mb: List[float] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)
    traced_ms: List[float] = field(default_factory=list)
    untraced_ms: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Serving stack and open-loop load generator
# ----------------------------------------------------------------------
class Stack:
    """``GatewayServer`` -> ``Gateway`` -> ``RemoteBackend`` -> ``PoolServer``."""

    def __init__(self, pool: WorkerPool, tracer: tracing.Tracer):
        self.pool, self.tracer = pool, tracer
        self.registry = MetricsRegistry()

    async def __aenter__(self) -> "Stack":
        self.pool_server = await PoolServer(self.pool).start()
        host, port = self.pool_server.address
        self.gateway = Gateway(
            [RemoteBackend(host, port)], registry=self.registry, tracer=self.tracer
        )
        await self.gateway.start()
        self.gateway_server = await GatewayServer(self.gateway).start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        # Each pause lets the peer's connection handler see EOF and finish
        # before the loop shuts down.
        await self.gateway_server.close()
        await asyncio.sleep(0.05)
        await self.gateway.close()
        await asyncio.sleep(0.05)
        await self.pool_server.close()


@dataclass
class Request:
    seed: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: Any = None
    traced: bool = False


async def drive(
    address, seeds, offsets, connections: int, on_dispatch=None
) -> tuple:
    """Send ``seeds`` at ``offsets`` (open loop) over ``connections``
    client connections; returns the requests and the generator lateness."""
    idle: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        idle.put_nowait(await asyncio.open_connection(*address))
    start = time.perf_counter() + 0.01
    requests = [Request(int(s), start + float(t)) for s, t in zip(seeds, offsets)]
    late: List[float] = []

    async def send(request: Request) -> None:
        reader, writer = await idle.get()
        try:
            request.sent = time.perf_counter()
            await wire.write_message(
                writer, wire.TopKRequest(seeds=np.array([request.seed]), k=TOP_K)
            )
            request.reply = await wire.read_message(reader)
        except (OSError, wire.ProtocolError, asyncio.IncompleteReadError) as exc:
            request.reply = exc
            writer.close()
            reader, writer = await asyncio.open_connection(*address)
        finally:
            request.done = time.perf_counter()
            idle.put_nowait((reader, writer))

    tasks = []
    for request in requests:
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - request.due)
        if on_dispatch is not None:
            request.traced = on_dispatch(request.due - start)
        tasks.append(asyncio.create_task(send(request)))
    await asyncio.gather(*tasks)
    while not idle.empty():
        _, writer = idle.get_nowait()
        writer.close()
        await writer.wait_closed()
    # Let the server side see the EOFs and finish its connection handlers.
    await asyncio.sleep(0.05)
    return requests, late


# ----------------------------------------------------------------------
# Verification of top-k replies against per-generation reference rows
# ----------------------------------------------------------------------
def verify_topk(
    requests: List[Request],
    generations: List[Generation],
    probe: layers.Probe,
    traced: bool,
    registry: MetricsRegistry,
) -> List[bool]:
    """Per request: an exact, non-degraded top-k of a generation it may
    see -- no older than the last one acknowledged before it was sent, no
    newer than the last one handed to ``DynamicRWR`` before it returned."""
    handoffs = np.array([g.handoff for g in generations])
    acks = np.array([g.ack for g in generations])
    wanted: Dict[int, Dict[int, List[int]]] = defaultdict(lambda: defaultdict(list))
    for index, request in enumerate(requests):
        lo = max(int(np.searchsorted(acks, request.sent, side="right")) - 1, 0)
        hi = max(int(np.searchsorted(handoffs, request.done, side="right")) - 1, lo)
        for g in range(lo, hi + 1):
            wanted[g][request.seed].append(index)
    matched = [False] * len(requests)
    # Traced runs replay one seed per call: the k=1 shape the pool serves.
    block = 1 if traced else BLOCK_SIZE
    probe.enabled = traced
    for g, by_seed in sorted(wanted.items()):
        generation = generations[g]
        engine = open_query_engine(generation.path)
        h = oracle.build_h(generation.adjacency, RESTART)
        limit = RESTART * generation.error_bound + oracle.RESIDUAL_L1
        seeds = sorted(by_seed)
        for lo in range(0, len(seeds), block):
            chunk = seeds[lo : lo + block]
            with registry.activate():
                rows = engine.query_many(chunk)
            for seed, row, residual in zip(
                chunk, rows, oracle.residuals(h, RESTART, chunk, rows)
            ):
                if traced:
                    topk.topk_from_scores(row, seed, TOP_K)
                if residual > limit:
                    continue
                for index in by_seed[seed]:
                    reply = requests[index].reply
                    if (
                        isinstance(reply, wire.TopKReply)
                        and not reply.degraded
                        and len(reply.pairs) == 1
                        and oracle.topk_matches(reply.pairs[0], row, seed, TOP_K)
                    ):
                        matched[index] = True
    probe.enabled = False
    return matched


def ask_pool(pool: WorkerPool, seed: int) -> Request:
    """One top-k answer straight from the pool, timed like a request."""
    request = Request(int(seed), time.perf_counter())
    request.sent = request.due
    result = pool.query_topk(int(seed), TOP_K)
    request.done = time.perf_counter()
    request.reply = wire.TopKReply(pairs=[topk.to_pairs(result)])
    return request


def first_answer(setups: SetUps, index: int) -> Request:
    """A round's first answer, as a request made before any update."""
    reply = setups.rounds[index].first_reply
    return Request(setups.first_seed, 0.0, 0.0, 0.0,
                   wire.TopKReply(pairs=[topk.to_pairs(reply)]))


def check(run: Run, requests: List[Request], generations: List[Generation]) -> None:
    """Count ``requests`` as operations, failed where ``verify_topk``
    finds no generation they may see whose answer they match."""
    matched = verify_topk(requests, generations, layers.Probe(), False,
                          MetricsRegistry())
    run.attempted += len(matched)
    run.failed += matched.count(False)


def probe_round(setups: SetUps, graph, batches, seeds, run: Run,
                probe: layers.Probe, traced: bool) -> None:
    """One more set-up round, then update batches applied back to back
    through ``DynamicRWR`` over its store, each acknowledged by its pool
    and checked; the round's pool and store are removed afterwards."""
    index = len(setups.rounds)
    rnd = setups.round()
    try:
        dyn = DynamicRWR.from_store(rnd.store)
        checks = [first_answer(setups, index)]
        generations = [Generation(rnd.published.name, rnd.published, 0.0)]
        for batch, batch_seeds in zip(batches, seeds):
            probe.enabled = traced
            generation = apply_update(dyn, rnd.pool, batch)
            probe.enabled = False
            generations.append(generation)
            run.update_ms.append(1e3 * (generation.ack - generation.handoff))
            run.update_at.append((generation.ack + generation.handoff) / 2)
            checks += [ask_pool(rnd.pool, seed) for seed in batch_seeds]
        run.info["full_rebuilds"] = run.info.get("full_rebuilds", 0) + dyn.n_full_rebuilds
        replay(generations, graph.adjacency)
        run.attempted += len(batches)
        check(run, checks, generations)
    finally:
        rnd.pool.stop()
        shutil.rmtree(rnd.store.root, ignore_errors=True)


def probe_rounds(setups: SetUps, graph, inputs, run: Run, probe: layers.Probe,
                 traced: bool):
    """One call per slice of the timed window, each running the next probe
    round with its share of the update batches."""
    per_round = len(inputs["updates"]) // SLICES
    for part in range(SLICES):
        share = slice(part * per_round, (part + 1) * per_round)
        yield functools.partial(
            probe_round, setups, graph, inputs["updates"][share],
            inputs["check_seeds"][share], run, probe, traced,
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_batch(workload: Workload, setups: SetUps, graph, inputs, seconds: float,
              probe: layers.Probe, traced: bool, registry: MetricsRegistry) -> Run:
    """Closed loop over distinct 64-seed blocks through the in-process
    engine, in ``SLICES`` slices with a probe round after each."""
    run = Run()
    h = oracle.build_h(graph.adjacency, RESTART)
    engine = open_query_engine(setups.serving.store.root)
    blocks = inputs["blocks"]
    engine.query_many(list(blocks[0]))  # page in the memory maps
    # Per-layer numbers come from the traced blocks alone, so the engine's
    # spans and the wrappers cover the same calls.
    untraced_registry = MetricsRegistry()
    index = 0
    for after_slice in probe_rounds(setups, graph, inputs, run, probe, traced):
        deadline = time.perf_counter() + seconds / SLICES
        while time.perf_counter() < deadline:
            block = [int(s) for s in blocks[index % len(blocks)]]
            traced_block = traced and index % 2 == 1
            probe.enabled = traced_block
            start = time.perf_counter()
            if traced_block:
                with registry.activate(), tracing.trace("batch"):
                    rows = engine.query_many(block)
            else:
                with untraced_registry.activate():
                    rows = engine.query_many(block)
            elapsed = 1e3 * (time.perf_counter() - start)
            probe.enabled = False
            ok = bool(np.all(
                oracle.residuals(h, RESTART, block, rows) <= oracle.RESIDUAL_L1
            ))
            run.attempted += 1
            run.failed += not ok
            run.latencies_ms.append(elapsed if ok else float("inf"))
            run.latency_at.append(start)
            (run.traced_ms if traced_block else run.untraced_ms).append(elapsed)
            index += 1
        rows = None
        run.serve_rss_mb.append(settled_rss_mb())
        after_slice()
    run.info["seeds_per_s"] = 1e3 * BLOCK_SIZE * len(run.latencies_ms) / sum(
        t for t in run.latencies_ms if np.isfinite(t)
    )
    check(run, [first_answer(setups, 0)], [serving_generation(setups, graph)])
    return run


def serving_generation(setups: SetUps, graph) -> Generation:
    published = setups.serving.published
    return Generation(published.name, published, 0.0, adjacency=graph.adjacency)


def plan_slices(times: np.ndarray, seconds: float) -> List[slice]:
    """Split an arrival schedule into ``SLICES`` equal spans of time."""
    edges = np.searchsorted(times, np.arange(1, SLICES) * seconds / SLICES)
    bounds = [0, *edges.tolist(), len(times)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_online(workload: Workload, setups: SetUps, graph, inputs, seconds: float,
               probe: layers.Probe, traced: bool, registry: MetricsRegistry,
               tracer: tracing.Tracer) -> Run:
    """Open-loop single-seed top-k traffic through the gateway, in
    ``SLICES`` slices with a probe round after each."""
    run = Run()
    plan = inputs["plan"]
    pool = setups.serving.pool
    cache_before: Dict[str, float] = {}
    gateway_snapshot: Dict[str, Any] = {}

    def on_dispatch(offset: float) -> bool:
        on = traced and int(offset / TRACE_SLICE_S) % 2 == 1
        tracer.sample_rate = 1.0 if on else 0.0
        probe.enabled = on
        return on

    async def serve() -> tuple:
        requests: List[Request] = []
        late: List[float] = []
        async with Stack(pool, tracer) as stack:
            address = stack.gateway_server.address
            await drive(address, plan["warm_seeds"], plan["warm_times"],
                        workload.connections)
            cache_before.update(pool.topk_cache_stats())
            rounds = probe_rounds(setups, graph, inputs, run, probe, traced)
            parts = plan_slices(plan["times"], seconds)
            for index, (part, after_slice) in enumerate(zip(parts, rounds)):
                # Offsets from the slice's own start keep the Poisson gaps.
                done, lateness = await drive(
                    address, plan["seeds"][part],
                    plan["times"][part] - index * seconds / SLICES,
                    workload.connections, on_dispatch,
                )
                probe.enabled = False
                tracer.sample_rate = 0.0
                requests += done
                late += lateness
                run.serve_rss_mb.append(pool.rss_bytes()[0] / 1e6)
                # The loop keeps answering the gateway's health polls
                # while the round runs beside it.
                await asyncio.to_thread(after_slice)
            gateway_snapshot.update(stack.registry.snapshot())
        return requests, late

    requests, late = asyncio.run(serve())
    run.late_ms = [1e3 * t for t in late]
    cache_after = pool.topk_cache_stats()
    run.info["cache"] = {
        key: cache_after[key] - cache_before.get(key, 0.0) for key in ("hits", "misses")
    }
    run.info["worker"] = pool.metrics().snapshot()
    run.info["gateway"] = gateway_snapshot
    run.info["coalesce_waits"] = [
        r["duration"] for r in tracer.records() if r["name"] == "gateway.coalesce_wait"
    ]
    generation = serving_generation(setups, graph)
    matched = verify_topk(requests, [generation], probe, traced, registry)
    for request, ok in zip(requests, matched):
        latency = 1e3 * (request.done - request.due)
        run.latencies_ms.append(latency if ok else float("inf"))
        run.latency_at.append(request.due)
        (run.traced_ms if request.traced else run.untraced_ms).append(latency)
    run.attempted += len(requests)
    run.failed += matched.count(False)
    run.info["repeat_share"] = repeat_share(plan["seeds"])
    check(run, [first_answer(setups, 0)], [generation])
    return run
