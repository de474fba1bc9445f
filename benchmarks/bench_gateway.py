"""Gateway benchmark: coalescing, shedding, and identity through the front door.

Measures what the asyncio gateway buys a serve tier over clients hitting
a :class:`~repro.serve.WorkerPool` one seed at a time:

- **coalescing** — N concurrent single-seed clients are merged into
  batched ``query_many`` solves; the benchmark drives closed-loop client
  rounds and reports the mean seeds-per-solve the backends actually saw
  (acceptance: mean batch size > 1).
- **admission control** — a burst far above ``max_pending`` is thrown at
  the gateway; overflow is shed with the typed ``Overloaded`` reply and
  the p99 latency of the *accepted* requests stays bounded instead of
  growing with the queue (acceptance: sheds > 0, accepted p99 recorded).
- **identity** — uncoalesced (sequential) gateway answers are
  bit-identical to direct ``WorkerPool.query_many([seed])`` calls; the
  coalesced rounds are checked against direct per-seed answers to solver
  tolerance (batch *composition* shifts bits at the 1e-16 level because
  the engine solves a batch's systems together; batch order never does).

Results land in ``BENCH_gateway.json`` (``--output``).

Run modes
---------
``--smoke``
    Scale-10 graph, small client counts, in-process gateway over a
    2-worker pool.  Fast enough for CI.
default (full)
    Scale-12 graph, more clients and rounds, same assertions plus a
    stricter coalescing target.
``--gateway HOST:PORT``
    Drive an *external* gateway (started with ``repro gateway``) over the
    wire protocol instead of building one in-process — this is how the CI
    smoke job exercises the real multi-process topology (2 ``repro serve
    --listen`` backends behind one gateway).  Pass ``--backend HOST:PORT``
    of one replica to enable the direct-comparison identity check.

Usage::

    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke
    PYTHONPATH=src python benchmarks/bench_gateway.py \\
        --smoke --gateway 127.0.0.1:7410 --backend 127.0.0.1:7411
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import BePI, generate_rmat, wire
from repro.gateway import Gateway, LocalBackend, Overloaded, parse_endpoint
from repro.serve import WorkerPool
from repro.store import ArtifactStore

RESTART_PROBABILITY = 0.05
TOLERANCE = 1e-11
HUB_RATIO = 0.2

#: Tolerance for answers whose coalesced batch composition differs from
#: the reference batch (same-set batches are checked bit-identical).
CROSS_BATCH_ATOL = 1e-12


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


# ----------------------------------------------------------------------
# Query transports: in-process gateway object, or wire frames to a live one
# ----------------------------------------------------------------------
class LocalTransport:
    """Drives an in-process :class:`Gateway` (no sockets)."""

    def __init__(self, gateway: Gateway):
        self.gateway = gateway

    def session(self) -> "LocalTransport":
        return self  # the gateway object is shared; no per-client state

    async def close_session(self, session) -> None:
        pass

    async def query(self, session, seed: int) -> np.ndarray:
        return await self.gateway.query(seed)

    async def stats(self) -> dict:
        return await self.gateway.stats()


class WireTransport:
    """Drives an external gateway over the length-prefixed wire protocol.

    Each closed-loop client holds one persistent connection (the
    protocol is strictly request/reply per connection, so concurrency
    comes from many connections — exactly how real clients look).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def session(self) -> dict:
        return {"streams": None}

    async def _streams(self, session):
        if session["streams"] is None:
            session["streams"] = await asyncio.open_connection(
                self.host, self.port
            )
        return session["streams"]

    async def close_session(self, session) -> None:
        if session["streams"] is not None:
            _, writer = session["streams"]
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            session["streams"] = None

    async def query(self, session, seed: int) -> np.ndarray:
        reader, writer = await self._streams(session)
        await wire.write_message(
            writer, wire.QueryRequest(seeds=np.array([seed], dtype=np.int64))
        )
        reply = await wire.read_message(reader)
        if isinstance(reply, wire.OverloadedReply):
            raise Overloaded(
                pending=reply.pending, limit=reply.limit,
                retry_after=reply.retry_after,
            )
        if isinstance(reply, wire.DenseReply):
            return reply.scores[0]
        raise RuntimeError(f"unexpected reply {type(reply).__name__}: {reply}")

    async def stats(self) -> dict:
        session = self.session()
        try:
            reader, writer = await self._streams(session)
            await wire.write_message(writer, wire.StatsRequest())
            reply = await wire.read_message(reader)
        finally:
            await self.close_session(session)
        if not isinstance(reply, wire.StatsReply):
            raise RuntimeError(f"unexpected stats reply: {reply}")
        return reply.stats


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
async def _coalesce_phase(transport, n_clients: int, rounds: int, seeds):
    """Closed-loop clients in lockstep rounds: every round all clients
    fire one single-seed query concurrently — the coalescer's best case,
    and what a barraged serve tier actually sees."""
    barrier = asyncio.Barrier(n_clients)
    latencies: List[float] = []
    answers = {}

    async def client(client_id: int):
        session = transport.session()
        try:
            for round_no in range(rounds):
                await barrier.wait()
                seed = seeds[(client_id + round_no * n_clients) % len(seeds)]
                start = time.perf_counter()
                row = await transport.query(session, seed)
                latencies.append(time.perf_counter() - start)
                answers[(client_id, round_no)] = (seed, row)
        finally:
            await transport.close_session(session)

    await asyncio.gather(*(client(c) for c in range(n_clients)))
    return answers, latencies


async def _overload_phase(transport, burst: int, seeds):
    """One burst far above max_pending: overflow must shed, not queue."""
    async def one(index: int):
        session = transport.session()
        start = time.perf_counter()
        try:
            await transport.query(session, seeds[index % len(seeds)])
            return "ok", time.perf_counter() - start
        except Overloaded:
            return "shed", time.perf_counter() - start
        finally:
            await transport.close_session(session)

    outcomes = await asyncio.gather(*(one(i) for i in range(burst)))
    accepted = [seconds for kind, seconds in outcomes if kind == "ok"]
    shed = sum(1 for kind, _ in outcomes if kind == "shed")
    return accepted, shed


async def _sequential_identity_phase(transport, expected_rows):
    """Sequential queries never coalesce with anything: each is a batch
    of one, so the answer must be bit-identical to the direct pool's
    ``query_many([seed])`` row."""
    session = transport.session()
    mismatches = []
    try:
        for seed, expected in expected_rows.items():
            row = await transport.query(session, seed)
            if not np.array_equal(row, expected):
                mismatches.append(seed)
    finally:
        await transport.close_session(session)
    return mismatches


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
async def _drive(transport, graph_nodes, expected_rows, cfg):
    seeds = sorted(expected_rows)

    answers, latencies = await _coalesce_phase(
        transport, cfg["clients"], cfg["rounds"], seeds
    )
    for (client_id, round_no), (seed, row) in answers.items():
        expected = expected_rows[seed]
        if not np.allclose(row, expected, rtol=0, atol=CROSS_BATCH_ATOL):
            raise AssertionError(
                f"client {client_id} round {round_no}: seed {seed} deviates "
                f"from the direct answer by "
                f"{np.max(np.abs(row - expected)):.3e}"
            )

    mismatches = await _sequential_identity_phase(transport, expected_rows)
    if mismatches:
        raise AssertionError(
            f"sequential gateway answers not bit-identical to the direct "
            f"pool for seeds {mismatches}"
        )

    accepted, shed = await _overload_phase(transport, cfg["burst"], seeds)
    stats = await transport.stats()
    return {
        "coalesce_latency": latencies,
        "accepted_latency": accepted,
        "shed": shed,
        "stats": stats,
    }


def _build_store(scale: int, workdir: Path):
    graph = generate_rmat(scale, 8 * (2**scale), seed=13)
    solver = BePI(
        c=RESTART_PROBABILITY, tol=TOLERANCE, hub_ratio=HUB_RATIO
    ).preprocess(graph)
    store = ArtifactStore(workdir / "store")
    store.publish(solver)
    print(f"graph: R-MAT scale {scale} — {graph.n_nodes:,} nodes, "
          f"{graph.n_edges:,} edges")
    return graph, store


def _expected_rows(pool: WorkerPool, n_nodes: int, n_seeds: int):
    rng = np.random.default_rng(29)
    seeds = [int(s) for s in rng.choice(n_nodes, size=n_seeds, replace=False)]
    return {seed: pool.query_many([seed])[0] for seed in seeds}


async def _run_local(store_root, cfg):
    with WorkerPool(store_root, n_workers=2) as pool:
        n_nodes = pool.worker_stats()[0]["n_nodes"]
        expected = _expected_rows(pool, n_nodes, cfg["n_seeds"])
        gateway = Gateway(
            [LocalBackend(pool)],
            max_pending=cfg["max_pending"],
            health_interval=0,
        )
        async with gateway:
            return await _drive(gateway_transport(gateway), n_nodes, expected, cfg)


def gateway_transport(gateway: Gateway) -> LocalTransport:
    return LocalTransport(gateway)


async def _run_external(gateway_endpoint, backend_endpoint, cfg):
    transport = WireTransport(*gateway_endpoint)
    stats = await transport.stats()
    print(f"external gateway: max_pending={stats['max_pending']} "
          f"backends={list(stats['backends'])}")
    n_nodes = cfg["n_nodes"]
    direct = WireTransport(*backend_endpoint) if backend_endpoint else None
    if direct is not None:
        # The replica knows its graph; don't trust the CLI default.
        reported = (await direct.stats()).get("n_nodes")
        if reported:
            n_nodes = int(reported)
    rng = np.random.default_rng(29)
    seeds = [
        int(s)
        for s in rng.choice(n_nodes, size=min(cfg["n_seeds"], n_nodes),
                            replace=False)
    ]
    # Expected rows come from one replica directly (every replica answers
    # a given batch identically — the artifacts are immutable).  Without
    # an exposed replica, the gateway's own sequential answers are the
    # reference — that still validates coalesced == solo.
    reference = direct if direct is not None else transport
    expected = {}
    session = reference.session()
    try:
        for seed in sorted(set(seeds)):
            expected[seed] = await reference.query(session, seed)
    finally:
        await reference.close_session(session)
    return await _drive(transport, None, expected, cfg)


def run(args) -> dict:
    cfg = {
        "n_seeds": 8 if args.smoke else 24,
        "n_nodes": args.n_nodes,
        "clients": args.clients,
        "rounds": args.rounds,
        "burst": args.burst,
        "max_pending": args.max_pending,
    }
    if args.gateway:
        result = asyncio.run(
            _run_external(
                parse_endpoint(args.gateway),
                parse_endpoint(args.backend) if args.backend else None,
                cfg,
            )
        )
        topology = "external"
        scale = None
    else:
        import tempfile

        scale = 10 if args.smoke else 12
        with tempfile.TemporaryDirectory() as tmp:
            _, store = _build_store(scale, Path(tmp))
            result = asyncio.run(_run_local(store.root, cfg))
        topology = "in-process"

    stats = result["stats"]
    mean_batch = stats["coalesce"]["mean_batch"]
    accepted = result["accepted_latency"]
    coalesce_p99 = _percentile(result["coalesce_latency"], 99)
    accepted_p99 = _percentile(accepted, 99)

    print(f"coalescing  {stats['coalesce']['batches']:.0f} backend solves for "
          f"{stats['requests'] - result['shed']:.0f} admitted requests "
          f"(mean batch {mean_batch:.1f} seeds)")
    print(f"latency     coalesce-phase p50 "
          f"{_percentile(result['coalesce_latency'], 50) * 1e3:.1f}ms  "
          f"p99 {coalesce_p99 * 1e3:.1f}ms")
    print(f"overload    burst {cfg['burst']} vs max_pending "
          f"{stats['max_pending']}: {len(accepted)} accepted, "
          f"{result['shed']} shed; accepted p99 {accepted_p99 * 1e3:.1f}ms")

    assert mean_batch > 1, (
        f"no coalescing observed: mean backend batch {mean_batch:.2f} seeds"
    )
    assert result["shed"] > 0, "overload burst shed nothing"
    assert accepted, "overload burst served nothing"
    assert accepted_p99 < args.p99_budget, (
        f"accepted p99 {accepted_p99:.3f}s exceeds the {args.p99_budget}s "
        "budget — shedding is not bounding latency"
    )
    if not args.smoke and not args.gateway:
        assert mean_batch >= 2, (
            f"full run expects mean batch >= 2, got {mean_batch:.2f}"
        )

    return {
        "benchmark": "gateway",
        "mode": "smoke" if args.smoke else "full",
        "topology": topology,
        "scale": scale,
        "config": cfg,
        "coalesce": {
            "backend_solves": stats["coalesce"]["batches"],
            "mean_batch_seeds": mean_batch,
            "p50_seconds": _percentile(result["coalesce_latency"], 50),
            "p99_seconds": coalesce_p99,
        },
        "overload": {
            "burst": cfg["burst"],
            "max_pending": stats["max_pending"],
            "accepted": len(accepted),
            "shed": result["shed"],
            "accepted_p99_seconds": accepted_p99,
        },
        "gateway_stats": {
            "requests": stats["requests"],
            "sheds": stats["sheds"],
            "failovers": stats["failovers"],
            "backend_errors": stats["backend_errors"],
            "backends": stats["backends"],
        },
        "identity": "sequential answers bit-identical; coalesced answers "
                    f"within {CROSS_BATCH_ATOL} of direct per-seed rows",
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast correctness + relative checks (CI)")
    parser.add_argument("--gateway", metavar="HOST:PORT", default=None,
                        help="drive an external repro gateway instead of an "
                             "in-process one")
    parser.add_argument("--backend", metavar="HOST:PORT", default=None,
                        help="with --gateway: one replica's address for the "
                             "direct-comparison identity check")
    parser.add_argument("--n-nodes", type=int, default=1024,
                        help="with --gateway and no --backend: node count "
                             "to draw seeds from (default: 1024)")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent closed-loop clients "
                             "(default: 8 smoke / 24 full)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="lockstep rounds per client (default: 4 / 10)")
    parser.add_argument("--burst", type=int, default=None,
                        help="overload burst size (default: 64 / 192)")
    parser.add_argument("--max-pending", type=int, default=16,
                        help="admission limit for the in-process gateway "
                             "(default: 16)")
    parser.add_argument("--p99-budget", type=float, default=5.0,
                        help="accepted-p99 ceiling under overload, seconds "
                             "(default: 5.0)")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_gateway.json"),
                        help="result file (default: BENCH_gateway.json)")
    args = parser.parse_args(argv)
    if args.clients is None:
        args.clients = 8 if args.smoke else 24
    if args.rounds is None:
        args.rounds = 4 if args.smoke else 10
    if args.burst is None:
        args.burst = 64 if args.smoke else 192

    record = run(args)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"bench_gateway {'smoke' if args.smoke else 'full'}: "
          "all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
