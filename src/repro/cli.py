"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``       structural statistics of an edge-list graph
``build``       preprocess and export a serving artifact directory (or store)
``query``       top-k RWR ranking for a seed (edge list, artifact directory,
                or store root)
``serve``       answer seed batches from worker processes over an artifact dir
                (``--listen HOST:PORT`` exposes the pool over the wire protocol;
                ``--follow-store SECONDS`` hot-swaps onto newly published
                generations while serving)
``update``      apply an edge-update batch to a store's current generation and
                publish the corrected artifacts as the next generation
``gateway``     coalescing/shedding/sharding front door over serve backends
``top``         live terminal view of a serving fleet (QPS, latency
                percentiles, queue depths, cache hit rate, generations,
                recent slow queries) polled over ``OP_METRICS``
``compare``     run the method comparison matrix on one graph
``datasets``    list the built-in stand-in datasets
``metrics``     render a telemetry snapshot (JSON file written by --metrics-out)

``build``, ``query`` and ``serve`` accept ``--metrics-out PATH`` to export
the run's metrics (see :mod:`repro.telemetry`) as a JSON snapshot; ``serve``
keeps the file fresh after every batch, so a long-running pool can be
observed with ``repro-cli metrics PATH`` from another terminal.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import (
    BePI,
    BePIB,
    BePIS,
    BearSolver,
    GMRESSolver,
    LUSolver,
    NBLinSolver,
    PowerSolver,
    load_edge_list,
)
from repro.approximate import MonteCarloSolver
from repro.applications import top_k
from repro.bench.harness import ExperimentRunner, format_records
from repro.graph.stats import compute_stats
from repro.persistence import artifact_nbytes, load_solver, save_artifacts
from repro.telemetry import MetricsRegistry

_METHODS = {
    "bepi": BePI,
    "bepi-s": BePIS,
    "bepi-b": BePIB,
    "bear": BearSolver,
    "lu": LUSolver,
    "gmres": GMRESSolver,
    "power": PowerSolver,
    "nblin": NBLinSolver,
    "montecarlo": MonteCarloSolver,
}


def _hub_ratio_arg(value: str):
    """``--hub-ratio`` accepts a float in (0, 1] or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"hub ratio must be a float or 'auto', got {value!r}"
        )


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=sorted(_METHODS), default="bepi",
                        help="RWR method (default: bepi)")
    parser.add_argument("--c", type=float, default=0.05,
                        help="restart probability (default: 0.05)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="error tolerance (default: 1e-9)")
    parser.add_argument("--hub-ratio", type=_hub_ratio_arg, default=None,
                        help="SlashBurn hub selection ratio k, or 'auto' to "
                             "sweep candidates and pick the |S| minimizer "
                             "(BePI family)")


def _build_solver(args: argparse.Namespace):
    cls = _METHODS[args.method]
    kwargs = {"c": args.c, "tol": args.tol}
    if args.method.startswith("bepi") and args.hub_ratio is not None:
        kwargs["hub_ratio"] = args.hub_ratio
    if args.hub_ratio is not None and args.method == "bear":
        if args.hub_ratio == "auto":
            raise SystemExit("error: --hub-ratio auto is only supported by "
                             "the BePI family")
        kwargs["hub_ratio"] = args.hub_ratio
    return cls(**kwargs)


def _add_tracing_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-sample", type=float, default=None, metavar="RATE",
                        help="fraction of requests to trace, 0..1 "
                             "(default %(default)s -> library default)")
    parser.add_argument("--trace-log", metavar="PATH", default=None,
                        help="append finished span records to PATH as JSON "
                             "lines (written atomically, tmp + rename)")
    parser.add_argument("--slow-query", type=float, default=None, metavar="SECONDS",
                        help="log any traced request slower than this with "
                             "its full span breakdown")


def _configure_tracing(args: argparse.Namespace):
    """Replace the global tracer when any tracing flag was given."""
    from repro import tracing

    if (args.trace_sample is None and args.trace_log is None
            and args.slow_query is None):
        return tracing.get_tracer()
    kwargs = {}
    if args.trace_sample is not None:
        kwargs["sample_rate"] = args.trace_sample
    if args.trace_log is not None:
        kwargs["log_path"] = args.trace_log
    if args.slow_query is not None:
        kwargs["slow_threshold"] = args.slow_query
    return tracing.configure(**kwargs)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    stats = compute_stats(graph)
    print(f"nodes            {stats.n_nodes:,}")
    print(f"edges            {stats.n_edges:,}")
    print(f"deadends         {stats.n_deadends:,} "
          f"({stats.n_deadends / max(stats.n_nodes, 1):.1%})")
    print(f"max out-degree   {stats.max_out_degree:,}")
    print(f"max in-degree    {stats.max_in_degree:,}")
    print(f"mean out-degree  {stats.mean_out_degree:.2f}")
    print(f"degree tail slope {stats.degree_tail_slope:.2f}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    solver = _build_solver(args)
    if not isinstance(solver, BePI):
        print("error: only the BePI family supports artifact export", file=sys.stderr)
        return 2
    solver.preprocess(graph)
    if args.store:
        from repro.store import ArtifactStore

        generation = ArtifactStore(args.output).publish(solver)
        print(f"published {generation.name} under {args.output}")
        target = generation
    else:
        target = save_artifacts(solver, args.output)
        print(f"wrote artifact directory {args.output}")
    print(f"preprocessed {graph.n_nodes:,} nodes / {graph.n_edges:,} edges "
          f"in {solver.stats['preprocess_seconds']:.3f}s")
    print(f"partition: n1={solver.stats['n1']} n2={solver.stats['n2']} "
          f"n3={solver.stats['n3']}")
    print(f"artifact payload: {artifact_nbytes(target):,} bytes "
          f"(mmap-shareable across serving workers)")
    if args.metrics_out:
        solver.telemetry.write_json(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


async def _follow_store_forever(pool, interval: float) -> None:
    """Poll the pool's store every ``interval`` seconds and hot-swap the
    workers onto a freshly published generation, announcing each swap.

    Query traffic already follows the ``current`` pointer per call; this
    poller keeps an *idle* listener fresh too, so the first request after
    a publish never pays the reopen round-trip — and the printed swap line
    doubles as the externally observable acknowledgment drills wait for.
    """
    import asyncio

    loop = asyncio.get_running_loop()
    generation = await loop.run_in_executor(None, pool.refresh_generation)
    while True:
        await asyncio.sleep(interval)
        try:
            fresh = await loop.run_in_executor(None, pool.refresh_generation)
        except Exception as error:  # pragma: no cover - store race/outage
            print(f"follow-store poll failed: {error}", file=sys.stderr)
            continue
        if fresh != generation:
            print(f"now serving {fresh} (was {generation})", flush=True)
            generation = fresh


def _serve_listen(args: argparse.Namespace, fault_plan) -> int:
    """``repro serve ARTIFACTS --listen HOST:PORT`` — one shard of the
    serve tier: a :class:`~repro.gateway.PoolServer` speaking the wire
    protocol over a local :class:`~repro.serve.WorkerPool`.  Runs until
    SIGTERM/SIGINT, then drains and exits 0."""
    import asyncio
    import signal

    from repro.gateway import PoolServer, parse_endpoint
    from repro.serve import WorkerPool

    host, port = parse_endpoint(args.listen)
    tracer = _configure_tracing(args)

    async def run() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        with WorkerPool(
            args.artifacts,
            n_workers=args.workers,
            metrics_path=args.metrics_out,
            fault_plan=fault_plan,
        ) as pool:
            server = PoolServer(
                pool, host, port, shed_queue_depth=args.shed_depth
            )
            async with server:
                bound_host, bound_port = server.address
                # CI and the gateway bench wait for this exact line before
                # sending traffic — keep it one flushed print.
                print(f"pool listening on {bound_host}:{bound_port} "
                      f"({args.workers} workers over {args.artifacts})",
                      flush=True)
                follower = None
                if args.follow_store:
                    follower = asyncio.create_task(
                        _follow_store_forever(pool, args.follow_store)
                    )
                try:
                    await stop.wait()
                finally:
                    if follower is not None:
                        follower.cancel()
                print("draining and shutting down", flush=True)
            tracer.flush_log()
            stats = pool.pool_stats()
            print(f"served {stats['queries_submitted']} queries across "
                  f"{stats['n_workers']} workers "
                  f"({stats['worker_restarts']} worker restarts)")
            force_killed = pool.stop()
            if force_killed:
                print(f"force-killed wedged workers: {force_killed}",
                      file=sys.stderr)
        return 0

    return asyncio.run(run())


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import time

    import numpy as np

    from repro.faults import load_plan
    from repro.serve import WorkerPool

    fault_plan = load_plan(args.fault_plan) if args.fault_plan else None
    if args.listen:
        return _serve_listen(args, fault_plan)
    tracer = _configure_tracing(args)
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    elif args.random:
        rng = np.random.default_rng(0)
        with WorkerPool(args.artifacts, n_workers=1) as probe:
            n_nodes = probe.worker_stats()[0]["n_nodes"]
        seeds = rng.integers(0, n_nodes, size=args.random).tolist()
    else:
        print("error: provide --seeds or --random", file=sys.stderr)
        return 2

    # Graceful shutdown: the first SIGTERM/SIGINT stops accepting new
    # batches; the pool context flushes metrics and escalates on any
    # wedged worker, and the process exits 0 (a clean drain, not a crash).
    shutdown = {"signal": None}

    def _request_shutdown(signum, frame):
        shutdown["signal"] = signal.Signals(signum).name

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        with WorkerPool(
            args.artifacts,
            n_workers=args.workers,
            metrics_path=args.metrics_out,
            fault_plan=fault_plan,
        ) as pool:
            for stats in pool.worker_stats():
                delta = stats["load_rss_delta_bytes"]
                delta_text = f"{delta / 1024:.0f} KiB" if delta is not None else "n/a"
                print(f"worker {stats['worker_id']} (pid {stats['pid']}): "
                      f"opened {stats['n_nodes']:,} nodes in "
                      f"{stats['load_seconds'] * 1e3:.1f} ms, "
                      f"load RSS delta {delta_text}")
            first_round = True
            generation = pool.refresh_generation() if args.follow_store else None
            next_poll = (
                time.monotonic() + args.follow_store if args.follow_store else None
            )
            while shutdown["signal"] is None:
                # The top-k scatter path: replies are k (id, score) pairs
                # per seed, not n-float rows, and repeat rounds in linger
                # mode hit the generation-keyed result cache.
                results = pool.scatter_topk(seeds, args.top, exclude_seed=False)
                if first_round:
                    for seed, result in zip(seeds, results):
                        ranking = ", ".join(
                            f"{node}:{score:.6f}" for node, score in result.pairs()
                        )
                        print(f"seed {seed}: {ranking}")
                    first_round = False
                if not args.linger:
                    break
                # Linger mode: keep re-serving the batch (and refreshing the
                # metrics snapshot) until a signal asks us to drain.
                deadline = time.monotonic() + args.linger
                while shutdown["signal"] is None and time.monotonic() < deadline:
                    if next_poll is not None and time.monotonic() >= next_poll:
                        fresh = pool.refresh_generation()
                        if fresh != generation:
                            print(f"now serving {fresh} (was {generation})",
                                  flush=True)
                            generation = fresh
                        next_poll = time.monotonic() + args.follow_store
                    time.sleep(0.05)
            if shutdown["signal"] is not None:
                print(f"received {shutdown['signal']}: draining and shutting down",
                      flush=True)
            pool_stats = pool.pool_stats()
            print(f"served {pool_stats['queries_submitted']} queries across "
                  f"{pool_stats['n_workers']} workers "
                  f"({pool_stats['worker_restarts']} worker restarts, "
                  f"{pool_stats['requests_retried']} requests retried)")
            force_killed = pool.stop()
            if force_killed:
                print(f"force-killed wedged workers: {force_killed}",
                      file=sys.stderr)
            if args.metrics_out:
                print(f"wrote metrics snapshot to {args.metrics_out}")
            tracer.flush_log()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _parse_edge_arg(text: str, with_weight: bool):
    """``U:V`` (or ``U:V:W`` when ``with_weight``) -> int/float tuple."""
    parts = text.split(":")
    try:
        if with_weight and len(parts) == 3:
            return int(parts[0]), int(parts[1]), float(parts[2])
        if len(parts) == 2:
            u, v = int(parts[0]), int(parts[1])
            return (u, v, None) if with_weight else (u, v)
    except ValueError:
        pass
    expected = "U:V[:WEIGHT]" if with_weight else "U:V"
    raise SystemExit(f"error: expected {expected}, got {text!r}")


def _cmd_update(args: argparse.Namespace) -> int:
    """``repro update STORE`` — apply edge-update batches to the store's
    current generation and publish each effective result as the next
    generation (incremental correction when the tracked error bound
    allows, full re-preprocess otherwise; see :mod:`repro.core.incremental`).
    """
    import numpy as np

    from repro.core.dynamic import DynamicRWR
    from repro.store import ArtifactStore

    if not args.add and not args.remove and not args.random_batch:
        print("error: provide --add/--remove edges or --random-batch K",
              file=sys.stderr)
        return 2
    store = ArtifactStore(args.store)
    registry = MetricsRegistry()
    with registry.activate():
        dyn = DynamicRWR.from_store(
            store,
            incremental=not args.full,
            error_bound=args.error_bound,
        )
        n_nodes = dyn.graph.n_nodes
        if args.add or args.remove:
            batches = [(
                [_parse_edge_arg(text, with_weight=True) for text in args.add],
                [_parse_edge_arg(text, with_weight=False) for text in args.remove],
            )]
        else:
            rng = np.random.default_rng(args.batch_seed)
            batches = []
            for _ in range(args.batches):
                pairs = rng.integers(0, n_nodes, size=(args.random_batch, 2))
                batches.append(([(int(u), int(v), None) for u, v in pairs], []))
        for number, (added, removed) in enumerate(batches, start=1):
            rebuilds_before = dyn.n_rebuilds
            unweighted = [(u, v) for u, v, w in added if w is None]
            weighted = [(u, v, w) for u, v, w in added if w is not None]
            if unweighted:
                dyn.add_edges(unweighted)
            if weighted:
                dyn.add_edges(
                    [(u, v) for u, v, _ in weighted],
                    weights=[w for _, _, w in weighted],
                )
            if removed:
                dyn.remove_edges(removed)
            dyn.rebuild()
            if dyn.n_rebuilds == rebuilds_before:
                print(f"batch {number}: no-op (cancelled out against the "
                      f"current graph), rebuild skipped")
                continue
            current = store.current_path()
            print(f"batch {number}: {dyn.last_rebuild_mode} rebuild -> "
                  f"{current.name if current else '?'} "
                  f"(error bound {dyn.last_error_bound:.3g}, "
                  f"{len(added)} adds / {len(removed)} removes)")
    decided = dyn.n_rebuilds + dyn.n_skipped_rebuilds
    print(f"applied {len(batches)} batch(es): {dyn.n_corrections} incremental, "
          f"{dyn.n_full_rebuilds} full, {dyn.n_skipped_rebuilds} skipped "
          f"({dyn.n_skipped_rebuilds / decided if decided else 0.0:.0%} "
          f"skip ratio)")
    if args.prune is not None:
        result = store.prune(keep=args.prune)
        print(f"pruned {len(result)} generation(s)"
              + (f", kept leased/current: {', '.join(result.skipped)}"
                 if result.skipped else ""))
    if args.metrics_out:
        registry.write_json(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """``repro gateway --listen HOST:PORT --backend HOST:PORT ...`` — the
    coalescing/shedding/sharding front door (see :mod:`repro.gateway`)."""
    import asyncio
    import signal

    from repro import faults
    from repro.gateway import (
        CertifiedAnswerer,
        Gateway,
        GatewayServer,
        LocalBackend,
        RemoteBackend,
        parse_endpoint,
    )
    from repro.serve import WorkerPool
    from repro.telemetry import GATEWAY_REQUESTS, GATEWAY_SHED

    if not args.backend and not args.artifacts:
        print("error: provide at least one --backend HOST:PORT and/or "
              "--artifacts for an in-process pool", file=sys.stderr)
        return 2
    host, port = parse_endpoint(args.listen)
    for endpoint in args.backend:
        parse_endpoint(endpoint)  # fail fast on typos, before spawning a pool
    degrade_path = None
    if args.degrade is not None:
        degrade_path = args.degrade or args.artifacts
        if not degrade_path:
            print("error: --degrade needs a path (or --artifacts to borrow)",
                  file=sys.stderr)
            return 2
    hedge_after: "object" = None
    if args.hedge_after is not None:
        try:
            hedge_after = float(args.hedge_after)
        except ValueError:
            hedge_after = args.hedge_after  # "p95"-style percentile
    if args.fault_plan:
        # Network chaos: the plan's ConnectionDrop/SlowLink/FrameCorrupt
        # specs act on this process's backend connections.
        faults.install(faults.load_plan(args.fault_plan))
    tracer = _configure_tracing(args)

    async def _flush_metrics_forever(gateway) -> None:
        while True:
            await asyncio.sleep(2.0)
            try:
                # The merged fleet registry (gateway + every polled
                # backend), so the snapshot on disk matches `repro top`.
                gateway.fleet_registry().write_json(args.metrics_out)
            except OSError:  # pragma: no cover - disk hiccup; retry next tick
                pass

    async def run() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        backends = [
            RemoteBackend(*parse_endpoint(endpoint))
            for endpoint in args.backend
        ]
        pool = None
        try:
            if args.artifacts:
                pool = WorkerPool(args.artifacts, n_workers=args.workers)
                backends.append(LocalBackend(pool))
            answerer = CertifiedAnswerer(degrade_path) if degrade_path else None
            overrides = {
                "max_pending": args.max_pending,
                "shed_queue_depth": args.shed_depth,
                "breaker_threshold": args.breaker_threshold,
                "breaker_reset": args.breaker_reset,
                "health_interval": args.health_interval,
                "hedge_after": hedge_after,
                "degraded_answerer": answerer,
            }
            gateway = Gateway(
                backends,
                tracer=tracer,
                **{k: v for k, v in overrides.items() if v is not None},
            )
            async with gateway:
                server = GatewayServer(
                    gateway, host, port,
                    default_deadline_ms=args.deadline_ms,
                )
                async with server:
                    bound_host, bound_port = server.address
                    # CI and the gateway bench wait for this exact line.
                    print(f"gateway listening on {bound_host}:{bound_port} "
                          f"over {len(backends)} backend(s): "
                          f"{', '.join(sorted(gateway.backends))}", flush=True)
                    flusher = None
                    if args.metrics_out:
                        flusher = asyncio.create_task(
                            _flush_metrics_forever(gateway)
                        )
                    try:
                        await stop.wait()
                    finally:
                        if flusher is not None:
                            flusher.cancel()
                    print("draining and shutting down", flush=True)
            tracer.flush_log()
            print(f"admitted {gateway.registry.get(GATEWAY_REQUESTS).value:.0f} "
                  f"request(s), shed "
                  f"{gateway.registry.get(GATEWAY_SHED).value:.0f}")
            if args.metrics_out:
                gateway.fleet_registry().write_json(args.metrics_out)
                print(f"wrote metrics snapshot to {args.metrics_out}")
        finally:
            if pool is not None:
                pool.stop()
        return 0

    return asyncio.run(run())


def _cmd_query(args: argparse.Namespace) -> int:
    if os.path.isdir(args.graph):
        solver = load_solver(args.graph)
    else:
        graph = load_edge_list(args.graph)
        solver = _build_solver(args)
        solver.preprocess(graph)
    result = solver.query_detailed(args.seed)
    print(f"query answered in {result.seconds * 1e3:.2f} ms "
          f"({result.iterations} iterations)")
    ranking = top_k(solver, args.seed, args.top)
    print(f"top {args.top} nodes for seed {args.seed}:")
    for rank, (node, score) in enumerate(ranking, start=1):
        print(f"  {rank:3d}. node {node:8d}  score {score:.8f}")
    if ranking and ranking[0][1] == 0.0:
        print("note: every other node scores 0 — the seed has no outgoing "
              "edges (deadend) or its component is unreachable")
    if args.metrics_out:
        solver.telemetry.write_json(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path = args.snapshot
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.json")
    if not os.path.isfile(path):
        print(f"error: no metrics snapshot at {path}", file=sys.stderr)
        return 2
    with open(path) as handle:
        registry = MetricsRegistry.from_json(handle.read())
    if args.format == "json":
        print(registry.to_json())
    elif args.format == "prometheus":
        print(registry.to_prometheus(), end="")
    else:
        snapshot = registry.snapshot()
        if snapshot["counters"]:
            print("counters")
            for name in sorted(snapshot["counters"]):
                print(f"  {name:<32} {snapshot['counters'][name]['value']:>14,.0f}")
        if snapshot["gauges"]:
            print("gauges")
            for name in sorted(snapshot["gauges"]):
                print(f"  {name:<32} {snapshot['gauges'][name]['value']:>14,.3f}")
        if snapshot["histograms"]:
            print("histograms")
            header = f"  {'name':<32} {'count':>8} {'mean':>12} {'p50':>12} {'p95':>12} {'p99':>12}"
            print(header)
            for name in sorted(snapshot["histograms"]):
                summary = registry.get(name).summary()
                print(f"  {name:<32} {summary['count']:>8.0f} {summary['mean']:>12.6g} "
                      f"{summary['p50']:>12.6g} {summary['p95']:>12.6g} "
                      f"{summary['p99']:>12.6g}")
    return 0


def _fetch_fleet(target: str) -> dict:
    """One fleet snapshot: from a JSON file, or over the wire.

    ``target`` is either a path to a JSON document (the gateway's
    ``--metrics-out`` file or a saved fleet snapshot) or a gateway /
    pool-server ``HOST:PORT`` answered via ``OP_METRICS``.
    """
    import json

    if os.path.exists(target):
        with open(target) as handle:
            return json.load(handle)

    import asyncio

    from repro import wire
    from repro.gateway import parse_endpoint

    host, port = parse_endpoint(target)

    async def fetch() -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await wire.write_message(writer, wire.MetricsRequest())
            reply = await wire.read_message(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer already gone
                pass
        if not isinstance(reply, wire.StatsReply):
            raise wire.ProtocolError(
                f"expected StatsReply to OP_METRICS, got "
                f"{type(reply).__name__}"
            )
        return reply.stats

    return asyncio.run(fetch())


def _fleet_counter(snapshot: dict, name: str) -> float:
    entry = (snapshot.get("counters") or {}).get(name)
    return float(entry.get("value", 0.0)) if entry else 0.0


def _fleet_rate(current: dict, previous, name: str) -> Optional[float]:
    """Per-second rate of a counter between two polls, if computable."""
    if previous is None:
        return None
    prev_snapshot, elapsed = previous
    if elapsed <= 0:
        return None
    delta = _fleet_counter(current, name) - _fleet_counter(prev_snapshot, name)
    return max(0.0, delta) / elapsed


def render_fleet(snapshot: dict, previous=None) -> str:
    """Render one fleet snapshot as a terminal page (pure, testable).

    ``snapshot`` is a ``repro-fleet/v1`` document (or a bare metrics
    snapshot, rendered as a single unnamed shard); ``previous`` is an
    optional ``(snapshot, elapsed_seconds)`` pair from the prior frame
    used for QPS.
    """
    from repro import telemetry

    if not str(snapshot.get("schema", "")).startswith("repro-fleet"):
        # Bare registry snapshot (a PoolServer, or a --metrics-out file):
        # render it as a single unnamed shard.
        snapshot = {
            "schema": snapshot.get("schema", "repro-metrics"),
            "gateway": {},
            "backends": {"(self)": snapshot},
            "merged": snapshot,
            "generations": {},
            "trace": {},
            "slow_queries": [],
        }
    merged = snapshot.get("merged") or {}
    gateway_snap = snapshot.get("gateway") or {}
    backends = snapshot.get("backends") or {}
    generations = snapshot.get("generations") or {}
    trace = snapshot.get("trace") or {}
    slow = snapshot.get("slow_queries") or []
    lines: List[str] = []
    lines.append(
        f"repro fleet — {len(backends)} backend(s), schema "
        f"{snapshot.get('schema')}"
    )

    requests = _fleet_counter(gateway_snap, telemetry.GATEWAY_REQUESTS)
    qps = _fleet_rate(
        {"counters": (gateway_snap.get("counters") or {})},
        (
            ({"counters": ((previous[0].get("gateway") or {}).get("counters") or {})},
             previous[1])
            if previous is not None else None
        ),
        telemetry.GATEWAY_REQUESTS,
    )
    qps_text = f" ({qps:.1f}/s)" if qps is not None else ""
    lines.append(
        f"  requests {requests:.0f}{qps_text}   "
        f"shed {_fleet_counter(gateway_snap, telemetry.GATEWAY_SHED):.0f}   "
        f"failovers "
        f"{_fleet_counter(gateway_snap, telemetry.GATEWAY_FAILOVERS):.0f}   "
        f"backend errors "
        f"{_fleet_counter(gateway_snap, telemetry.GATEWAY_BACKEND_ERRORS):.0f}"
    )
    latency = (gateway_snap.get("histograms") or {}).get(
        telemetry.GATEWAY_REQUEST_SECONDS
    )
    if latency:
        gw_registry = MetricsRegistry.from_snapshot(gateway_snap)
        metric = gw_registry.get(telemetry.GATEWAY_REQUEST_SECONDS)
        summary = metric.summary()
        lines.append(
            f"  latency p50 {summary['p50'] * 1e3:.2f}ms "
            f"p95 {summary['p95'] * 1e3:.2f}ms "
            f"p99 {summary['p99'] * 1e3:.2f}ms "
            f"(n={summary['count']:.0f})"
        )
        exemplars = metric.exemplars()
        if exemplars:
            pairs = ", ".join(
                f"<={bound}s -> {trace_id}"
                for bound, trace_id in list(exemplars.items())[-3:]
            )
            lines.append(f"  latency exemplars: {pairs}")
    hits = _fleet_counter(merged, telemetry.TOPK_CACHE_HITS)
    misses = _fleet_counter(merged, telemetry.TOPK_CACHE_MISSES)
    if hits + misses > 0:
        lines.append(
            f"  topk cache hit rate {hits / (hits + misses) * 100:.1f}% "
            f"(hits {hits:.0f}, misses {misses:.0f})"
        )
    if trace:
        lines.append(
            f"  traces {trace.get('traces_started', 0)}   "
            f"spans {trace.get('spans_recorded', 0)} "
            f"(ring {trace.get('ring_spans', 0)}, "
            f"dropped {trace.get('ring_dropped', 0)})   "
            f"slow {trace.get('slow_queries', 0)}"
        )

    if backends:
        lines.append("")
        lines.append(f"  {'backend':<24} {'queries':>10} {'qps':>8} "
                     f"{'p95 ms':>9} {'unconverged':>12}  generation")
        for name in sorted(backends):
            shard = backends[name]
            queries = _fleet_counter(shard, telemetry.QUERIES_TOTAL)
            shard_qps = None
            if previous is not None:
                prev_shard = (previous[0].get("backends") or {}).get(name)
                if prev_shard is not None:
                    shard_qps = _fleet_rate(
                        shard, (prev_shard, previous[1]), telemetry.QUERIES_TOTAL
                    )
            shard_registry = MetricsRegistry.from_snapshot(shard)
            p95 = float("nan")
            if (shard.get("histograms") or {}).get(telemetry.QUERY_SECONDS):
                p95 = shard_registry.get(
                    telemetry.QUERY_SECONDS
                ).percentile(95) * 1e3
            unconverged = _fleet_counter(shard, telemetry.QUERIES_UNCONVERGED)
            lines.append(
                f"  {name:<24} {queries:>10.0f} "
                f"{(f'{shard_qps:.1f}' if shard_qps is not None else '-'):>8} "
                f"{p95:>9.2f} {unconverged:>12.0f}  "
                f"{generations.get(name) or '-'}"
            )

    if slow:
        lines.append("")
        lines.append("  recent slow queries")
        for entry in list(slow)[-5:]:
            tags = entry.get("tags") or {}
            tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
            lines.append(
                f"    {entry.get('trace_id')} {entry.get('name')} "
                f"{float(entry.get('duration', 0.0)) * 1e3:.1f}ms "
                f"{tag_text} ({len(entry.get('spans') or [])} spans)"
            )
    return "\n".join(lines) + "\n"


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top TARGET`` — live terminal view of a serving fleet.

    A gateway mid-restart (or briefly unreachable) must not kill the
    dashboard with a traceback: transport failures render a
    ``reconnecting…`` banner and the fetch retries with capped backoff.
    ``--once`` keeps the old fail-fast contract for scripts.
    """
    import time

    from repro import wire
    from repro.exceptions import InvalidParameterError

    try:
        # A malformed TARGET is a usage error, not an outage — fail fast
        # before entering the reconnect loop.
        if not os.path.exists(args.target):
            from repro.gateway import parse_endpoint

            parse_endpoint(args.target)
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    frames = 1 if args.once else args.frames
    previous = None
    rendered = 0
    attempts = 0
    while True:
        started = time.perf_counter()
        try:
            snapshot = _fetch_fleet(args.target)
        except (OSError, ValueError, wire.ProtocolError) as error:
            if args.once:
                print(f"error: cannot fetch fleet snapshot from "
                      f"{args.target}: {error}", file=sys.stderr)
                return 2
            attempts += 1
            delay = min(
                max(args.interval, 0.1) * min(2 ** (attempts - 1), 8), 10.0
            )
            print(f"reconnecting to {args.target} "
                  f"(attempt {attempts}, retry in {delay:.1f}s): {error}",
                  file=sys.stderr)
            time.sleep(delay)
            continue
        attempts = 0
        page = render_fleet(snapshot, previous)
        if rendered and not args.no_clear:
            # ANSI home + clear-below keeps the page steady between frames.
            sys.stdout.write("\x1b[H\x1b[J")
        sys.stdout.write(page)
        sys.stdout.flush()
        rendered += 1
        if frames is not None and rendered >= frames:
            return 0
        time.sleep(max(0.0, args.interval))
        previous = (snapshot, time.perf_counter() - started)


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    runner = ExperimentRunner(n_queries=args.queries, seed=0)
    factories = {
        name.upper() if name in ("lu", "gmres") else name.capitalize():
            (lambda cls=cls: cls(c=args.c, tol=args.tol))
        for name, cls in _METHODS.items()
        if name in args.methods.split(",")
    }
    records = [
        runner.run(args.graph, graph, factory, method_name=name)
        for name, factory in factories.items()
    ]
    print(format_records(records))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    import os

    from repro import datasets, save_edge_list

    print(f"{'name':<18} {'stands in for':<12} {'k':>5}  description")
    for name in datasets.names():
        spec = datasets.get(name)
        print(f"{spec.name:<18} {spec.paper_name:<12} {spec.hub_ratio:>5.2f}  "
              f"{spec.description}")
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        for name in datasets.names():
            graph = datasets.build(name)
            destination = os.path.join(args.export, f"{name}.tsv")
            save_edge_list(
                graph, destination,
                header=f"stand-in for {datasets.get(name).paper_name} "
                       f"(BePI SIGMOD'17 reproduction)",
            )
            print(f"exported {name} -> {destination} "
                  f"({graph.n_nodes:,} nodes, {graph.n_edges:,} edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BePI (SIGMOD 2017) — Random Walk with Restart toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics")
    p_stats.add_argument("graph", help="edge-list file")
    p_stats.set_defaults(func=_cmd_stats)

    p_build = sub.add_parser(
        "build", help="preprocess and export a serving artifact directory"
    )
    p_build.add_argument("graph", help="edge-list file")
    p_build.add_argument("-o", "--output", required=True,
                         help="artifact directory (or store root with --store)")
    p_build.add_argument("--store", action="store_true",
                         help="treat OUTPUT as an ArtifactStore root and "
                              "publish a new generation atomically")
    p_build.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write the build's telemetry snapshot (JSON)")
    _add_solver_options(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_serve = sub.add_parser(
        "serve", help="answer seed batches from mmap-backed worker processes"
    )
    p_serve.add_argument("artifacts", help="artifact directory or store root")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes (default: 2)")
    p_serve.add_argument("--seeds", default=None,
                         help="comma-separated seed node ids")
    p_serve.add_argument("--random", type=int, default=None, metavar="K",
                         help="answer K random seeds instead of --seeds")
    p_serve.add_argument("--top", type=int, default=5,
                         help="ranking size printed per seed (default: 5)")
    p_serve.add_argument("--linger", type=float, default=None, metavar="SECONDS",
                         help="keep serving, re-running the batch every SECONDS, "
                              "until SIGTERM/SIGINT (graceful drain, exit 0)")
    p_serve.add_argument("--fault-plan", metavar="PATH", default=None,
                         help="JSON fault-injection plan shipped to the workers "
                              "(see repro.faults; chaos testing only)")
    p_serve.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="keep a merged worker-metrics snapshot (JSON) "
                              "fresh at PATH")
    p_serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                         help="serve the pool over the wire protocol instead "
                              "of answering a local batch (one shard of a "
                              "gateway tier; runs until SIGTERM/SIGINT)")
    p_serve.add_argument("--shed-depth", type=int, default=None, metavar="N",
                         help="with --listen: answer REPLY_OVERLOADED when "
                              "more than N requests are queued "
                              "(default: queue unboundedly)")
    _add_tracing_options(p_serve)
    p_serve.add_argument("--follow-store", type=float, default=None,
                         metavar="SECONDS",
                         help="poll the store's current pointer every SECONDS "
                              "and hot-swap the workers onto newly published "
                              "generations, printing each swap (with --linger "
                              "or --listen)")
    p_serve.set_defaults(func=_cmd_serve)

    p_update = sub.add_parser(
        "update",
        help="apply edge-update batches to a store's current generation",
    )
    p_update.add_argument("store", help="ArtifactStore root (see build --store)")
    p_update.add_argument("--add", metavar="U:V[:W]", action="append", default=[],
                          help="insert edge U->V (weight W sets it; repeatable)")
    p_update.add_argument("--remove", metavar="U:V", action="append", default=[],
                          help="delete edge U->V (repeatable)")
    p_update.add_argument("--random-batch", type=int, default=None, metavar="K",
                          help="instead of --add/--remove: stream batches of K "
                               "random edge insertions")
    p_update.add_argument("--batches", type=int, default=1, metavar="N",
                          help="number of random batches to stream (default: 1)")
    p_update.add_argument("--batch-seed", type=int, default=0,
                          help="RNG seed for --random-batch (default: 0)")
    p_update.add_argument("--error-bound", type=float, default=0.0, metavar="B",
                          help="largest tracked L1 error bound an incremental "
                               "correction may carry before falling back to a "
                               "full re-preprocess (default: 0.0 — exact only)")
    p_update.add_argument("--full", action="store_true",
                          help="skip the incremental path and re-preprocess "
                               "from scratch")
    p_update.add_argument("--prune", type=int, default=None, metavar="KEEP",
                          help="afterwards, prune to the newest KEEP "
                               "generations (current and leased ones are "
                               "never deleted)")
    p_update.add_argument("--metrics-out", metavar="PATH", default=None,
                          help="write the run's telemetry snapshot (JSON), "
                               "including the rwr.dynamic.* series")
    p_update.set_defaults(func=_cmd_update)

    p_gw = sub.add_parser(
        "gateway",
        help="coalescing/shedding front door over serve --listen backends",
        description="Coalescing, shedding, sharding front door.  A request "
                    "to an idle shard is sent at once; requests arriving "
                    "while that shard's batch is in flight are sent "
                    "together when it returns.",
    )
    p_gw.add_argument("--listen", metavar="HOST:PORT", required=True,
                      help="address the gateway accepts wire clients on")
    p_gw.add_argument("--backend", metavar="HOST:PORT", action="append",
                      default=[],
                      help="a repro serve --listen endpoint (repeat for "
                           "replicas/shards)")
    p_gw.add_argument("--artifacts", metavar="DIR", default=None,
                      help="also run an in-process worker pool over this "
                           "artifact directory as a local backend")
    p_gw.add_argument("--workers", type=int, default=2,
                      help="worker processes for --artifacts (default: 2)")
    p_gw.add_argument("--max-pending", type=int, default=None, metavar="N",
                      help="in-flight requests admitted before shedding "
                           "(default: 1024)")
    p_gw.add_argument("--shed-depth", type=int, default=None, metavar="N",
                      help="also shed when every live backend reports a "
                           "queue deeper than N (default: disabled)")
    p_gw.add_argument("--breaker-threshold", type=int, default=None,
                      metavar="N",
                      help="consecutive transport failures before a "
                           "backend's circuit breaker opens (default: 3)")
    p_gw.add_argument("--breaker-reset", type=float, default=None,
                      metavar="SECONDS",
                      help="seconds before an open breaker allows its "
                           "half-open probe (default: 2.0)")
    p_gw.add_argument("--health-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="seconds between background backend health "
                           "polls; 0 disables the monitor so the only "
                           "wire traffic is request-driven "
                           "(default: 1.0)")
    p_gw.add_argument("--deadline-ms", type=float, default=None,
                      metavar="MS",
                      help="default per-request budget applied to requests "
                           "that do not carry a deadline trailer "
                           "(default: unbounded)")
    p_gw.add_argument("--hedge-after", default=None, metavar="SPEC",
                      help="hedge a slow backend call to the next replica "
                           "after SPEC: seconds (e.g. 0.05) or a latency "
                           "percentile like p95 (default: disabled)")
    p_gw.add_argument("--degrade", nargs="?", const="", default=None,
                      metavar="PATH",
                      help="when replicas are down or the deadline is "
                           "nearly spent, answer with a BePI solve of these "
                           "artifacts stopped at the deadline, its L1 error "
                           "certificate as the bound (no PATH: reuse "
                           "--artifacts)")
    p_gw.add_argument("--fault-plan", metavar="PATH", default=None,
                      help="inject network faults from a JSON fault plan "
                           "into the gateway's wire transports (chaos "
                           "drills)")
    _add_tracing_options(p_gw)
    p_gw.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="keep the gateway telemetry snapshot (JSON) "
                           "fresh at PATH")
    p_gw.set_defaults(func=_cmd_gateway)

    p_top = sub.add_parser(
        "top", help="live terminal view of a serving fleet"
    )
    p_top.add_argument("target",
                       help="gateway (or pool server) HOST:PORT answered via "
                            "OP_METRICS, or a fleet/metrics JSON file")
    p_top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                       help="refresh period (default %(default)s)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    p_top.add_argument("--frames", type=int, default=None, metavar="N",
                       help="render N frames and exit (default: forever)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of redrawing in place")
    p_top.set_defaults(func=_cmd_top)

    p_query = sub.add_parser("query", help="top-k RWR ranking for a seed")
    p_query.add_argument("graph", help="edge-list file, artifact directory, "
                                       "or store root")
    p_query.add_argument("--seed", type=int, required=True, help="seed node id")
    p_query.add_argument("--top", type=int, default=10, help="ranking size")
    p_query.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write the query run's telemetry snapshot (JSON)")
    _add_solver_options(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_cmp = sub.add_parser("compare", help="compare methods on one graph")
    p_cmp.add_argument("graph", help="edge-list file")
    p_cmp.add_argument("--methods", default="bepi,gmres,power",
                       help="comma-separated method list")
    p_cmp.add_argument("--queries", type=int, default=10,
                       help="random queries per method")
    p_cmp.add_argument("--c", type=float, default=0.05)
    p_cmp.add_argument("--tol", type=float, default=1e-9)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ds = sub.add_parser("datasets", help="list built-in stand-in datasets")
    p_ds.add_argument("--export", metavar="DIR", default=None,
                      help="also write every dataset as an edge list into DIR")
    p_ds.set_defaults(func=_cmd_datasets)

    p_metrics = sub.add_parser(
        "metrics", help="render a telemetry snapshot written by --metrics-out"
    )
    p_metrics.add_argument("snapshot",
                           help="snapshot file, or a directory containing "
                                "metrics.json")
    p_metrics.add_argument("--format", choices=("summary", "json", "prometheus"),
                           default="summary",
                           help="output format (default: summary)")
    p_metrics.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
