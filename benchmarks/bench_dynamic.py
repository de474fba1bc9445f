"""Dynamic update benchmark: incremental update vs full re-preprocess.

Measures what the layered update pipeline buys a serving deployment that
must track a changing graph:

- **update cost** — :func:`repro.core.incremental.apply_batch` turning
  the old adjacency and a batch into the new adjacency, timed next to
  the incremental update it feeds.
- **update speed** — an edge-update batch applied as a partition-reusing
  update (:func:`repro.core.incremental.incremental_update`: keep the old
  ordering, rebuild ``H`` and re-run the batched ``H11`` inversion, the
  Schur complement and its preconditioner) versus re-running the full
  BePI preprocess, reordering included, on the updated graph.
- **tracked accuracy** — the update carries a guaranteed L1 error
  bound (``0.0`` = exact); the benchmark checks the observed deviation
  from a from-scratch solver never exceeds it.
- **zero-downtime swaps** — a :class:`~repro.serve.WorkerPool` keeps
  answering while :class:`~repro.core.dynamic.DynamicRWR` publishes
  update batches into the store; queries flow across every generation
  swap with no errors and the pool acks the final generation.

Results land in ``BENCH_dynamic.json`` (``--output``).

Run modes
---------
``--smoke``
    Scale-10 graph; checks the update is not slower than a full
    rebuild and that serving survives the swaps.  Fast enough for CI.
default (full)
    Scale-13 R-MAT; additionally asserts the acceptance number:
    update >= 3x faster than the full re-preprocess.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke
    PYTHONPATH=src python benchmarks/bench_dynamic.py --scale 13
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import BePI, DynamicRWR, generate_rmat
from repro.core.incremental import UpdateBatch, apply_batch, incremental_update
from repro.serve import WorkerPool, engine_for_bundle
from repro.store import ArtifactStore

RESTART_PROBABILITY = 0.05
TOLERANCE = 1e-11
HUB_RATIO = 0.2
SWAP_BATCHES = 3


def _build(scale: int, n_edges: Optional[int]):
    edges = n_edges if n_edges is not None else 8 * (2**scale)
    graph = generate_rmat(scale, edges, seed=13)
    solver = BePI(
        c=RESTART_PROBABILITY, tol=TOLERANCE, hub_ratio=HUB_RATIO
    ).preprocess(graph)
    print(f"graph: R-MAT scale {scale} — {graph.n_nodes:,} nodes, "
          f"{graph.n_edges:,} edges")
    return graph, solver


def _reweight_batch(graph, n_updates: int, rng) -> UpdateBatch:
    """Reweight ``n_updates`` existing edges — a realistic refresh batch
    that perturbs H without changing the sparsity pattern."""
    edges = graph.edges()
    picks = rng.choice(len(edges), size=min(n_updates, len(edges)),
                       replace=False)
    added = tuple(
        (int(edges[i][0]), int(edges[i][1]), float(w))
        for i, w in zip(picks, rng.uniform(0.5, 2.5, size=len(picks)))
    )
    return UpdateBatch(added=added)


def _bench_update(graph, solver, n_updates: int, repeats: int):
    rng = np.random.default_rng(7)
    batch = _reweight_batch(graph, n_updates, rng)
    apply_rounds = []
    new_graph = None
    for _ in range(repeats):
        start = time.perf_counter()
        new_graph = apply_batch(graph, batch)
        apply_rounds.append(time.perf_counter() - start)
    assert new_graph is not None
    apply_seconds = float(np.median(apply_rounds))

    update_rounds = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = incremental_update(solver.solver_artifacts, new_graph)
        update_rounds.append(time.perf_counter() - start)
    update = float(np.median(update_rounds))

    full_rounds = []
    fresh = None
    for _ in range(repeats):
        factory = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE,
                       hub_ratio=HUB_RATIO)
        start = time.perf_counter()
        fresh = factory.preprocess(new_graph)
        full_rounds.append(time.perf_counter() - start)
    full = float(np.median(full_rounds))

    speedup = full / update if update > 0 else float("inf")
    print(f"update batch: {batch.n_updates} edge reweights")
    print(f"apply batch  {apply_seconds * 1e3:9.1f}ms   (new adjacency from "
          f"the old one)")
    print(f"incremental  {update * 1e3:9.1f}ms "
          f"(all {result.n_affected_blocks} H11 blocks refactorized in one "
          f"batched pass, bound {result.error_bound:.3g})")
    print(f"full rebuild {full * 1e3:9.1f}ms   ({speedup:.1f}x slower)")

    # Tracked-accuracy check: the updated bundle's answers deviate from
    # a from-scratch solver by at most the bound (exact bound 0.0 means
    # agreement down to solver tolerance).
    engine = engine_for_bundle(result.bundle)
    seeds = [int(s) for s in
             np.random.default_rng(11).choice(graph.n_nodes, size=4,
                                              replace=False)]
    observed = max(
        float(np.abs(engine.query_many([s])[0]
                     - fresh.query_many([s])[0]).sum())
        for s in seeds
    )
    tolerance = result.error_bound + 1e-6
    assert observed <= tolerance, (
        f"observed L1 deviation {observed:.3g} exceeds tracked bound "
        f"{result.error_bound:.3g}"
    )
    print(f"accuracy     observed L1 deviation {observed:.3g} "
          f"<= bound {result.error_bound:.3g} + solver tolerance")
    return apply_seconds, update, full, speedup, result, observed


def _bench_swap_service(graph, solver, workdir: Path):
    """Queries flow while update batches publish new generations."""
    store = ArtifactStore(workdir / "store")
    store.publish(solver)
    publisher = DynamicRWR.from_store(store)
    rng = np.random.default_rng(23)
    seeds = [int(s) for s in rng.choice(graph.n_nodes, size=8,
                                        replace=False)]
    stop = threading.Event()
    errors = []
    served = {"queries": 0}

    with WorkerPool(store.root, n_workers=2, timeout=300) as pool:
        def query_loop():
            i = 0
            try:
                while not stop.is_set():
                    pool.query_many([seeds[i % len(seeds)]])
                    served["queries"] += 1
                    i += 1
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        thread = threading.Thread(target=query_loop)
        thread.start()
        swap_started = time.perf_counter()
        for _ in range(SWAP_BATCHES):
            batch = _reweight_batch(graph, 16, rng)
            publisher.add_edges(
                [(u, v) for u, v, _ in batch.added],
                weights=[w for _, _, w in batch.added],
            )
            publisher.rebuild()
        swap_seconds = time.perf_counter() - swap_started
        stop.set()
        thread.join(timeout=120)
        final = store.generations()[-1]
        acked = pool.refresh_generation()

    assert not errors, f"queries failed during generation swaps: {errors[0]}"
    assert served["queries"] > 0, "no queries completed during the swaps"
    assert acked == final, f"pool acked {acked}, store current is {final}"
    print(f"swaps        {SWAP_BATCHES} update batches published in "
          f"{swap_seconds:.2f}s while {served['queries']} queries were "
          f"served; pool acked {final}")
    return swap_seconds, served["queries"], final


def run(
    scale: int,
    n_edges: Optional[int],
    n_updates: int,
    repeats: int,
    smoke: bool,
    output: Path,
) -> None:
    import tempfile

    graph, solver = _build(scale, n_edges)
    apply_seconds, update, full, speedup, result, observed = _bench_update(
        graph, solver, n_updates, repeats
    )
    with tempfile.TemporaryDirectory() as tmp:
        swap_seconds, n_queries, final = _bench_swap_service(
            graph, solver, Path(tmp)
        )

    assert speedup > 1, (
        f"incremental update not faster than a full rebuild ({speedup:.2f}x)"
    )
    if not smoke:
        assert speedup >= 3, (
            f"incremental update only {speedup:.1f}x faster than the full "
            f"re-preprocess at scale {scale} (want >= 3x)"
        )

    record = {
        "benchmark": "dynamic",
        "mode": "smoke" if smoke else "full",
        "scale": scale,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_updates": n_updates,
        "incremental": {
            "apply_batch_seconds": apply_seconds,
            "seconds": update,
            "full_rebuild_seconds": full,
            "speedup": speedup,
            "affected_blocks": result.n_affected_blocks,
            "total_blocks": result.n_blocks,
            "error_bound": result.error_bound,
            "observed_l1_deviation": observed,
        },
        "swap_service": {
            "batches": SWAP_BATCHES,
            "seconds": swap_seconds,
            "queries_served": n_queries,
            "final_generation": final,
        },
    }
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast relative checks (CI)")
    parser.add_argument("--scale", type=int, default=13,
                        help="R-MAT scale for the full run (default: 13)")
    parser.add_argument("--edges", type=int, default=None,
                        help="edge count (default: 8 * 2^scale)")
    parser.add_argument("--updates", type=int, default=32,
                        help="edges reweighted per batch (default: 32)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions, median-of (default: 3)")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_dynamic.json"),
                        help="result file (default: BENCH_dynamic.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        run(scale=10, n_edges=args.edges, n_updates=args.updates,
            repeats=2, smoke=True, output=args.output)
    else:
        run(scale=args.scale, n_edges=args.edges, n_updates=args.updates,
            repeats=args.repeats, smoke=False, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
