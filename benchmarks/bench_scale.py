"""Scale drill: BePI preprocessing and serving cost at R-MAT scales 16 and 18.

Paper Fig. 5 shows preprocessing time growing near-linearly in the number
of edges (slope 1.01 on log-log axes).  For each scale this drill builds
the graph, preprocesses it and saves the artifact directory in one child
process, then opens the directory memory-mapped and answers queries in a
second one, recording:

- seconds per build stage (deadend reorder, hub-and-spoke reorder, ``H11``
  factorization, Schur complement, preconditioner) and in total;
- peak RSS of the build process (graph generation included);
- artifact MB on disk;
- ms per seed for a 64-seed block and for single seeds, and the RSS of
  the serving process after those queries.

It asserts that the preprocessing slope ``log(t2 / t1) / log(m2 / m1)``
between the two scales (``m`` = edges) is at most 1.15, and writes every
number to ``BENCH_scale.json`` (``--output``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python benchmarks/bench_scale.py --scales 12 14
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing as mp
import os
import platform
import resource
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import numpy as np
import scipy

from repro import BePI, generate_rmat
from repro.bench.memory import process_rss_bytes
from repro.persistence import artifact_nbytes, load_solver, save_artifacts

RESTART_PROBABILITY = 0.05
TOLERANCE = 1e-9
EDGE_FACTOR = 8
GRAPH_SEED = 13
BLOCK_SEEDS = 64
SINGLE_SEEDS = 16
#: Largest accepted preprocessing slope between the two scales.
MAX_SLOPE = 1.15


def _build(scale: int, directory: str) -> Dict[str, Any]:
    """Generate, preprocess and save one scale (runs in its own process)."""
    graph = generate_rmat(scale, EDGE_FACTOR * 2**scale, seed=GRAPH_SEED)
    start = time.perf_counter()
    solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE).preprocess(graph)
    seconds = time.perf_counter() - start
    save_artifacts(solver, directory)
    stages = dict(solver.stats["stage_timings"])
    stages["preconditioner"] = solver.stats["ilu_seconds"]
    return {
        "scale": scale,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n2": int(solver.stats["n2"]),
        "nnz_schur": int(solver.stats["nnz_schur"]),
        "preprocess_s": seconds,
        "stage_s": stages,
        "build_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
        "artifact_mb": artifact_nbytes(directory) / 1e6,
    }


def _serve(directory: str, repeats: int) -> Dict[str, Any]:
    """Open the artifacts memory-mapped and time queries (own process)."""
    solver = load_solver(directory)
    rng = np.random.default_rng(GRAPH_SEED)
    seeds = rng.choice(solver.graph.n_nodes, size=BLOCK_SEEDS, replace=False).tolist()
    block_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch = solver.query_many_detailed(seeds)
        block_s.append(time.perf_counter() - start)
        assert batch.all_converged
    start = time.perf_counter()
    for seed in seeds[:SINGLE_SEEDS]:
        solver.query(seed)
    single_s = time.perf_counter() - start
    return {
        "ms_per_seed_block": 1e3 * min(block_s) / BLOCK_SEEDS,
        "ms_per_seed_single": 1e3 * single_s / SINGLE_SEEDS,
        "iterations_per_seed": float(np.mean(batch.iterations)),
        "serve_rss_mb": process_rss_bytes() / 1e6,
    }


def _in_child(fn, *args):
    """Run ``fn(*args)`` in a fresh process, so its peak RSS is its own."""
    with ProcessPoolExecutor(max_workers=1, mp_context=mp.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def run(scales: Sequence[int], repeats: int, output: Optional[Path]) -> Dict[str, Any]:
    rows = []
    for scale in scales:
        with tempfile.TemporaryDirectory() as tmp:
            directory = os.path.join(tmp, "artifacts")
            row = _in_child(_build, scale, directory)
            row.update(_in_child(_serve, directory, repeats))
        rows.append(row)
        stages = ", ".join(f"{k} {v:.2f}" for k, v in row["stage_s"].items())
        print(f"scale {scale}: {row['n_nodes']:,} nodes, {row['n_edges']:,} edges, "
              f"|S| {row['nnz_schur']:,}; preprocess {row['preprocess_s']:.2f} s "
              f"({stages}); build peak RSS {row['build_peak_rss_mb']:.0f} MB; "
              f"artifact {row['artifact_mb']:.1f} MB; {row['ms_per_seed_block']:.2f} ms/seed "
              f"(64-seed block), {row['ms_per_seed_single']:.2f} ms/seed single; "
              f"serve RSS {row['serve_rss_mb']:.0f} MB")
    first, last = rows[0], rows[-1]
    slope = math.log(last["preprocess_s"] / first["preprocess_s"]) / math.log(
        last["n_edges"] / first["n_edges"]
    )
    record = {
        "benchmark": "scale",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "restart": RESTART_PROBABILITY,
        "tolerance": TOLERANCE,
        "edge_factor": EDGE_FACTOR,
        "graph_seed": GRAPH_SEED,
        "scales": rows,
        "preprocess_slope": slope,
        "max_slope": MAX_SLOPE,
    }
    print(f"preprocessing slope, scale {first['scale']} -> {last['scale']}: {slope:.3f} "
          f"(bound {MAX_SLOPE})")
    if output is not None:
        output.write_text(json.dumps(record, indent=2) + "\n")
    assert slope <= MAX_SLOPE, f"preprocessing slope {slope:.3f} exceeds {MAX_SLOPE}"
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs=2, default=[16, 18],
                        help="the two R-MAT scales to compare (default: 16 18)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="64-seed block timings per scale (min is kept)")
    parser.add_argument("--output", type=Path, default=Path("BENCH_scale.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    run(args.scales, args.repeats, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
