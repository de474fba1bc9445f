"""Preprocessing benchmark: redundancy-free auto-``k`` and parallel stages.

Measures what the staged pipeline buys:

- **auto-k sweep**: the legacy policy ran one full pipeline pass per
  candidate, re-derived the correction product ``H21 H11^{-1} H12`` per
  candidate to count its non-zeros, and then rebuilt the winner from
  scratch (6 passes + 5 duplicate products for 5 candidates).  The staged
  sweep shares one deadend stage, reads the sparsity counts out of the
  Schur build, and hands the winner's artifacts to the solver (5
  shared-prefix passes, zero rebuild).
- **parallel stages**: ``factorize_block_diagonal`` with ``n_jobs=4``
  versus ``n_jobs=1`` (the speed-up assertion only applies on multi-CPU
  hosts; results are bit-identical regardless).
- **build stages**: the seconds of each stage of one BePI preprocess,
  ending with ``ilu_seconds`` for the ILU(0) preconditioner.

Run modes
---------
``--smoke``
    Small graph; checks the *structural* wins (the deadend stage runs
    exactly once per sweep, no winner rebuild) and bit-identity of the
    staged / parallel paths, and ILU(0)'s defining property
    ``(L2 U2)_ij = S_ij`` on the Schur complement's pattern.  Fast enough
    for CI.
default (full)
    Scale-13 R-MAT; times legacy-emulated auto-``k`` against the staged
    sweep (asserts >= 1.5x), the parallel block factorization, and the
    build stages.

Usage::

    PYTHONPATH=src python benchmarks/bench_preprocess.py --smoke
    PYTHONPATH=src python benchmarks/bench_preprocess.py --scale 13
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import BePI, generate_rmat
from repro.core import pipeline as pipeline_module
from repro.core.hub_ratio import DEFAULT_CANDIDATES, select_hub_ratio
from repro.core.pipeline import PreprocessArtifacts, build_artifacts, run_deadend_stage
from repro.graph.graph import Graph
from repro.linalg.block_lu import (
    BlockDiagonalLU,
    _invert_block,
    factorize_block_diagonal,
)
from repro.parallel import available_cpus

RESTART_PROBABILITY = 0.05


class _CallCounter:
    """Wraps a function, counting invocations (for redundancy checks)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _legacy_factorize_block_diagonal(
    matrix: sp.spmatrix, block_sizes, n_jobs: int = 1
) -> BlockDiagonalLU:
    """The pre-refactor factorization: per-block CSR fancy-slicing.

    Extracting each diagonal block with ``csr[lo:hi, lo:hi].toarray()``
    pays scipy's general sparse-slicing machinery thousands of times; the
    refactor replaced it with one batched scatter from the raw CSR arrays.
    Results are bit-identical, so this is a pure-cost stand-in for timing.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    l_blocks: List[np.ndarray] = []
    u_blocks: List[np.ndarray] = []
    for idx in range(sizes.size):
        lo, hi = int(starts[idx]), int(starts[idx + 1])
        dense = csr[lo:hi, lo:hi].toarray()
        l_inv, u_inv = _invert_block(dense, idx)
        l_blocks.append(l_inv)
        u_blocks.append(u_inv)
    l_sparse = sp.block_diag(l_blocks, format="csr") if l_blocks else sp.csr_matrix((0, 0))
    u_sparse = sp.block_diag(u_blocks, format="csr") if u_blocks else sp.csr_matrix((0, 0))
    l_sparse.eliminate_zeros()
    u_sparse.eliminate_zeros()
    return BlockDiagonalLU(l_inv=l_sparse, u_inv=u_sparse, block_sizes=sizes)


def legacy_auto_k(
    graph: Graph, c: float, candidates: Sequence[float]
) -> PreprocessArtifacts:
    """Emulate the pre-refactor auto-``k`` policy for baseline timing.

    One *full* pipeline pass per candidate (each re-running the deadend
    stage and using the slow per-block factorization), a separately
    re-derived correction product per candidate to count
    ``|H21 H11^{-1} H12|``, and a final from-scratch rebuild of the winner.
    """
    original = pipeline_module.factorize_block_diagonal
    pipeline_module.factorize_block_diagonal = _legacy_factorize_block_diagonal
    try:
        measurements: List[tuple] = []
        for k in candidates:
            artifacts = build_artifacts(graph, c, k)
            h12, h21 = artifacts.blocks["H12"], artifacts.blocks["H21"]
            if artifacts.n1 > 0 and artifacts.n2 > 0:
                inner = artifacts.h11_factors.solve_matrix(h12)
                correction = (h21 @ inner).tocsr()
                correction.eliminate_zeros()
            measurements.append((int(artifacts.schur.nnz), float(k)))
        best_k = min(measurements)[1]
        return build_artifacts(graph, c, best_k)
    finally:
        pipeline_module.factorize_block_diagonal = original


def _assert_artifacts_equal(a: PreprocessArtifacts, b: PreprocessArtifacts) -> None:
    assert np.array_equal(a.permutation.order, b.permutation.order)
    assert np.array_equal(a.h11_factors.l_inv.toarray(), b.h11_factors.l_inv.toarray())
    assert np.array_equal(a.h11_factors.u_inv.toarray(), b.h11_factors.u_inv.toarray())
    assert np.array_equal(a.schur.toarray(), b.schur.toarray())


def run_smoke() -> None:
    """Structural redundancy + bit-identity checks on a small graph."""
    graph = generate_rmat(9, 3000, seed=7)

    # 1. The auto-k sweep runs the deadend reorder exactly once and one
    #    hub-and-spoke reorder per candidate — and adopts the winner
    #    without a rebuild (no extra pass).
    deadend_counter = _CallCounter(pipeline_module.deadend_reorder)
    hubspoke_counter = _CallCounter(pipeline_module.hub_and_spoke_partition)
    pipeline_module.deadend_reorder = deadend_counter
    pipeline_module.hub_and_spoke_partition = hubspoke_counter
    try:
        auto_solver = BePI(c=RESTART_PROBABILITY, hub_ratio="auto")
        auto_solver.preprocess(graph)
    finally:
        pipeline_module.deadend_reorder = deadend_counter.fn
        pipeline_module.hub_and_spoke_partition = hubspoke_counter.fn
    assert deadend_counter.calls == 1, (
        f"deadend stage ran {deadend_counter.calls}x during the sweep (want 1)"
    )
    assert hubspoke_counter.calls == len(DEFAULT_CANDIDATES), (
        f"{hubspoke_counter.calls} hub-and-spoke passes for "
        f"{len(DEFAULT_CANDIDATES)} candidates (winner rebuild crept back in?)"
    )
    assert auto_solver.stats["preprocess_passes"] == len(DEFAULT_CANDIDATES)
    print(f"smoke: auto-k sweep = 1 deadend stage + {hubspoke_counter.calls} "
          "candidate passes, no winner rebuild")

    # 2. Auto-k scores bit-match a fresh solver preprocessed at the chosen k.
    chosen_k = auto_solver.stats["hub_ratio"]
    fixed_solver = BePI(c=RESTART_PROBABILITY, hub_ratio=chosen_k)
    fixed_solver.preprocess(graph)
    diff = np.abs(auto_solver.query(0) - fixed_solver.query(0)).max()
    assert diff == 0.0, f"auto-k scores deviate from fixed k={chosen_k}: {diff}"
    print(f"smoke: auto-k (chose k={chosen_k}) scores bit-match fixed-k solver")

    # 3. A shared deadend stage yields the same artifacts as a direct build.
    stage = run_deadend_stage(graph)
    direct = build_artifacts(graph, RESTART_PROBABILITY, 0.3)
    staged = build_artifacts(graph, RESTART_PROBABILITY, 0.3, deadend_stage=stage)
    _assert_artifacts_equal(direct, staged)
    print("smoke: staged build bit-matches direct build (k=0.3)")

    # 4. Parallel stages are bit-identical to serial ones.
    parallel = build_artifacts(graph, RESTART_PROBABILITY, 0.3, n_jobs=4)
    _assert_artifacts_equal(direct, parallel)
    print("smoke: n_jobs=4 build bit-matches n_jobs=1 build")

    # 5. ILU(0)'s defining property: L2 U2 reproduces S on S's own pattern.
    schur = fixed_solver.solver_artifacts.preprocess.schur.tocoo()
    factors = fixed_solver.ilu_factors
    product = (factors.l @ factors.u).tocsr()
    on_pattern = np.asarray(product[schur.row, schur.col]).ravel()
    error = np.abs(on_pattern - schur.data).max(initial=0.0)
    assert error <= 1e-12, f"(L2 U2)_ij deviates from S_ij by {error:.3g} on S's pattern"
    print(f"smoke: (L2 U2)_ij = S_ij on S's pattern ({schur.nnz:,} entries, "
          f"max error {error:.1e})")


def run_full(scale: int, n_edges: Optional[int], repeats: int) -> None:
    """Timed comparison on an R-MAT graph (default: scale 13)."""
    edges = n_edges if n_edges is not None else 8 * (2**scale)
    graph = generate_rmat(scale, edges, seed=13)
    print(f"graph: R-MAT scale {scale} — {graph.n_nodes:,} nodes, "
          f"{graph.n_edges:,} edges, {available_cpus()} CPU(s) available")

    # --- auto-k: legacy emulation vs staged sweep -----------------------
    legacy_seconds = []
    staged_seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        legacy = legacy_auto_k(graph, RESTART_PROBABILITY, DEFAULT_CANDIDATES)
        legacy_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        selection = select_hub_ratio(graph, RESTART_PROBABILITY, DEFAULT_CANDIDATES)
        staged_seconds.append(time.perf_counter() - start)

    best_legacy, best_staged = min(legacy_seconds), min(staged_seconds)
    speedup = best_legacy / best_staged
    print(f"auto-k  legacy (6 passes + 5 corrections): {best_legacy:8.3f}s")
    print(f"auto-k  staged ({len(selection.records)} shared-prefix passes):  "
          f"{best_staged:8.3f}s   ({speedup:.2f}x)")
    _assert_artifacts_equal(legacy, selection.artifacts)
    assert speedup >= 1.5, (
        f"staged auto-k only {speedup:.2f}x faster than the legacy policy "
        "(want >= 1.5x)"
    )

    # --- build stages of one preprocess (best of repeats) ---------------
    stages: dict = {}
    for _ in range(repeats):
        stats = BePI(c=RESTART_PROBABILITY).preprocess(graph).stats
        timings = {**stats["stage_timings"], "ilu_seconds": stats["ilu_seconds"]}
        for stage, seconds in timings.items():
            stages[stage] = min(seconds, stages.get(stage, seconds))
    for stage, seconds in stages.items():
        print(f"build stage  {stage:<24} {seconds * 1e3:8.1f}ms")

    # --- parallel block factorization ----------------------------------
    h11 = selection.artifacts.blocks["H11"]
    sizes = selection.artifacts.block_sizes
    serial_s = min(
        _time_once(lambda: factorize_block_diagonal(h11, sizes, n_jobs=1))
        for _ in range(repeats)
    )
    parallel_s = min(
        _time_once(lambda: factorize_block_diagonal(h11, sizes, n_jobs=4))
        for _ in range(repeats)
    )
    print(f"factorize_block_diagonal  n_jobs=1: {serial_s * 1e3:8.1f}ms")
    print(f"factorize_block_diagonal  n_jobs=4: {parallel_s * 1e3:8.1f}ms   "
          f"({serial_s / parallel_s:.2f}x)")
    if available_cpus() > 1:
        assert parallel_s < serial_s, (
            f"n_jobs=4 ({parallel_s:.3f}s) did not beat n_jobs=1 "
            f"({serial_s:.3f}s) on a {available_cpus()}-CPU host"
        )
    else:
        print("note: single-CPU host — parallel speed-up assertion skipped "
              "(results verified bit-identical instead)")
        factors_1 = factorize_block_diagonal(h11, sizes, n_jobs=1)
        factors_4 = factorize_block_diagonal(h11, sizes, n_jobs=4)
        assert np.array_equal(factors_1.l_inv.toarray(), factors_4.l_inv.toarray())
        assert np.array_equal(factors_1.u_inv.toarray(), factors_4.u_inv.toarray())


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast structural + bit-identity checks (CI)")
    parser.add_argument("--scale", type=int, default=13,
                        help="R-MAT scale for the full run (default: 13)")
    parser.add_argument("--edges", type=int, default=None,
                        help="edge count (default: 8 * 2^scale)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions, best-of (default: 2)")
    args = parser.parse_args(argv)

    if args.smoke:
        run_smoke()
        print("bench_preprocess smoke: all checks passed")
    else:
        run_full(args.scale, args.edges, max(1, args.repeats))
        print("bench_preprocess: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
