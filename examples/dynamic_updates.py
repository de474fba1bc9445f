#!/usr/bin/env python
"""Serving RWR on an evolving graph with batch re-preprocessing.

Section 5 of the paper: the conventional strategy for preprocessing
methods on dynamic graphs is to buffer updates and re-preprocess in
batches, and BePI suits it because its preprocessing is fast.  This
example simulates a day of social-network activity: edges arrive, queries
are served from the last snapshot, and the index is rebuilt at the batch
threshold.  Solver persistence rounds out the workflow — the rebuilt index
is saved for the next serving process.

Run:  python examples/dynamic_updates.py
"""

import tempfile
import time

import numpy as np

from repro import BePI, generate_rmat, load_solver, save_artifacts
from repro.core.dynamic import DynamicRWR


def main() -> None:
    graph = generate_rmat(11, 16_000, seed=13)
    print(f"initial graph: {graph.n_nodes:,} nodes, {graph.n_edges:,} edges")

    dynamic = DynamicRWR(
        graph,
        solver_factory=lambda: BePI(c=0.05, tol=1e-9),
        auto_rebuild_threshold=500,
    )
    rng = np.random.default_rng(0)
    user = 42
    baseline_top = np.argsort(-dynamic.query(user))[:5]
    print(f"top-5 for user {user} before updates: {baseline_top.tolist()}")

    # --- A stream of edge insertions (new follows) -----------------------
    start = time.perf_counter()
    for batch in range(4):
        src = rng.integers(graph.n_nodes, size=300)
        dst = rng.integers(graph.n_nodes, size=300)
        dynamic.add_edges(
            (int(u), int(v)) for u, v in zip(src, dst) if u != v
        )
        print(f"batch {batch + 1}: pending={dynamic.pending_updates}, "
              f"rebuilds so far={dynamic.n_rebuilds}")
    dynamic.rebuild()  # flush the tail of the stream
    elapsed = time.perf_counter() - start
    print(f"\nprocessed ~1,200 updates with {dynamic.n_rebuilds - 1} rebuilds "
          f"in {elapsed:.2f}s")

    updated_top = np.argsort(-dynamic.query(user))[:5]
    print(f"top-5 for user {user} after updates:  {updated_top.tolist()}")

    # --- Persist the fresh index for the next serving process ------------
    path = save_artifacts(dynamic.solver, tempfile.mkdtemp(suffix="-artifacts"))
    served = load_solver(path)
    same = np.allclose(served.query(user), dynamic.query(user))
    print(f"\nsaved index to {path}; reloaded copy answers identically: {same}")


if __name__ == "__main__":
    main()
