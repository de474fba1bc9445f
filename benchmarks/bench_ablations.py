"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the contribution of each design
decision on a mid-size stand-in:

- deadend reordering on/off (Section 3.2.1),
- SlashBurn vs a one-shot degree cut for hub selection (Appendix A),
- the SGS preconditioner (standing in for ILU(0), Section 3.5) vs none,
- the from-scratch GMRES vs scipy's GMRES on the same Schur system.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import BePI, BePIS
from repro.datasets import build as build_dataset

from .conftest import RESTART_PROBABILITY, TOLERANCE, record_result

DATASET = "livejournal_sim"


@pytest.mark.parametrize("deadend_reorder", [True, False],
                         ids=["deadend-on", "deadend-off"])
def test_ablation_deadend_reorder(benchmark, deadend_reorder):
    graph = build_dataset(DATASET)

    def run():
        solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE,
                      deadend_reorder=deadend_reorder)
        solver.preprocess(graph)
        return solver

    solver = benchmark.pedantic(run, rounds=1, iterations=1)
    working = solver.stats["n1"] + solver.stats["n2"]
    record_result("ablation_deadend", {
        "deadend_reorder": deadend_reorder,
        "working_system_size": working,
        "n3": solver.stats["n3"],
        "preprocess_seconds": solver.stats["preprocess_seconds"],
        "memory_bytes": solver.memory_bytes(),
    })
    print(f"\ndeadend_reorder={deadend_reorder}: working system {working:,} "
          f"of {graph.n_nodes:,} nodes, memory {solver.memory_bytes()/1e6:.2f} MB")
    if deadend_reorder:
        # The reordering removes all deadends from the solved system.
        assert working == graph.n_nodes - int(graph.deadend_mask().sum())
    else:
        assert working == graph.n_nodes


@pytest.mark.parametrize("hub_selection", ["slashburn", "degree"])
def test_ablation_hub_selection(benchmark, hub_selection):
    graph = build_dataset(DATASET)

    def run():
        solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE,
                      hub_ratio=0.2, hub_selection=hub_selection)
        solver.preprocess(graph)
        return solver

    solver = benchmark.pedantic(run, rounds=1, iterations=1)
    largest_block = int(max(solver.artifacts.block_sizes, default=0))
    record_result("ablation_hub_selection", {
        "hub_selection": hub_selection,
        "largest_block": largest_block,
        "n_blocks": solver.stats["n_blocks"],
        "nnz_schur": solver.stats["nnz_schur"],
        "preprocess_seconds": solver.stats["preprocess_seconds"],
    })
    print(f"\nhub_selection={hub_selection}: largest H11 block {largest_block}, "
          f"|S|={solver.stats['nnz_schur']:,}")
    # SlashBurn's recursion must shatter the spokes into small blocks; a
    # single degree cut leaves a giant residual component.
    if hub_selection == "slashburn":
        assert largest_block < graph.n_nodes * 0.05
    else:
        assert largest_block > 0


@pytest.mark.parametrize("precond", ["none", "sgs"])
def test_ablation_preconditioner(benchmark, query_seeds, precond):
    graph = build_dataset(DATASET)
    if precond == "none":
        solver = BePIS(c=RESTART_PROBABILITY, tol=TOLERANCE)
    else:
        solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE, ilu_engine=precond)
    solver.preprocess(graph)
    seeds = query_seeds(DATASET, 10)
    state = {"i": 0, "iterations": []}

    def one_query():
        seed = int(seeds[state["i"] % len(seeds)])
        state["i"] += 1
        state["iterations"].append(solver.query_detailed(seed).iterations)

    benchmark.pedantic(one_query, rounds=5, iterations=1, warmup_rounds=1)
    mean_iters = float(np.mean(state["iterations"]))
    record_result("ablation_preconditioner", {
        "preconditioner": precond,
        "avg_iterations": mean_iters,
        "avg_query_seconds": benchmark.stats.stats.mean,
    })
    print(f"\npreconditioner={precond}: avg iterations {mean_iters:.1f}")
    if precond != "none":
        # The preconditioner must cut the iteration count substantially.
        assert mean_iters < 12


def test_ablation_gmres_engine(benchmark):
    """Our GMRES vs scipy's GMRES on the same preconditioned Schur system."""
    from repro.linalg.gmres import gmres as native_gmres

    graph = build_dataset(DATASET)
    solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE).preprocess(graph)
    schur = solver.artifacts.schur
    ilu = solver.ilu_factors
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(schur.shape[0]) * 1e-3

    native = native_gmres(schur, rhs, tol=1e-10, preconditioner=ilu)
    operator = spla.LinearOperator(schur.shape, matvec=ilu.solve)
    scipy_x, info = spla.gmres(schur, rhs, rtol=1e-10, M=operator,
                               restart=schur.shape[0] if schur.shape[0] < 1000 else 200)

    def run_native():
        return native_gmres(schur, rhs, tol=1e-10, preconditioner=ilu)

    benchmark(run_native)
    assert native.converged
    assert info == 0
    rel = np.linalg.norm(native.x - scipy_x) / np.linalg.norm(scipy_x)
    record_result("ablation_gmres_engine", {
        "native_iterations": native.n_iterations,
        "relative_difference_vs_scipy": float(rel),
    })
    print(f"\nnative GMRES iterations {native.n_iterations}, "
          f"relative diff vs scipy {rel:.2e}")
    assert rel < 1e-6


@pytest.mark.parametrize("method", ["gmres", "bicgstab"])
def test_ablation_iterative_method(benchmark, query_seeds, method):
    """GMRES (the paper's choice) vs BiCGSTAB on the same preconditioned
    Schur system — Section 2.2 says any non-symmetric Krylov method works;
    this quantifies the choice."""
    graph = build_dataset(DATASET)
    solver = BePI(c=RESTART_PROBABILITY, tol=TOLERANCE,
                  iterative_method=method).preprocess(graph)
    seeds = query_seeds(DATASET, 10)
    state = {"i": 0, "iterations": []}

    def one_query():
        seed = int(seeds[state["i"] % len(seeds)])
        state["i"] += 1
        state["iterations"].append(solver.query_detailed(seed).iterations)

    benchmark.pedantic(one_query, rounds=5, iterations=1, warmup_rounds=1)
    mean_iters = float(np.mean(state["iterations"]))
    record_result("ablation_iterative_method", {
        "iterative_method": method,
        "avg_iterations": mean_iters,
        "avg_query_seconds": benchmark.stats.stats.mean,
    })
    print(f"\niterative_method={method}: avg iterations {mean_iters:.1f}")
    # Both must converge quickly on the preconditioned system.
    assert mean_iters < 25
