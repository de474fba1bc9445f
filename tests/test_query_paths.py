"""Every query path of every solver is the same width-one block solve.

Solvers answer all queries through one hook, ``_query_batch`` on an
``(n, k)`` block; a single seed is a width-one block.  So, for every
:class:`~repro.core.base.RWRSolver` class and every seed, these agree bit
for bit:

- ``query(s)``, ``query_detailed(s).scores``, ``query_vector(e_s).scores``
  and ``query_many([s])[0]``;
- ``query_topk(s, k)`` and ``query_topk_many([s], k)[0]``;
- where the solver serves through a stateless engine (BePI, Bear, LU),
  the engine's ``query_many([s])[0]`` and ``query_topk(s, k)`` too.

The exact solvers are also checked against an independent oracle, for a
single seed and for a 64-seed block: the residual ``‖H r - c e_s‖₁`` with
``H = I - (1-c) Ã^T`` assembled here from the adjacency alone.  ``‖H⁻¹‖₁ <= 1/c``, so a small residual proves a small
L1 error without a second solver.

Graphs come from every family in :mod:`repro.graph.generators`, with
injected deadends and appended isolated nodes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BearSolver,
    BePI,
    BePIB,
    BePIS,
    DenseSolver,
    GMRESSolver,
    Graph,
    LUSolver,
    NBLinSolver,
    PowerSolver,
    add_deadends,
    generate_bipartite,
    generate_erdos_renyi,
    generate_hub_and_spoke,
    generate_rmat,
)
from repro.approximate import MonteCarloSolver

C = 0.05
#: Accepted ``‖H r - c e_s‖₁`` for the exact solvers at ``tol=1e-9``.
RESIDUAL_L1 = 1e-7

EXACT_SOLVERS = {
    "BePI": lambda: BePI(c=C, tol=1e-9, hub_ratio=0.25),
    "BePI-S": lambda: BePIS(c=C, tol=1e-9),
    "BePI-B": lambda: BePIB(c=C, tol=1e-9),
    "Bear": lambda: BearSolver(c=C, tol=1e-9),
    "LU": lambda: LUSolver(c=C, tol=1e-9),
    "Dense": lambda: DenseSolver(c=C, tol=1e-9),
    "GMRES": lambda: GMRESSolver(c=C, tol=1e-9),
    "Power": lambda: PowerSolver(c=C, tol=1e-9),
}
APPROXIMATE_SOLVERS = {
    "MonteCarlo": lambda: MonteCarloSolver(n_walks=300, seed=7, c=C),
    "NB-LIN": lambda: NBLinSolver(rank=6, c=C),
}


def _base_graph(family: str, seed: int) -> Graph:
    if family == "rmat":
        return generate_rmat(5, 160, seed=seed)
    if family == "erdos_renyi":
        return generate_erdos_renyi(40, 120, seed=seed)
    if family == "bipartite":
        return generate_bipartite(20, 16, 90, seed=seed)
    return generate_hub_and_spoke(3, 24, spokes_per_block=4, hub_degree=8, seed=seed)


def _with_isolated(graph: Graph, n_isolated: int) -> Graph:
    """Append ``n_isolated`` nodes with no in- or out-edges."""
    if n_isolated == 0:
        return graph
    padding = sp.csr_matrix((n_isolated, n_isolated))
    return Graph(sp.block_diag([graph.adjacency, padding], format="csr"))


graphs = st.builds(
    lambda family, seed, fraction, n_isolated: _with_isolated(
        add_deadends(_base_graph(family, seed), fraction, seed=seed + 1), n_isolated
    ),
    st.sampled_from(["rmat", "erdos_renyi", "bipartite", "hub_and_spoke"]),
    st.integers(min_value=0, max_value=2**31 - 2),
    st.sampled_from([0.0, 0.1, 0.25]),
    st.integers(min_value=0, max_value=3),
)


def oracle_h(adjacency: sp.spmatrix, c: float) -> sp.csr_matrix:
    """``H = I - (1-c) Ã^T``: ``Ã`` row-normalized, deadend rows zero."""
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    sums = np.asarray(adj.sum(axis=1)).ravel()
    inverse = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    walk = (sp.diags(inverse) @ adj).T.tocsr()
    return (sp.identity(adj.shape[0], format="csr") - (1.0 - c) * walk).tocsr()


def check_paths_agree(solver, seed: int, k: int) -> np.ndarray:
    """Assert every single-seed path equals the one-seed batch; return it."""
    n = solver.graph.n_nodes
    e_s = np.zeros(n)
    e_s[seed] = 1.0
    batched = solver.query_many([seed])[0]
    assert np.array_equal(solver.query(seed), batched)
    assert np.array_equal(solver.query_detailed(seed).scores, batched)
    assert np.array_equal(solver.query_vector(e_s).scores, batched)
    answers = [solver.query_topk(seed, k), solver.query_topk_many([seed], k)[0]]
    engine = getattr(solver, "engine", None)
    if engine is not None:
        assert np.array_equal(engine.query_many([seed])[0], batched)
        answers.append(engine.query_topk(seed, k))
    for answer in answers[1:]:
        assert np.array_equal(answer.ids, answers[0].ids)
        assert np.array_equal(answer.scores, answers[0].scores)
    return batched


@pytest.mark.parametrize("name", sorted(EXACT_SOLVERS))
@given(graph=graphs, data=st.data())
@settings(max_examples=25, deadline=None)
def test_exact_solver_paths_agree_and_meet_oracle(name, graph, data):
    seed = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1), label="seed")
    k = data.draw(st.integers(min_value=1, max_value=8), label="k")
    block = data.draw(
        st.lists(st.integers(min_value=0, max_value=graph.n_nodes - 1), min_size=64, max_size=64),
        label="block",
    )
    solver = EXACT_SOLVERS[name]().preprocess(graph)
    h = oracle_h(graph.adjacency, C)
    scores = check_paths_agree(solver, seed, k)
    residual = h @ scores
    residual[seed] -= C
    assert np.abs(residual).sum() <= RESIDUAL_L1
    # A 64-wide block: BePI applies its preconditioner to all columns at once.
    residuals = h @ solver.query_many(block).T
    residuals[block, np.arange(len(block))] -= C
    assert np.abs(residuals).sum(axis=0).max() <= RESIDUAL_L1


@pytest.mark.parametrize("name", sorted(APPROXIMATE_SOLVERS))
@given(graph=graphs, data=st.data())
@settings(max_examples=25, deadline=None)
def test_approximate_solver_paths_agree(name, graph, data):
    seed = data.draw(st.integers(min_value=0, max_value=graph.n_nodes - 1), label="seed")
    k = data.draw(st.integers(min_value=1, max_value=8), label="k")
    solver = APPROXIMATE_SOLVERS[name]().preprocess(graph)
    check_paths_agree(solver, seed, k)


@given(graph=graphs)
@settings(max_examples=40, deadline=None)
def test_preconditioner_iterations_against_bepi_s(graph):
    """What the preconditioner promises about GMRES iterations, per graph.

    "BePI takes no more iterations than BePI-S" is false on tiny Schur
    complements: full GMRES may run to the dimension ``n2`` either way.
    What holds on every graph (600 drawn like these: largest excess of the
    mean 0.05; with BePI strictly ahead on all 100 with ``n2 >= 20``) is:
    no seed takes more than ``n2`` iterations, BePI's mean exceeds
    BePI-S's by less than half an iteration, and once ``n2 >= 20`` BePI's
    mean is strictly lower.
    """
    seeds = list(range(graph.n_nodes))
    bepi = BePI(c=C, tol=1e-9, hub_ratio=0.25).preprocess(graph)
    bepi_s = BePIS(c=C, tol=1e-9, hub_ratio=0.25).preprocess(graph)
    n2 = bepi.stats["n2"]
    with_m = np.asarray(bepi.query_many_detailed(seeds).iterations, dtype=float)
    without = np.asarray(bepi_s.query_many_detailed(seeds).iterations, dtype=float)
    assert with_m.max() <= n2 and without.max() <= n2
    assert with_m.mean() < without.mean() + 0.5
    if n2 >= 20:
        assert with_m.mean() < without.mean()
