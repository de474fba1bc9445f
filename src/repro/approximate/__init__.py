"""Approximate RWR methods from the paper's related work (Section 5).

The paper's evaluation excludes approximate methods because every compared
method computes *exact* scores, but it discusses them at length: NB_LIN
(Tong et al. 2008) approximates ``H^{-1}`` from a low-rank decomposition of
the normalized adjacency, and Monte-Carlo walk sampling estimates the
scores directly.  This subpackage implements both so the accuracy gap
against the exact solvers is measurable (``benchmarks/bench_approximate.py``).
Neither serves: the gateway's degraded replies are truncated BePI solves
with a deterministic error certificate (:class:`repro.gateway.CertifiedAnswerer`).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.approximate.monte_carlo": ("MonteCarloSolver",),
    "repro.approximate.nb_lin": ("NBLinSolver",),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.approximate.monte_carlo import MonteCarloSolver as MonteCarloSolver
    from repro.approximate.nb_lin import NBLinSolver as NBLinSolver
