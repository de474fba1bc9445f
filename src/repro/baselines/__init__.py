"""Baseline RWR methods the paper compares against (Sections 2.2-2.3).

- :class:`~repro.baselines.bear.BearSolver` — Bear (Shin et al., SIGMOD'15):
  block elimination with a *directly inverted* Schur complement; fast
  queries, quadratic memory in the hub count.
- :class:`~repro.baselines.lu.LUSolver` — LU decomposition of the full ``H``
  after a degree-based reordering (Fujiwara et al.).
- :class:`~repro.baselines.gmres_solver.GMRESSolver` — plain GMRES on
  ``H r = c q``; no preprocessing.
- :class:`~repro.baselines.power_solver.PowerSolver` — power iteration; no
  preprocessing.
- :class:`~repro.baselines.dense.DenseSolver` — explicit dense ``H^{-1}``;
  the exactness oracle for small graphs.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.baselines.bear": ("BearSolver",),
    "repro.baselines.dense": ("DenseSolver",),
    "repro.baselines.gmres_solver": ("GMRESSolver",),
    "repro.baselines.lu": ("LUSolver",),
    "repro.baselines.power_solver": ("PowerSolver",),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.baselines.bear import BearSolver as BearSolver
    from repro.baselines.dense import DenseSolver as DenseSolver
    from repro.baselines.gmres_solver import GMRESSolver as GMRESSolver
    from repro.baselines.lu import LUSolver as LUSolver
    from repro.baselines.power_solver import PowerSolver as PowerSolver
