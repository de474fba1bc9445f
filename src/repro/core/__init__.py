"""The paper's contribution: BePI and its supporting machinery.

- :mod:`repro.core.base` — the :class:`~repro.core.base.RWRSolver` interface
  all methods (BePI and baselines) implement,
- :mod:`repro.core.schur` — Schur complement of ``H11``,
- :mod:`repro.core.hub_ratio` — the ``k``-selection sweep of Section 3.4,
- :mod:`repro.core.bepi` — BePI-B, BePI-S and BePI (Algorithms 1-4),
- :mod:`repro.core.accuracy` — the accuracy bounds of Theorem 4.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.core.accuracy": ("AccuracyBound", "accuracy_bound", "tolerance_for_target"),
    "repro.core.base": ("QueryResult", "RWRSolver"),
    "repro.core.bepi": ("BePI", "BePIB", "BePIS"),
    "repro.core.hub_ratio": ("SchurSweepRecord", "choose_hub_ratio", "sweep_hub_ratios"),
    "repro.core.schur": ("compute_schur_complement",),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.core.accuracy import (
        AccuracyBound as AccuracyBound,
        accuracy_bound as accuracy_bound,
        tolerance_for_target as tolerance_for_target,
    )
    from repro.core.base import (
        QueryResult as QueryResult,
        RWRSolver as RWRSolver,
    )
    from repro.core.bepi import (
        BePI as BePI,
        BePIB as BePIB,
        BePIS as BePIS,
    )
    from repro.core.hub_ratio import (
        SchurSweepRecord as SchurSweepRecord,
        choose_hub_ratio as choose_hub_ratio,
        sweep_hub_ratios as sweep_hub_ratios,
    )
    from repro.core.schur import compute_schur_complement as compute_schur_complement
