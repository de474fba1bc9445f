"""Benchmark support: memory accounting, budgets, and the experiment harness.

The paper's evaluation compares methods on three axes — preprocessing time,
memory for preprocessed data, and query time — under a machine memory limit
and a 24-hour preprocessing time limit.  This subpackage provides the
laptop-scale equivalents:

- :mod:`repro.bench.memory` — byte accounting of preprocessed sparse/dense
  matrices, and :class:`~repro.bench.memory.MemoryBudget` which makes
  over-budget methods fail fast ("o.o.m." bars in Figure 1),
- :mod:`repro.bench.harness` — runs a (dataset x method) experiment matrix
  and collects the rows the benchmark suite prints.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.bench.harness": ("ExperimentRecord", "ExperimentRunner"),
    "repro.bench.memory": ("MemoryBudget", "dense_memory_bytes", "sparse_memory_bytes"),
    "repro.bench.profile": ("format_preprocess_profile",),
    "repro.bench.spy": ("block_diagonal_fraction", "density_grid", "spy_text"),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.bench.harness import (
        ExperimentRecord as ExperimentRecord,
        ExperimentRunner as ExperimentRunner,
    )
    from repro.bench.memory import (
        MemoryBudget as MemoryBudget,
        dense_memory_bytes as dense_memory_bytes,
        sparse_memory_bytes as sparse_memory_bytes,
    )
    from repro.bench.profile import format_preprocess_profile as format_preprocess_profile
    from repro.bench.spy import (
        block_diagonal_fraction as block_diagonal_fraction,
        density_grid as density_grid,
        spy_text as spy_text,
    )
