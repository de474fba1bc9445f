"""Hub selection ratio sweep (Section 3.4, Figure 4), redundancy-free.

The number of non-zeros of the Schur complement is bounded by
``|S| <= |H22| + |H21 H11^{-1} H12|``; growing ``k`` grows ``|H22|`` but
shrinks the correction term, so there is a sweet spot (empirically
``k ~ 0.2-0.3`` in the paper).  :func:`select_hub_ratio` measures all three
quantities per candidate ``k`` and picks the minimizer — the policy that
turns BePI-B into BePI-S.

Cost model (what the refactor buys): the deadend stage is identical for
every candidate, so it runs **once** per sweep; the sparsity counts
``nnz_h22`` / ``nnz_correction`` are read out of the Schur build's
intermediates instead of re-deriving the correction product; and the
winner's full :class:`~repro.core.pipeline.PreprocessArtifacts` is returned
so ``BePI(hub_ratio="auto")`` never rebuilds it.  Auto-``k`` therefore
costs ``len(candidates)`` shared-prefix pipeline passes — down from
``len(candidates) + 1`` full passes plus ``len(candidates)`` duplicate
correction products before the refactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.pipeline import PreprocessArtifacts, build_artifacts, run_deadend_stage
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph

#: Candidate ratios used when a solver is asked to auto-select ``k``.
DEFAULT_CANDIDATES = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class SchurSweepRecord:
    """Measurements for one candidate hub selection ratio.

    Mirrors the series of Figure 4: ``nnz_schur`` (= ``|S|``),
    ``nnz_h22`` and ``nnz_correction`` (= ``|H21 H11^{-1} H12|``).
    """

    k: float
    n1: int
    n2: int
    n_blocks: int
    nnz_schur: int
    nnz_h22: int
    nnz_correction: int
    slashburn_iterations: int


@dataclass(frozen=True)
class HubRatioSelection:
    """Outcome of a hub-ratio sweep: the records plus the winner's artifacts.

    Attributes
    ----------
    records:
        One :class:`SchurSweepRecord` per candidate, in candidate order.
    best_index:
        Index of the ``|S|``-minimizing candidate (ties toward smaller
        ``k``).
    artifacts:
        The winner's full preprocessing artifacts — ready for a solver to
        adopt without re-running the pipeline.
    """

    records: List[SchurSweepRecord]
    best_index: int
    artifacts: PreprocessArtifacts

    @property
    def best(self) -> SchurSweepRecord:
        return self.records[self.best_index]

    @property
    def best_k(self) -> float:
        return self.records[self.best_index].k


def _record_from_artifacts(k: float, artifacts: PreprocessArtifacts) -> SchurSweepRecord:
    return SchurSweepRecord(
        k=float(k),
        n1=artifacts.n1,
        n2=artifacts.n2,
        n_blocks=artifacts.hubspoke.n_blocks,
        nnz_schur=int(artifacts.schur.nnz),
        nnz_h22=int(artifacts.nnz_h22 or 0),
        nnz_correction=int(artifacts.nnz_correction or 0),
        slashburn_iterations=artifacts.hubspoke.slashburn_iterations,
    )


def select_hub_ratio(
    graph: Graph,
    c: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    deadend_reordering: bool = True,
    hub_selection: str = "slashburn",
) -> HubRatioSelection:
    """Sweep the candidate hub ratios and keep the winner's artifacts.

    The deadend stage (identical for every ``k``) runs once; each candidate
    then pays only the ``k``-dependent pipeline suffix, and the sparsity
    counts come out of the Schur build's intermediates.

    Parameters
    ----------
    graph, c:
        The graph and restart probability.
    candidates:
        Candidate ratios; must be non-empty.
    deadend_reordering, hub_selection:
        Forwarded to :func:`~repro.core.pipeline.build_artifacts`, so the
        sweep measures exactly the configuration the solver will use.
    """
    if not candidates:
        raise InvalidParameterError("need at least one candidate hub ratio")
    stage = run_deadend_stage(graph, deadend_reordering)
    artifacts_list = [
        build_artifacts(
            graph, c, k,
            deadend_reordering=deadend_reordering,
            hub_selection=hub_selection,
            deadend_stage=stage,
        )
        for k in candidates
    ]

    records = [
        _record_from_artifacts(k, artifacts)
        for k, artifacts in zip(candidates, artifacts_list)
    ]
    best_index = min(
        range(len(records)), key=lambda i: (records[i].nnz_schur, records[i].k)
    )
    return HubRatioSelection(
        records=records, best_index=best_index, artifacts=artifacts_list[best_index]
    )


def sweep_hub_ratios(
    graph: Graph,
    c: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
) -> List[SchurSweepRecord]:
    """Measure Schur-complement sparsity for each candidate ``k``.

    Runs the ``k``-dependent pipeline suffix per candidate on top of one
    shared deadend stage, so the sweep's cost is ``len(candidates)``
    shared-prefix preprocessing passes (no duplicated correction products).
    """
    return select_hub_ratio(graph, c, candidates).records


def choose_hub_ratio(
    graph: Graph,
    c: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
) -> float:
    """The candidate ``k`` minimizing ``|S|`` (ties toward the smaller ``k``)."""
    return select_hub_ratio(graph, c, candidates).best_k
