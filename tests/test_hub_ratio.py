"""Tests for the hub-ratio sweep (Section 3.4 / Figure 4)."""

import numpy as np
import pytest

from repro import (
    InvalidParameterError,
    choose_hub_ratio,
    select_hub_ratio,
    sweep_hub_ratios,
)
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import build_artifacts


class TestSweep:
    def test_records_all_candidates(self, medium_graph):
        candidates = (0.1, 0.2, 0.3)
        records = sweep_hub_ratios(medium_graph, c=0.05, candidates=candidates)
        assert [rec.k for rec in records] == list(candidates)

    def test_bound_inequality_holds(self, medium_graph):
        """|S| <= |H22| + |H21 H11^-1 H12| (Section 3.4)."""
        for rec in sweep_hub_ratios(medium_graph, c=0.05, candidates=(0.1, 0.3)):
            assert rec.nnz_schur <= rec.nnz_h22 + rec.nnz_correction

    def test_h22_grows_with_k(self, medium_graph):
        records = sweep_hub_ratios(medium_graph, c=0.05, candidates=(0.1, 0.4))
        assert records[1].nnz_h22 >= records[0].nnz_h22
        assert records[1].n2 > records[0].n2

    def test_correction_shrinks_with_k(self, medium_graph):
        records = sweep_hub_ratios(medium_graph, c=0.05, candidates=(0.05, 0.4))
        assert records[1].nnz_correction <= records[0].nnz_correction

    def test_n1_n2_partition(self, medium_graph):
        n_non_dead = medium_graph.n_nodes - int(medium_graph.deadend_mask().sum())
        for rec in sweep_hub_ratios(medium_graph, c=0.05, candidates=(0.2,)):
            assert rec.n1 + rec.n2 == n_non_dead

    def test_empty_candidates_raises(self, medium_graph):
        with pytest.raises(InvalidParameterError):
            sweep_hub_ratios(medium_graph, c=0.05, candidates=())


class TestChoose:
    def test_returns_minimizer(self, medium_graph):
        candidates = (0.1, 0.2, 0.3, 0.4)
        records = sweep_hub_ratios(medium_graph, c=0.05, candidates=candidates)
        best = choose_hub_ratio(medium_graph, c=0.05, candidates=candidates)
        best_record = next(rec for rec in records if rec.k == best)
        assert best_record.nnz_schur == min(rec.nnz_schur for rec in records)

    def test_single_candidate(self, small_graph):
        assert choose_hub_ratio(small_graph, c=0.05, candidates=(0.25,)) == 0.25


class TestSelect:
    def test_winner_artifacts_match_direct_build(self, medium_graph):
        """The adopted artifacts bit-match a from-scratch build at best_k."""
        selection = select_hub_ratio(medium_graph, c=0.05, candidates=(0.1, 0.3))
        direct = build_artifacts(medium_graph, c=0.05, hub_ratio=selection.best_k)
        assert np.array_equal(
            selection.artifacts.permutation.order, direct.permutation.order
        )
        assert np.array_equal(
            selection.artifacts.schur.toarray(), direct.schur.toarray()
        )

    def test_best_record_consistency(self, medium_graph):
        selection = select_hub_ratio(medium_graph, c=0.05, candidates=(0.1, 0.2, 0.4))
        assert selection.best is selection.records[selection.best_index]
        assert selection.best.nnz_schur == min(r.nnz_schur for r in selection.records)
        assert int(selection.artifacts.schur.nnz) == selection.best.nnz_schur

    def test_deadend_stage_runs_once_per_sweep(self, medium_graph, monkeypatch):
        calls = []
        original = pipeline_module.deadend_reorder

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(pipeline_module, "deadend_reorder", counting)
        select_hub_ratio(medium_graph, c=0.05, candidates=(0.1, 0.2, 0.3))
        assert len(calls) == 1

    def test_sparsity_counts_populated(self, medium_graph):
        selection = select_hub_ratio(medium_graph, c=0.05, candidates=(0.2,))
        assert selection.artifacts.nnz_h22 == selection.best.nnz_h22
        assert selection.artifacts.nnz_correction == selection.best.nnz_correction
        assert selection.best.nnz_h22 > 0
