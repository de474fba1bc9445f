"""Tests for the Schur complement and the shared preprocessing pipeline."""

import numpy as np
import pytest

from repro import Graph, InvalidParameterError
from repro.core.pipeline import build_artifacts, run_deadend_stage
from repro.core.schur import compute_schur_complement
from repro.linalg.block_lu import factorize_block_diagonal
from repro.linalg.rwr_matrix import build_h_matrix, partition_h


class TestSchurComplement:
    def _manual_blocks(self, graph, c, n1, n2):
        h = build_h_matrix(graph.adjacency, c)
        n3 = graph.n_nodes - n1 - n2
        return partition_h(h, n1, n2, n3)

    def test_matches_dense_definition(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        blocks = artifacts.blocks
        h11 = blocks["H11"].toarray()
        expected = blocks["H22"].toarray() - blocks["H21"].toarray() @ np.linalg.solve(
            h11, blocks["H12"].toarray()
        )
        assert np.allclose(artifacts.schur.toarray(), expected, atol=1e-10)

    def test_schur_invertible(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        s = artifacts.schur.toarray()
        assert np.linalg.matrix_rank(s) == s.shape[0]

    def test_empty_spoke_block(self, small_graph):
        # With k=1 every node is a hub -> S = H22 = Hnn.
        artifacts = build_artifacts(small_graph, c=0.05, hub_ratio=1.0)
        assert artifacts.n1 == 0
        assert np.allclose(
            artifacts.schur.toarray(), artifacts.blocks["H22"].toarray()
        )

    def test_drop_tolerance(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        blocks = artifacts.blocks
        factors = factorize_block_diagonal(blocks["H11"], artifacts.block_sizes)
        exact = compute_schur_complement(blocks, factors)
        pruned = compute_schur_complement(blocks, factors, drop_tolerance=1e-4)
        assert pruned.nnz <= exact.nnz
        assert np.allclose(pruned.toarray(), exact.toarray(), atol=1e-4 * 10)


class TestPipeline:
    def test_partition_sizes(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        assert artifacts.n1 + artifacts.n2 + artifacts.n3 == medium_graph.n_nodes
        assert artifacts.n3 == int(medium_graph.deadend_mask().sum())

    def test_permutation_consistency(self, medium_graph):
        """The reordered H sliced by the artifact sizes equals the blocks."""
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        reordered = medium_graph.permute(artifacts.permutation.order)
        h = build_h_matrix(reordered.adjacency, 0.05)
        n1, n2 = artifacts.n1, artifacts.n2
        assert np.allclose(
            h[:n1, :n1].toarray(), artifacts.blocks["H11"].toarray()
        )
        assert np.allclose(
            h[n1 : n1 + n2, n1 : n1 + n2].toarray(),
            artifacts.blocks["H22"].toarray(),
        )

    def test_deadend_rows_are_identity(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        reordered = medium_graph.permute(artifacts.permutation.order)
        h = build_h_matrix(reordered.adjacency, 0.05)
        nd = artifacts.n1 + artifacts.n2
        lower_right = h[nd:, nd:].toarray()
        assert np.allclose(lower_right, np.eye(artifacts.n3))
        # And the upper-right coupling into deadends is zero.
        assert h[:nd, nd:].nnz == 0

    def test_timings_recorded(self, small_graph):
        artifacts = build_artifacts(small_graph, c=0.05, hub_ratio=0.2)
        expected_stages = {
            "deadend_reorder",
            "hub_and_spoke_reorder",
            "build_and_partition_h",
            "factorize_h11",
            "schur_complement",
        }
        assert expected_stages <= set(artifacts.timings)
        assert all(t >= 0 for t in artifacts.timings.values())

    def test_all_deadend_graph(self):
        g = Graph.empty(5)
        artifacts = build_artifacts(g, c=0.05, hub_ratio=0.2)
        assert artifacts.n3 == 5
        assert artifacts.n1 == 0 and artifacts.n2 == 0
        assert artifacts.schur.shape == (0, 0)

    def test_h11_block_sizes_match_factors(self, medium_graph):
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        assert np.array_equal(
            artifacts.h11_factors.block_sizes, artifacts.block_sizes
        )


class TestStagedPipeline:
    def test_shared_stage_bit_matches_direct_build(self, medium_graph):
        stage = run_deadend_stage(medium_graph)
        direct = build_artifacts(medium_graph, c=0.05, hub_ratio=0.3)
        staged = build_artifacts(
            medium_graph, c=0.05, hub_ratio=0.3, deadend_stage=stage
        )
        assert np.array_equal(direct.permutation.order, staged.permutation.order)
        assert np.array_equal(
            direct.h11_factors.l_inv.toarray(), staged.h11_factors.l_inv.toarray()
        )
        assert np.array_equal(direct.schur.toarray(), staged.schur.toarray())

    def test_mismatched_stage_rejected(self, small_graph, medium_graph):
        stage = run_deadend_stage(small_graph)
        with pytest.raises(InvalidParameterError):
            build_artifacts(medium_graph, c=0.05, hub_ratio=0.3, deadend_stage=stage)

    def test_mismatched_reordering_flag_rejected(self, medium_graph):
        stage = run_deadend_stage(medium_graph, deadend_reordering=True)
        with pytest.raises(InvalidParameterError):
            build_artifacts(
                medium_graph, c=0.05, hub_ratio=0.3,
                deadend_reordering=False, deadend_stage=stage,
            )

    def test_nnz_byproducts_match_definition(self, medium_graph):
        """nnz_h22 / nnz_correction equal the explicitly re-derived counts."""
        artifacts = build_artifacts(medium_graph, c=0.05, hub_ratio=0.2)
        blocks = artifacts.blocks
        assert artifacts.nnz_h22 == int(blocks["H22"].nnz)
        correction = (
            blocks["H21"] @ artifacts.h11_factors.solve_matrix(blocks["H12"])
        ).tocsr()
        correction.eliminate_zeros()
        assert artifacts.nnz_correction == int(correction.nnz)
