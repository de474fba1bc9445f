"""Tests for the hub-and-spoke partition: the block-diagonality of H11."""

import numpy as np
import pytest

from repro import Graph, generate_hub_and_spoke
from repro.linalg.rwr_matrix import build_h_matrix
from repro.reorder.hubspoke import hub_and_spoke_partition


def _assert_block_diagonal(matrix, block_sizes):
    """Every non-zero of `matrix` lies inside a declared diagonal block."""
    starts = np.concatenate(([0], np.cumsum(block_sizes)))
    coo = matrix.tocoo()
    row_block = np.searchsorted(starts, coo.row, side="right") - 1
    col_block = np.searchsorted(starts, coo.col, side="right") - 1
    assert np.array_equal(row_block, col_block)


class TestPartition:
    def test_counts_sum(self, small_graph):
        part = hub_and_spoke_partition(small_graph, k=0.2)
        assert part.n_spokes + part.n_hubs == small_graph.n_nodes
        assert int(part.block_sizes.sum()) == part.n_spokes

    def test_spokes_before_hubs(self, small_graph):
        part = hub_and_spoke_partition(small_graph, k=0.2)
        # The permuted graph's first n1 nodes are the spokes; check they have
        # lower symmetrized degree on average than the hubs.
        sym = small_graph.symmetrized()
        degrees = np.asarray(sym.sum(axis=1)).ravel()
        order = part.permutation.order
        spoke_deg = degrees[order[: part.n_spokes]].mean()
        hub_deg = degrees[order[part.n_spokes :]].mean()
        assert hub_deg > spoke_deg

    def test_empty_graph(self):
        part = hub_and_spoke_partition(Graph.empty(0), k=0.3)
        assert part.n_spokes == 0 and part.n_hubs == 0

    def test_h11_is_block_diagonal(self, medium_graph):
        """The core claim of Section 3.2.1: H11 is block diagonal (Fig. 3d)."""
        part = hub_and_spoke_partition(medium_graph, k=0.2)
        reordered = medium_graph.permute(part.permutation.order)
        h = build_h_matrix(reordered.adjacency, c=0.05)
        n1 = part.n_spokes
        h11 = h[:n1, :n1]
        _assert_block_diagonal(h11, part.block_sizes)

    def test_adjacency_spoke_block_structure(self, medium_graph):
        part = hub_and_spoke_partition(medium_graph, k=0.2)
        reordered = medium_graph.permute(part.permutation.order)
        n1 = part.n_spokes
        sym = reordered.symmetrized()[:n1, :n1]
        _assert_block_diagonal(sym, part.block_sizes)

    def test_known_structure_block_sizes(self):
        g = generate_hub_and_spoke(4, 40, spokes_per_block=4, hub_degree=30, seed=1)
        part = hub_and_spoke_partition(g, k=4 / 44)
        if part.n_spokes == 40:
            assert set(part.block_sizes.tolist()) == {4}

    def test_injected_slashburn_result(self, small_graph):
        from repro.reorder.slashburn import slashburn

        sb = slashburn(small_graph.symmetrized(), k=0.2)
        part = hub_and_spoke_partition(small_graph, k=0.2, slashburn_result=sb)
        assert part.n_hubs == sb.hubs.size

    @pytest.mark.parametrize("k", [0.05, 0.2, 0.5])
    def test_larger_k_more_hubs(self, medium_graph, k):
        part = hub_and_spoke_partition(medium_graph, k=k)
        assert part.n_hubs >= 1
        assert part.hub_ratio == k

    def test_hub_monotonicity(self, medium_graph):
        small = hub_and_spoke_partition(medium_graph, k=0.05)
        large = hub_and_spoke_partition(medium_graph, k=0.4)
        assert large.n_hubs > small.n_hubs


def _double_symmetrized_partition(graph, k, slashburn_result=None, method="slashburn"):
    """The partition as built when the graph was symmetrized here and then
    again inside SlashBurn, with spoke blocks found on ``A + A^T``: the
    reference the single symmetrization must reproduce exactly."""
    from repro.graph.components import connected_components
    from repro.reorder.hubspoke import HubSpokePartition
    from repro.reorder.permutation import Permutation
    from repro.reorder.slashburn import slashburn

    assert slashburn_result is None and method == "slashburn"
    sym = graph.symmetrized()
    result = slashburn(sym, k)
    spokes = result.spokes
    _n, labels = connected_components(sym[spokes][:, spokes])
    order = np.concatenate([spokes[np.argsort(labels, kind="stable")], result.hubs])
    return HubSpokePartition(
        permutation=Permutation(order),
        n_spokes=int(spokes.size),
        n_hubs=int(result.hubs.size),
        block_sizes=np.bincount(labels).astype(np.int64),
        slashburn_iterations=result.n_iterations,
        hub_ratio=k,
    )


class TestSymmetrizedOnce:
    """SlashBurn symmetrizes the adjacency once; the partition, and so every
    published array, is what the double symmetrization built."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [0.02, 0.2])
    def test_partition_matches_double_symmetrization(self, seed, k):
        from repro import generate_rmat

        graph = generate_rmat(9, 4000, seed=seed)
        ours = hub_and_spoke_partition(graph, k)
        reference = _double_symmetrized_partition(graph, k)
        assert np.array_equal(ours.permutation.order, reference.permutation.order)
        assert np.array_equal(ours.block_sizes, reference.block_sizes)
        assert (ours.n_spokes, ours.n_hubs, ours.slashburn_iterations) == (
            reference.n_spokes, reference.n_hubs, reference.slashburn_iterations)

    def test_scale_12_build_publishes_identical_arrays(self, tmp_path, monkeypatch):
        from repro import BePI, generate_rmat, save_artifacts
        from repro.core import pipeline
        from repro.persistence import read_manifest

        graph = generate_rmat(12, 8 * 2**12, seed=3)
        save_artifacts(BePI(tol=1e-9).preprocess(graph), tmp_path / "once")
        monkeypatch.setattr(pipeline, "hub_and_spoke_partition",
                            _double_symmetrized_partition)
        save_artifacts(BePI(tol=1e-9).preprocess(graph), tmp_path / "twice")
        once = read_manifest(tmp_path / "once")["checksums"]
        assert once and once == read_manifest(tmp_path / "twice")["checksums"]
