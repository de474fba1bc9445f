"""Unit tests for repro.graph.graph.Graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Graph, GraphFormatError


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.n_nodes == 3
        assert g.n_edges == 3

    def test_from_edges_explicit_n_nodes(self):
        g = Graph.from_edges([(0, 1)], n_nodes=5)
        assert g.n_nodes == 5
        assert g.out_degrees().tolist() == [1, 0, 0, 0, 0]

    def test_from_edges_duplicate_edges_sum_weights(self):
        g = Graph.from_edges([(0, 1), (0, 1)], n_nodes=2)
        assert g.n_edges == 1
        assert g.adjacency[0, 1] == 2.0

    def test_from_edges_with_weights(self):
        g = Graph.from_edges([(0, 1), (1, 0)], weights=[2.0, 3.0])
        assert g.adjacency[0, 1] == 2.0
        assert g.adjacency[1, 0] == 3.0

    def test_from_edges_empty_requires_n_nodes(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([])

    def test_from_edges_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(-1, 0)])

    def test_from_edges_rejects_too_small_n_nodes(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 5)], n_nodes=3)

    def test_from_edges_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(np.array([[0, 1, 2]]))

    def test_from_edges_rejects_mismatched_weights(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 1)], weights=[1.0, 2.0])

    def test_rejects_non_square(self):
        with pytest.raises(GraphFormatError):
            Graph(sp.csr_matrix((2, 3)))

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0.0, -1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0.0, weight], [0.0, 0.0]]))
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 1), (1, 0)], weights=[1.0, weight])

    def test_empty(self):
        g = Graph.empty(4)
        assert g.n_nodes == 4
        assert g.n_edges == 0

    def test_explicit_zeros_are_dropped(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        adj[0, 1] = 0.0  # explicit zero
        g = Graph(adj)
        assert g.n_edges == 0


class TestProperties:
    def test_degrees(self, tiny_graph):
        out = tiny_graph.out_degrees()
        inn = tiny_graph.in_degrees()
        assert out.sum() == tiny_graph.n_edges
        assert inn.sum() == tiny_graph.n_edges
        assert np.array_equal(tiny_graph.total_degrees(), out + inn)

    def test_deadend_mask(self, tiny_graph):
        mask = tiny_graph.deadend_mask()
        assert mask[7]
        assert mask.sum() == 1

    def test_out_neighbors(self, tiny_graph):
        assert set(tiny_graph.out_neighbors(0).tolist()) == {1, 2}
        assert tiny_graph.out_neighbors(7).size == 0

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(7, 0)

    def test_edges_roundtrip(self, tiny_graph):
        rebuilt = Graph.from_edges(tiny_graph.edges(), n_nodes=tiny_graph.n_nodes)
        assert rebuilt == tiny_graph


class TestTransformations:
    def test_symmetrized_is_symmetric_binary(self, small_graph):
        sym = small_graph.symmetrized()
        assert (sym != sym.T).nnz == 0
        assert set(np.unique(sym.data)) == {1.0}

    def test_permute_roundtrip(self, small_graph):
        rng = np.random.default_rng(0)
        order = rng.permutation(small_graph.n_nodes)
        permuted = small_graph.permute(order)
        inverse = np.empty_like(order)
        inverse[np.arange(order.size)] = order
        # permuting back with the positions array restores the graph
        positions = np.argsort(order)
        restored = permuted.permute(positions)
        assert restored == small_graph

    def test_permute_preserves_edges(self, tiny_graph):
        order = np.array([3, 1, 0, 2, 4, 5, 6, 7])
        permuted = tiny_graph.permute(order)
        assert permuted.n_edges == tiny_graph.n_edges
        # old edge (0,1): 0 is at new position 2, 1 at new position 1
        assert permuted.has_edge(2, 1)

    def test_permute_rejects_invalid(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.permute(np.zeros(8, dtype=int))

    def test_subgraph(self, tiny_graph):
        sub = tiny_graph.subgraph([0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.has_edge(0, 1)
        assert sub.has_edge(0, 2)
        assert not sub.has_edge(1, 2)

    def test_subgraph_out_of_range(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.subgraph([0, 99])

    def test_principal_submatrix(self, tiny_graph):
        sub = tiny_graph.principal_submatrix(4)
        assert sub.n_nodes == 4
        assert sub.has_edge(0, 1)

    def test_principal_submatrix_bounds(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.principal_submatrix(0)
        with pytest.raises(GraphFormatError):
            tiny_graph.principal_submatrix(9)

    def test_reversed(self, tiny_graph):
        rev = tiny_graph.reversed()
        assert rev.has_edge(1, 0)
        assert rev.n_edges == tiny_graph.n_edges
        assert rev.reversed() == tiny_graph

    def test_without_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1), (1, 1)], n_nodes=2)
        clean = g.without_self_loops()
        assert clean.n_edges == 1
        assert clean.has_edge(0, 1)

    def test_equality(self, tiny_graph, small_graph):
        assert tiny_graph == Graph(tiny_graph.adjacency.copy())
        assert tiny_graph != small_graph
