"""Tests for edge-list I/O."""

import pytest

from repro import GraphFormatError, load_edge_list, save_edge_list


class TestRoundtrip:
    def test_save_load(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.tsv"
        save_edge_list(tiny_graph, path)
        loaded = load_edge_list(path, n_nodes=tiny_graph.n_nodes)
        assert loaded == tiny_graph

    def test_header_written(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.tsv"
        save_edge_list(tiny_graph, path, header="toy graph\nsecond line")
        text = path.read_text()
        assert text.startswith("# toy graph\n# second line\n")

    def test_node_count_comment(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.tsv"
        save_edge_list(tiny_graph, path)
        assert f"nodes: {tiny_graph.n_nodes}" in path.read_text()


class TestLoad:
    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n_nodes == 3
        assert g.has_edge(0, 1)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0\t1\n")
        g = load_edge_list(path)
        assert g.n_edges == 1

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5 extra\n")
        g = load_edge_list(path)
        assert g.has_edge(0, 1)

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,2\n")
        g = load_edge_list(path, delimiter=",")
        assert g.n_edges == 2

    def test_explicit_n_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, n_nodes=10)
        assert g.n_nodes == 10

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(path)
        assert ":1:" in str(err.value)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_empty_file_requires_n_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)
        g = load_edge_list(path, n_nodes=3)
        assert g.n_nodes == 3 and g.n_edges == 0
