"""Unit tests for the layered graph storage."""

import pytest

from repro.hnsw.graph import LayeredGraph


@pytest.fixture
def graph():
    g = LayeredGraph()
    g.add_node(0, 2)
    g.add_node(1, 0)
    g.add_node(2, 1)
    return g


class TestAddNode:
    def test_levels_registered(self, graph):
        assert graph.node_level(0) == 2
        assert graph.node_level(1) == 0
        assert graph.max_level == 2

    def test_dense_ids_enforced(self, graph):
        with pytest.raises(ValueError, match="densely"):
            graph.add_node(5, 0)

    def test_negative_level_rejected(self, graph):
        with pytest.raises(ValueError, match="level"):
            graph.add_node(3, -1)

    def test_entry_point_not_auto_updated(self):
        g = LayeredGraph()
        g.add_node(0, 3)
        assert g.entry_point == -1

    def test_node_present_on_all_lower_levels(self, graph):
        assert 0 in graph.nodes_at_level(0)
        assert 0 in graph.nodes_at_level(1)
        assert 0 in graph.nodes_at_level(2)
        assert 1 not in graph.nodes_at_level(1)


class TestNeighbors:
    def test_set_and_get(self, graph):
        graph.set_neighbors(0, 1, [2])
        assert graph.neighbors(0, 1) == [2]

    def test_lists_start_empty(self, graph):
        assert graph.neighbors(2, 1) == []

    def test_mutable_reference(self, graph):
        graph.neighbors(0, 0).append(1)
        assert graph.neighbors(0, 0) == [1]


class TestStatistics:
    def test_num_edges(self, graph):
        graph.set_neighbors(0, 0, [1, 2])
        graph.set_neighbors(1, 0, [0])
        assert graph.num_edges(0) == 3
        assert graph.num_edges() == 3

    def test_average_out_degree(self, graph):
        graph.set_neighbors(0, 0, [1, 2])
        assert graph.average_out_degree(0) == pytest.approx(2 / 3)

    def test_average_out_degree_empty_level(self):
        g = LayeredGraph()
        g.add_node(0, 1)
        assert g.average_out_degree(1) == 0.0 or g.average_out_degree(1) >= 0

    def test_nbytes(self, graph):
        graph.set_neighbors(0, 0, [1, 2])
        assert graph.nbytes(bytes_per_edge=4) == 2 * 4 + 3 * 4

    def test_num_nodes_at_level(self, graph):
        assert graph.num_nodes_at_level(0) == 3
        assert graph.num_nodes_at_level(2) == 1


class TestValidate:
    def test_valid_graph_passes(self, graph):
        graph.set_neighbors(0, 0, [1])
        graph.validate()

    def test_self_loop_caught(self, graph):
        graph.set_neighbors(0, 0, [0])
        with pytest.raises(AssertionError, match="self-loop"):
            graph.validate()

    def test_duplicate_caught(self, graph):
        graph.set_neighbors(0, 0, [1, 1])
        with pytest.raises(AssertionError, match="duplicate"):
            graph.validate()

    def test_cross_level_link_caught(self, graph):
        graph.set_neighbors(0, 1, [1])  # node 1 only exists on level 0
        with pytest.raises(AssertionError, match="absent"):
            graph.validate()


class TestGraphChecksum:
    """``checksum()`` is the equality every byte-identity test asserts
    (the digests themselves are pinned by
    ``tests/hnsw/test_live_kernel.py::test_golden_build_pins``)."""

    @staticmethod
    def _linked():
        g = LayeredGraph()
        g.add_node(0, 2)
        g.add_node(1, 0)
        g.add_node(2, 1)
        g.entry_point = 0
        g.set_neighbors(0, 0, [2, 1])
        g.set_neighbors(1, 0, [0])
        g.set_neighbors(2, 0, [0, 1])
        g.set_neighbors(0, 1, [2])
        g.set_neighbors(2, 1, [0])
        return g

    def test_identical_builds_share_checksum(self):
        assert self._linked().checksum() == self._linked().checksum()

    def test_checksum_sees_single_edge_change(self):
        before = self._linked().checksum()
        dropped = self._linked()
        dropped.set_neighbors(2, 0, [0])
        reordered = self._linked()
        reordered.set_neighbors(0, 0, [1, 2])   # list order is semantic
        moved_entry = self._linked()
        moved_entry.entry_point = 2
        digests = {before, dropped.checksum(), reordered.checksum(),
                   moved_entry.checksum()}
        assert len(digests) == 4
