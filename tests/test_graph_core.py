"""Unit tests for the CSR Graph core."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import GraphError, NodeNotFoundError
from repro.graph import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_edges_dedupes_parallel_edges(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_drops_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_from_edges_infers_node_count(self):
        g = Graph.from_edges([(2, 5)])
        assert g.num_nodes == 6

    def test_from_edges_explicit_node_count_adds_isolated(self):
        g = Graph.from_edges([(0, 1)], num_nodes=4)
        assert g.num_nodes == 4
        assert g.degree(3) == 0

    def test_from_edges_rejects_undersized_node_count(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 5)], num_nodes=3)

    def test_from_edges_rejects_negative_ids(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(-1, 2)])

    def test_from_edges_rejects_bad_shape(self):
        with pytest.raises(GraphError):
            Graph.from_edges(np.array([[1, 2, 3]]))

    def test_from_edges_rejects_float_dtype_naming_it(self):
        # regression: astype(int64) silently truncated (0, 1.7) -> (0, 1)
        with pytest.raises(GraphError, match="float64"):
            Graph.from_edges(np.array([[0.0, 1.7]]))

    def test_from_edges_rejects_integral_valued_floats(self):
        # even exactly-representable values: the dtype is the bug signal
        with pytest.raises(GraphError, match="integer dtype"):
            Graph.from_edges(np.array([[0.0, 1.0]]))

    def test_from_edges_rejects_float_tuples(self):
        with pytest.raises(GraphError, match="integer dtype"):
            Graph.from_edges([(0, 1.5)])

    def test_from_edges_empty_list_still_builds(self):
        # the empty fast path must stay ahead of the dtype check (an
        # empty sequence defaults to float64)
        g = Graph.from_edges([], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 0

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0

    def test_empty_zero_nodes(self):
        g = Graph.empty()
        assert g.num_nodes == 0
        assert len(g) == 0

    def test_empty_rejects_negative(self):
        with pytest.raises(GraphError):
            Graph.empty(-1)

    def test_from_numpy_array(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        g = Graph.from_edges(edges)
        assert g.num_edges == 3

    def test_raw_constructor_rejects_malformed_indptr(self):
        with pytest.raises(GraphError):
            Graph(np.array([1, 2]), np.array([0, 1]))

    def test_raw_constructor_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2, 1, 2]), np.array([1, 0]))

    def test_raw_constructor_rejects_out_of_range_indices(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([0, 9]))

    def test_raw_constructor_rejects_odd_half_edges(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 1, 1]), np.array([1]))


class TestAccessors:
    def test_degrees(self, triangle):
        assert np.array_equal(triangle.degrees, [2, 2, 2])

    def test_degree_single(self, star10):
        assert star10.degree(0) == 10
        assert star10.degree(1) == 1

    def test_degree_out_of_range(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.degree(3)

    def test_neighbors_sorted(self):
        g = Graph.from_edges([(1, 5), (1, 3), (1, 0)])
        assert np.array_equal(g.neighbors(1), [0, 3, 5])

    def test_neighbors_readonly(self, triangle):
        nbrs = triangle.neighbors(0)
        with pytest.raises(ValueError):
            nbrs[0] = 99

    def test_has_edge(self, square_with_tail):
        assert square_with_tail.has_edge(0, 1)
        assert square_with_tail.has_edge(1, 0)
        assert not square_with_tail.has_edge(0, 2)

    def test_contains(self, triangle):
        assert 0 in triangle
        assert 2 in triangle
        assert 3 not in triangle
        assert "x" not in triangle

    def test_nodes(self, triangle):
        assert np.array_equal(triangle.nodes(), [0, 1, 2])

    def test_edges_iterates_each_once(self, square_with_tail):
        edges = list(square_with_tail.edges())
        assert len(edges) == square_with_tail.num_edges
        assert all(u < v for u, v in edges)
        assert (0, 1) in edges

    def test_edge_array_matches_edges(self, square_with_tail):
        arr = square_with_tail.edge_array()
        assert arr.shape == (square_with_tail.num_edges, 2)
        assert set(map(tuple, arr.tolist())) == set(square_with_tail.edges())

    def test_edge_array_empty_graph(self):
        assert Graph.empty(3).edge_array().shape == (0, 2)


class TestDunder:
    def test_equality(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 1), (1, 2)])
        assert a != b

    def test_equality_other_type(self, triangle):
        assert triangle != "not a graph"

    def test_repr(self, triangle):
        assert "num_nodes=3" in repr(triangle)
        assert "num_edges=3" in repr(triangle)

    def test_immutability(self, triangle):
        with pytest.raises(ValueError):
            triangle.indices[0] = 5
        with pytest.raises(ValueError):
            triangle.indptr[0] = 5


class TestRoundTrip:
    def test_rebuild_from_edge_array(self, square_with_tail):
        rebuilt = Graph.from_edges(
            square_with_tail.edge_array(), num_nodes=square_with_tail.num_nodes
        )
        assert rebuilt == square_with_tail

    def test_pickle_round_trip(self, square_with_tail):
        clone = pickle.loads(pickle.dumps(square_with_tail))
        assert clone == square_with_tail
        assert clone.indptr.dtype == square_with_tail.indptr.dtype
        assert clone.indices.dtype == square_with_tail.indices.dtype
