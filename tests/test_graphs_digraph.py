"""Unit tests for the core Digraph type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidParameterError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graphs import Digraph


class TestConstruction:
    def test_empty_graph(self):
        graph = Digraph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert graph.nodes == frozenset()
        assert graph.edges == frozenset()

    def test_nodes_and_edges_from_constructor(self):
        graph = Digraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)])
        assert graph.nodes == frozenset({0, 1, 2})
        assert graph.edges == frozenset({(0, 1), (1, 2)})

    def test_edges_create_missing_endpoints(self):
        graph = Digraph(edges=[(5, 9)])
        assert graph.nodes == frozenset({5, 9})

    def test_duplicate_edges_are_collapsed(self):
        graph = Digraph(edges=[(0, 1), (0, 1), (0, 1)])
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Digraph(edges=[(3, 3)])

    def test_adding_existing_node_is_noop(self):
        graph = Digraph(nodes=[0], edges=[(0, 1)])
        graph.add_node(0)
        assert graph.out_degree(0) == 1

    def test_string_and_int_nodes_coexist(self):
        graph = Digraph(edges=[("a", 1), (1, "b")])
        assert graph.has_edge("a", 1)
        assert graph.in_neighbors("b") == frozenset({1})


class TestNeighborQueries:
    def test_in_and_out_neighbors(self):
        graph = Digraph(edges=[(0, 1), (2, 1), (1, 3)])
        assert graph.in_neighbors(1) == frozenset({0, 2})
        assert graph.out_neighbors(1) == frozenset({3})
        assert graph.in_degree(1) == 2
        assert graph.out_degree(1) == 1

    def test_direction_matters(self):
        graph = Digraph(edges=[(0, 1)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_unknown_node_raises(self):
        graph = Digraph(nodes=[0])
        with pytest.raises(NodeNotFoundError):
            graph.in_neighbors(99)
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(99)

    def test_in_neighbors_within(self):
        graph = Digraph(edges=[(0, 5), (1, 5), (2, 5), (3, 5)])
        assert graph.in_neighbors_within(5, frozenset({0, 2, 9})) == {0, 2}
        assert graph.in_degree_within(5, frozenset({0, 2, 9})) == 2
        assert graph.in_degree_within(5, frozenset()) == 0

    def test_in_degree_within_large_group_path(self):
        # Exercise the branch iterating the predecessor set (preds smaller).
        graph = Digraph(edges=[(0, 1)])
        graph.add_nodes(range(2, 50))
        group = frozenset(range(0, 50, 1)) - {1}
        assert graph.in_degree_within(1, group) == 1


class TestMutation:
    def test_remove_edge(self):
        graph = Digraph(edges=[(0, 1), (1, 0)])
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)

    def test_remove_missing_edge_raises(self):
        graph = Digraph(nodes=[0, 1])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_remove_node_cleans_incident_edges(self):
        graph = Digraph(edges=[(0, 1), (1, 2), (2, 0)])
        graph.remove_node(1)
        assert graph.nodes == frozenset({0, 2})
        assert graph.edges == frozenset({(2, 0)})

    def test_bidirectional_edge_helper(self):
        graph = Digraph()
        graph.add_bidirectional_edge(0, 1)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_copy_is_independent(self):
        graph = Digraph(edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 0)
        assert not graph.has_edge(1, 0)
        assert clone.has_edge(1, 0)


class TestDerivedGraphs:
    def test_subgraph(self):
        graph = Digraph(edges=[(0, 1), (1, 2), (2, 0), (0, 3)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.nodes == frozenset({0, 1, 2})
        assert sub.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_subgraph_unknown_node_raises(self):
        graph = Digraph(nodes=[0])
        with pytest.raises(NodeNotFoundError):
            graph.subgraph([0, 7])

    def test_reverse(self):
        graph = Digraph(edges=[(0, 1), (1, 2)])
        rev = graph.reverse()
        assert rev.edges == frozenset({(1, 0), (2, 1)})
        assert rev.nodes == graph.nodes

    def test_is_symmetric(self):
        asym = Digraph(edges=[(0, 1), (1, 2), (2, 0)])
        sym = Digraph(edges=[(0, 1), (1, 0)])
        assert not asym.is_symmetric()
        assert sym.is_symmetric()

    def test_to_undirected_edges(self):
        graph = Digraph(edges=[(0, 1), (1, 0), (1, 2)])
        assert graph.to_undirected_edges() == frozenset(
            {frozenset({0, 1}), frozenset({1, 2})}
        )


class TestDunders:
    def test_len_iter_contains(self):
        graph = Digraph(nodes=[0, 1, 2])
        assert len(graph) == 3
        assert set(iter(graph)) == {0, 1, 2}
        assert 1 in graph
        assert 9 not in graph

    def test_equality(self):
        first = Digraph(edges=[(0, 1)])
        second = Digraph(edges=[(0, 1)])
        third = Digraph(edges=[(1, 0)])
        assert first == second
        assert first != third
        assert first != "not a graph"

    def test_repr(self):
        graph = Digraph(edges=[(0, 1)])
        assert "n=2" in repr(graph) and "m=1" in repr(graph)


def _eager_and_array(n, sources, targets):
    """The same edge list built eagerly and from arrays."""
    eager = Digraph(nodes=range(n), edges=zip(sources, targets))
    arrays = Digraph.from_edge_arrays(
        n, np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)
    )
    return eager, arrays


def _random_edges(n, m, seed):
    """``m`` random non-loop edges on ``0..n-1`` (duplicates likely)."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=m)
    shift = rng.integers(1, n, size=m)
    return sources.tolist(), ((sources + shift) % n).tolist()


class TestFromEdgeArrays:
    @pytest.mark.parametrize("n,m,seed", [(12, 40, 0), (50, 600, 1), (500, 4000, 2)])
    def test_equal_to_eager_construction(self, n, m, seed):
        eager, arrays = _eager_and_array(n, *_random_edges(n, m, seed))
        assert arrays == eager
        assert arrays.number_of_edges == eager.number_of_edges
        assert list(arrays.nodes) == list(eager.nodes)
        assert list(arrays) == list(eager)

    @pytest.mark.parametrize("n,m,seed", [(12, 40, 3), (500, 4000, 4)])
    def test_neighbour_iteration_order_matches_eager(self, n, m, seed):
        eager, arrays = _eager_and_array(n, *_random_edges(n, m, seed))
        for node in range(n):
            assert list(arrays.in_neighbors(node)) == list(eager.in_neighbors(node))
            assert list(arrays.out_neighbors(node)) == list(eager.out_neighbors(node))
            assert list(arrays._pred[node]) == list(eager._pred[node])
            assert list(arrays._succ[node]) == list(eager._succ[node])

    def test_array_answers_need_no_neighbour_sets(self):
        sources, targets = _random_edges(30, 200, 5)
        eager, arrays = _eager_and_array(30, sources, targets)
        assert arrays.number_of_nodes == 30
        assert arrays.number_of_edges == eager.number_of_edges
        assert arrays.nodes == eager.nodes
        assert [arrays.in_degree(v) for v in range(30)] == [
            eager.in_degree(v) for v in range(30)
        ]
        # Only the edge arrays exist so far: no set was built.
        for slot in ("_succ", "_pred"):
            with pytest.raises(AttributeError):
                object.__getattribute__(arrays, slot)

    def test_parallel_edges_collapse_to_first_occurrence(self):
        graph = Digraph.from_edge_arrays(3, [0, 1, 0, 0, 2, 1], [1, 2, 1, 1, 0, 2])
        assert graph.number_of_edges == 3
        column = {node: node for node in range(3)}
        sources, targets = graph.edge_columns(column)
        assert list(zip(sources.tolist(), targets.tolist())) == [(0, 1), (1, 2), (2, 0)]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError) as excinfo:
            Digraph.from_edge_arrays(4, [0, 2, 3], [1, 2, 3])
        assert excinfo.value.args == SelfLoopError(2).args

    @pytest.mark.parametrize(
        "sources,targets", [([0, 4], [1, 0]), ([0, 1], [1, -1]), ([7], [0])]
    )
    def test_out_of_range_endpoint_rejected(self, sources, targets):
        with pytest.raises(NodeNotFoundError):
            Digraph.from_edge_arrays(4, sources, targets)

    def test_malformed_arrays_rejected(self):
        with pytest.raises(InvalidParameterError):
            Digraph.from_edge_arrays(4, [0, 1], [1])
        with pytest.raises(InvalidParameterError):
            Digraph.from_edge_arrays(4, [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            Digraph.from_edge_arrays(-1, [], [])

    def test_empty_edge_arrays(self):
        graph = Digraph.from_edge_arrays(3, [], [])
        assert graph == Digraph(nodes=range(3))
        assert graph.in_degree(1) == 0

    def test_in_degree_of_missing_node_raises(self):
        graph = Digraph.from_edge_arrays(3, [0], [1])
        with pytest.raises(NodeNotFoundError):
            graph.in_degree(3)
        with pytest.raises(NodeNotFoundError):
            graph.in_degree("a")

    def test_caller_arrays_are_copied(self):
        sources = np.array([0, 1], dtype=np.int64)
        graph = Digraph.from_edge_arrays(3, sources, np.array([1, 2]))
        sources[0] = 2
        assert graph.has_edge(0, 1)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node(99),
            lambda g: g.add_edge(0, 5),
            lambda g: g.remove_edge(*next(iter(sorted(g.edges)))),
            lambda g: g.remove_node(3),
        ],
        ids=["add_node", "add_edge", "remove_edge", "remove_node"],
    )
    def test_mutation_after_array_build(self, mutate):
        eager, arrays = _eager_and_array(12, *_random_edges(12, 40, 6))
        mutate(eager)
        mutate(arrays)
        assert arrays == eager
        assert arrays.nodes == eager.nodes
        assert arrays.number_of_nodes == eager.number_of_nodes
        assert arrays.number_of_edges == eager.number_of_edges
        for node in eager.nodes:
            assert arrays.in_degree(node) == eager.in_degree(node)
            assert list(arrays.in_neighbors(node)) == list(eager.in_neighbors(node))
        column = {node: index for index, node in enumerate(sorted(eager.nodes))}
        got = set(zip(*(a.tolist() for a in arrays.edge_columns(column))))
        want = set(zip(*(a.tolist() for a in eager.edge_columns(column))))
        assert got == want

    def test_copy_is_independent(self):
        _, arrays = _eager_and_array(12, *_random_edges(12, 40, 7))
        clone = arrays.copy()
        clone.add_edge(0, 11)
        clone.remove_node(5)
        assert arrays.has_node(5)
        assert arrays == Digraph.from_edge_arrays(12, *_random_edges(12, 40, 7))

    def test_edge_columns_of_dict_built_graph(self):
        graph = Digraph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        column = {"a": 0, "b": 1, "c": 2}
        sources, targets = graph.edge_columns(column)
        assert sources.dtype == np.int64 and targets.dtype == np.int64
        assert sorted(zip(sources.tolist(), targets.tolist())) == [
            (0, 1), (0, 2), (1, 2), (2, 0)
        ]

    def test_pickle_round_trip(self):
        import pickle

        _, arrays = _eager_and_array(12, *_random_edges(12, 40, 8))
        assert pickle.loads(pickle.dumps(arrays)) == arrays
