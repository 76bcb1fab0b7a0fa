"""The sparse engine's array-built index equals the per-node reference build.

:meth:`SparseEngine._build_index_arrays` derives the CSR lists, the
bucket-major plane and the faulty-channel positions with array operations
from :meth:`Digraph.edge_columns`.  :func:`_reference_index` below is the
straightforward per-node construction (one ``repr`` sort of every
receiver's in-neighbours); every array must match it bit for bit, dtype
included, on int labels (``n >= 10``, where ``repr`` order is not numeric
order), on ``str`` labels and on ``tuple`` labels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import AlgorithmPreconditionError
from repro.graphs import Digraph, core_network, ring_lattice
from repro.graphs.random_graphs import (
    heterogeneous_ring_lattice,
    random_core_like_network,
)
from repro.simulation import SparseEngine, VectorizedEngine
from repro.simulation.dynamic import ScheduleLayout, StaticSchedule


def _reference_index(engine: SparseEngine) -> dict[str, object]:
    """Per-node construction of every index array the sparse kernel uses."""
    graph = engine.graph
    nodes = engine.nodes
    column = {node: index for index, node in enumerate(nodes)}
    faulty = engine.faulty
    ff_cols = np.array(
        [i for i, node in enumerate(nodes) if node not in faulty], dtype=int
    )

    indptr = [0]
    indices: list[int] = []
    edge_nodes: list[tuple] = []
    edge_receiver: list[int] = []
    edge_slot: list[int] = []
    for ff_index, col in enumerate(ff_cols):
        receiver = nodes[col]
        senders = sorted(graph.in_neighbors(receiver), key=repr)
        for slot, sender in enumerate(senders):
            indices.append(column[sender])
            if sender in faulty:
                edge_nodes.append((sender, receiver))
                edge_receiver.append(ff_index)
                edge_slot.append(slot)
        indptr.append(indptr[-1] + len(senders))
    csr_indptr = np.array(indptr, dtype=np.int64)
    csr_indices = np.array(indices, dtype=np.int64)

    by_degree: dict[int, list[int]] = {}
    for ff_index, degree in enumerate(np.diff(csr_indptr)):
        by_degree.setdefault(int(degree), []).append(ff_index)
    chunks: list[np.ndarray] = []
    segment_start = np.zeros(len(ff_cols), dtype=np.int64)
    buckets = []
    cursor = 0
    for degree in sorted(by_degree):
        members = by_degree[degree]
        start = cursor
        for ff_index in members:
            segment_start[ff_index] = cursor
            chunks.append(csr_indices[csr_indptr[ff_index] : csr_indptr[ff_index + 1]])
            cursor += degree
        buckets.append((degree, ff_cols[np.array(members, dtype=int)], start, cursor))
    plane_indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    edge_plane_pos = (
        segment_start[np.array(edge_receiver, dtype=int)]
        + np.array(edge_slot, dtype=np.int64)
        if edge_nodes
        else np.empty(0, dtype=np.int64)
    )

    layout = ScheduleLayout.for_graph(graph)
    plane_edge_pos: list[int] = []
    plane_recv_cols: list[int] = []
    for degree, columns, _start, _stop in buckets:
        for col in columns:
            receiver = nodes[int(col)]
            senders = sorted(graph.in_neighbors(receiver), key=repr)
            plane_edge_pos.extend(layout.edge_index[(s, receiver)] for s in senders)
            plane_recv_cols.extend([int(col)] * len(senders))

    return {
        "_faulty_cols": np.array(
            [i for i, node in enumerate(nodes) if node in faulty], dtype=int
        ),
        "_ff_cols": ff_cols,
        "_csr_indptr": csr_indptr,
        "_csr_indices": csr_indices,
        "_edge_nodes": tuple(edge_nodes),
        "_edge_src_cols": np.array([column[s] for s, _t in edge_nodes], dtype=int),
        "_edge_dst_cols": np.array([column[t] for _s, t in edge_nodes], dtype=int),
        "_plane_indices": plane_indices,
        "_edge_plane_pos": edge_plane_pos,
        "buckets": buckets,
        "_plane_edge_pos": np.array(plane_edge_pos, dtype=np.int64),
        "_plane_recv_cols": np.array(plane_recv_cols, dtype=np.int64),
    }


def _relabel(graph: Digraph, label) -> Digraph:
    """An eagerly built copy of ``graph`` with every node renamed."""
    return Digraph(
        nodes=[label(node) for node in graph.nodes],
        edges=[(label(s), label(t)) for s, t in graph.edges],
    )


def _graphs() -> list[tuple[str, Digraph, int]]:
    hetring = heterogeneous_ring_lattice(60, 2, 2.0, rng=4)
    core_like = random_core_like_network(23, 1, 0.3, rng=9)
    return [
        ("hetring-int", hetring, 2),
        ("hetring-str", _relabel(hetring, lambda v: f"node-{v}"), 2),
        ("hetring-tuple", _relabel(hetring, lambda v: (v % 7, str(v))), 2),
        ("core-int", core_network(17, 2), 2),
        ("core-like-int", core_like, 1),
        ("core-like-str", _relabel(core_like, str), 1),
        ("ring-tuple", _relabel(ring_lattice(14, 3), lambda v: (v,)), 1),
    ]


GRAPHS = _graphs()


def _fault_sets(graph: Digraph, f: int) -> list[frozenset]:
    nodes = sorted(graph.nodes, key=repr)
    rng = np.random.default_rng(len(nodes))
    picked = rng.choice(len(nodes), size=f, replace=False)
    return [
        frozenset(),
        frozenset(nodes[int(i)] for i in picked),
        frozenset(nodes[-f:]),
    ]


def _assert_identical(actual: np.ndarray, expected: np.ndarray, name: str) -> None:
    assert actual.dtype == expected.dtype, name
    assert actual.shape == expected.shape, name
    assert np.array_equal(actual, expected), name


@pytest.mark.parametrize("label,graph,f", GRAPHS, ids=[g[0] for g in GRAPHS])
@pytest.mark.parametrize("fault_choice", [0, 1, 2])
@pytest.mark.parametrize("rule_factory", [TrimmedMeanRule, TrimmedMidpointRule])
def test_index_arrays_match_per_node_reference(label, graph, f, fault_choice, rule_factory):
    faulty = _fault_sets(graph, f)[fault_choice]
    engine = SparseEngine(
        graph, rule_factory(f), faulty=faulty, schedule=StaticSchedule()
    )
    expected = _reference_index(engine)

    assert engine._edge_nodes == expected["_edge_nodes"]
    for name, value in expected.items():
        if name in ("_edge_nodes", "buckets"):
            continue
        _assert_identical(getattr(engine, name), value, name)
    assert len(engine._buckets) == len(expected["buckets"])
    for bucket, (degree, columns, start, stop) in zip(
        engine._buckets, expected["buckets"]
    ):
        assert (bucket.degree, bucket.plane_start, bucket.plane_stop) == (
            degree,
            start,
            stop,
        )
        assert all(
            type(v) is int for v in (bucket.degree, bucket.plane_start, bucket.plane_stop)
        )
        _assert_identical(bucket.columns, columns, "bucket.columns")


INT_GRAPHS = [case for case in GRAPHS if case[0].endswith("-int")]


@pytest.mark.parametrize("label,graph,f", INT_GRAPHS, ids=[g[0] for g in INT_GRAPHS])
def test_int_labels_use_repr_order(label, graph, f):
    """Columns follow ``repr`` order, which differs from numeric order for
    ``n >= 10`` (``'10' < '2'``), so the int-label checks are not vacuous."""
    engine = SparseEngine(graph, TrimmedMeanRule(f))
    assert list(engine.nodes) != sorted(engine.nodes)


def test_array_built_graph_stays_unmaterialised():
    """Building the sparse index reads the edge arrays, not neighbour sets."""
    graph = heterogeneous_ring_lattice(200, 2, 2.0, rng=3)
    SparseEngine(graph, TrimmedMeanRule(2), faulty={5, 17})
    for slot in ("_succ", "_pred"):
        with pytest.raises(AttributeError):
            object.__getattribute__(graph, slot)


@pytest.mark.parametrize("faulty", [frozenset(), frozenset({"n03"})])
def test_in_degree_precondition_message_matches_dense(faulty):
    """The CSR-degree check names the same first violating node, with the
    same text, as the rule's per-node ``validate_graph``."""
    graph = core_network(12, 2)
    graph = _relabel(graph, lambda v: f"n{v:02d}")
    for target in ("n11", "n07"):
        for source in sorted(graph.in_neighbors(target))[:-3]:
            graph.remove_edge(source, target)
    rule = TrimmedMeanRule(2)
    with pytest.raises(AlgorithmPreconditionError) as dense:
        VectorizedEngine(graph, rule, faulty=faulty)
    with pytest.raises(AlgorithmPreconditionError) as sparse:
        SparseEngine(graph, rule, faulty=faulty)
    assert str(sparse.value) == str(dense.value)
    assert "'n07'" in str(sparse.value)
