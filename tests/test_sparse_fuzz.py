"""Randomized differential fuzz suite: sparse == dense, bit for bit.

Each case derives an entire scenario — graph family, size, fault budget,
fault set, rule, adversary, batch size, tile budget, round count — from a
single integer seed, runs the same batch through the dense
:class:`~repro.simulation.vectorized.VectorizedEngine` and the CSR
:class:`~repro.simulation.sparse.SparseEngine` (float64), and requires every
output array to match exactly (``np.array_equal``, never ``allclose``).

The families deliberately mix degree-homogeneous graphs (complete,
``k``-in-regular, ring lattices) with heterogeneous ones (core networks and
core-like networks, whose clique nodes have ~``n`` in-neighbours while the
periphery stays sparse) so the bucket-major plane layout is exercised across
one-bucket and many-bucket shapes, with and without tiling.

The first :data:`FAST_CASES` seeds run in the default suite; the remaining
seeds up to :data:`TOTAL_CASES` carry the ``slow`` marker (excluded by
``make test-fast``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.adversary import (
    BatchBroadcastConsistentWrapper,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchStaticValueStrategy,
    ExtremePushStrategy,
    StaticValueStrategy,
)
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import (
    complete_graph,
    core_network,
    k_in_regular_digraph,
    random_core_like_network,
    ring_lattice,
)
from repro.graphs.random_graphs import heterogeneous_ring_lattice
from repro.simulation import SimulationConfig, SparseEngine, VectorizedEngine
from repro.simulation.vectorized import random_input_matrix

#: Seeds run in the default (fast) suite.
FAST_CASES = 40
#: Total seeded cases; seeds >= FAST_CASES are marked ``slow``.
TOTAL_CASES = 200
#: Extra ``heterogeneous_ring_lattice`` cases, seeded from their own stream.
HETRING_CASES, HETRING_STREAM = 24, 7001

FAMILIES = ("complete", "core", "core-like", "ring", "k-in-regular")
STRATEGY_KINDS = (
    "none",
    "scalar-extreme",
    "scalar-static",
    "batch-static",
    "batch-extreme",
    "batch-frozen",
    "batch-noise",
    "batch-broadcast",
)


def _draw_graph(rng: np.random.Generator, f: int):
    """Return a graph of a random family whose fault-free in-degrees satisfy
    the trimmed rules' ``2f`` floor by construction."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    if family == "complete":
        n = int(rng.integers(3 * f + 2, 25))
        return complete_graph(n)
    if family == "core":
        n = int(rng.integers(3 * f + 2, 40))
        return core_network(n, f)
    if family == "core-like":
        n = int(rng.integers(3 * f + 2, 40))
        probability = float(rng.uniform(0.05, 0.4))
        return random_core_like_network(n, f, probability, rng=rng)
    if family == "ring":
        k = int(rng.integers(f, f + 4))
        n = int(rng.integers(2 * k + 2, 60))
        return ring_lattice(n, k)
    degree = 2 * f + int(rng.integers(0, 6))
    n = int(rng.integers(degree + 2, 60))
    return k_in_regular_digraph(n, degree, rng=rng)


def _draw_strategy(rng: np.random.Generator, seed: int):
    """Return a fresh adversary blueprint (deep-copied once per engine)."""
    kind = STRATEGY_KINDS[int(rng.integers(len(STRATEGY_KINDS)))]
    if kind == "none":
        return None
    if kind == "scalar-extreme":
        return ExtremePushStrategy(delta=float(rng.uniform(0.5, 5.0)))
    if kind == "scalar-static":
        return StaticValueStrategy(float(rng.uniform(-10.0, 10.0)))
    if kind == "batch-static":
        return BatchStaticValueStrategy(float(rng.uniform(-10.0, 10.0)))
    if kind == "batch-extreme":
        return BatchExtremePushStrategy(float(rng.uniform(0.5, 5.0)))
    if kind == "batch-frozen":
        return BatchFrozenValueStrategy()
    if kind == "batch-noise":
        # Seeded with an int: each engine deep-copies the blueprint before
        # the generator's first draw, so both consume identical streams.
        return BatchRandomNoiseStrategy(-5.0, 5.0, rng=seed)
    return BatchBroadcastConsistentWrapper(
        BatchExtremePushStrategy(float(rng.uniform(0.5, 3.0)))
    )


def _fuzz_one(seed: int) -> None:
    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, 3))
    _differential(rng, seed, f, _draw_graph(rng, f))


def _differential(rng: np.random.Generator, seed: int, f: int, graph) -> None:
    """Draw the rest of the scenario from ``rng`` and compare the engines."""
    nodes = sorted(graph.nodes, key=repr)
    fault_count = int(rng.integers(0, f + 1))
    faulty = frozenset(
        int(c) for c in rng.choice(len(nodes), size=fault_count, replace=False)
    )
    rule_factory = TrimmedMeanRule if rng.random() < 0.7 else TrimmedMidpointRule
    adversary = _draw_strategy(rng, seed) if faulty else None
    batch = int(rng.choice([1, 4, 16]))
    rounds = int(rng.integers(4, 11))
    max_plane_bytes = [None, 1 << 12, 1 << 16][int(rng.integers(3))]

    config = SimulationConfig(
        max_rounds=rounds,
        tolerance=0.0,
        record_history=True,
        stop_on_convergence=False,
    )
    dense = VectorizedEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(adversary),
        config=config,
    )
    sparse = SparseEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(adversary),
        config=config,
        max_plane_bytes=max_plane_bytes,
    )
    assert sparse._edge_nodes == dense._edge_nodes, "canonical channel order"

    matrix = random_input_matrix(dense.nodes, batch, rng=rng)
    dense_out = dense.run_batch(matrix.copy())
    sparse_out = sparse.run_batch(matrix.copy())

    label = (
        f"seed={seed} n={len(nodes)} f={f} |F|={len(faulty)} B={batch} "
        f"rounds={rounds} tile={max_plane_bytes} "
        f"adversary={getattr(adversary, 'name', None)}"
    )
    assert np.array_equal(dense_out.final_states, sparse_out.final_states), label
    assert np.array_equal(dense_out.converged, sparse_out.converged), label
    assert np.array_equal(
        dense_out.rounds_executed, sparse_out.rounds_executed
    ), label
    assert np.array_equal(
        dense_out.initial_spread, sparse_out.initial_spread
    ), label
    assert np.array_equal(dense_out.final_spread, sparse_out.final_spread), label
    assert np.array_equal(dense_out.validity_ok, sparse_out.validity_ok), label
    assert np.array_equal(
        dense_out.spread_history, sparse_out.spread_history
    ), label


@pytest.mark.parametrize("seed", range(FAST_CASES))
def test_sparse_matches_dense_fuzz_fast(seed):
    """Fast CI subset of the randomized differential sweep."""
    _fuzz_one(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(FAST_CASES, TOTAL_CASES))
def test_sparse_matches_dense_fuzz_full(seed):
    """The long tail of the randomized differential sweep."""
    _fuzz_one(seed)


@pytest.mark.parametrize("seed", range(HETRING_CASES))
def test_sparse_matches_dense_fuzz_hetring(seed):
    """Extra cases on array-built heterogeneous ring lattices (dozens of
    degree buckets), drawn from their own seed stream so the main sweep's
    draws are unchanged."""
    rng = np.random.default_rng([HETRING_STREAM, seed])
    f = int(rng.integers(1, 3))
    n = int(rng.integers(2 * f + 3, 90))
    graph = heterogeneous_ring_lattice(n, f, float(rng.uniform(0.0, 4.0)), rng=rng)
    _differential(rng, seed, f, graph)
