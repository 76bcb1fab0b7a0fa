"""A simple directed graph tailored to the paper's network model.

The paper (Section 2.1) models the network as a *simple directed graph*
``G(V, E)``: no self-loops, no parallel edges, and a directed edge ``(i, j)``
means node ``i`` can reliably transmit to node ``j``.  The consensus
machinery needs fast access to the *incoming* neighbour set ``N⁻_i`` (whose
size governs the trimming in Algorithm 1) and the *outgoing* neighbour set
``N⁺_i`` (the recipients of a node's broadcast).

:class:`Digraph` stores both adjacency directions explicitly.  It is a small
purpose-built class rather than a thin wrapper around :mod:`networkx` so that
the condition checkers and simulation engines have a stable, minimal API that
is easy to reason about and fast for the set-intersection-heavy queries they
perform (``|N⁻_v ∩ A|`` appears in the inner loop of every checker).
Conversion helpers to and from :mod:`networkx` live in :mod:`repro.graphs.io`.

Large generated graphs are built from NumPy edge arrays instead
(:meth:`Digraph.from_edge_arrays`).  Such a graph keeps its unique edges as
index arrays and builds the neighbour sets only when a set query first needs
them, so array consumers (the sparse engine's CSR build) never pay for
``10^5`` Python sets.  The lazy-adjacency contract is documented in
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidParameterError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.types import Edge, NodeId


@dataclass(frozen=True)
class _EdgeArrays:
    """Array form of an array-built graph.

    Nodes are ``0..n-1``; ``sources``/``targets`` hold every unique edge
    once, at its first occurrence in the input edge order (read-only int64
    arrays), and ``in_degrees[v]`` is ``|N⁻_v|``.
    """

    n: int
    sources: np.ndarray
    targets: np.ndarray
    in_degrees: np.ndarray


def _index_array(values: Iterable[int] | np.ndarray, name: str) -> np.ndarray:
    """Return ``values`` as a fresh 1-D int64 array."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-D array, got shape {array.shape}")
    if array.size and array.dtype.kind not in "iu":
        raise InvalidParameterError(f"{name} must hold integers, got dtype {array.dtype}")
    return array.astype(np.int64)


def _grouped_sets(members: np.ndarray, counts: np.ndarray) -> list[set[NodeId]]:
    """Split ``members`` into consecutive groups of ``counts[i]`` and return
    each group as a set, filled in array order."""
    values = members.tolist()
    groups: list[set[NodeId]] = []
    start = 0
    for stop in np.cumsum(counts).tolist():
        groups.append(set(values[start:stop]))
        start = stop
    return groups


class Digraph:
    """A simple directed graph with fast in/out neighbour queries.

    Parameters
    ----------
    nodes:
        Initial node identifiers.  Any hashable values are accepted.
    edges:
        Initial directed edges ``(source, target)``.  Endpoints not already
        present are added automatically.  Self-loops are rejected, matching
        the paper's model; parallel edges are collapsed silently because the
        edge set is a mathematical set.

    Examples
    --------
    >>> g = Digraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (2, 0)])
    >>> sorted(g.in_neighbors(0))
    [2]
    >>> g.in_degree(1)
    1
    """

    # ``_arrays`` is only set on an array-built graph whose neighbour sets
    # are not built yet (see :class:`_ArrayDigraph`).
    __slots__ = ("_succ", "_pred", "_arrays")
    _arrays: _EdgeArrays

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._succ: dict[NodeId, set[NodeId]] = {}
        self._pred: dict[NodeId, set[NodeId]] = {}
        for node in nodes:
            self.add_node(node)
        for source, target in edges:
            self.add_edge(source, target)

    @classmethod
    def from_edge_arrays(
        cls,
        n: int,
        sources: Iterable[int] | np.ndarray,
        targets: Iterable[int] | np.ndarray,
    ) -> "Digraph":
        """Build the graph on nodes ``0..n-1`` with edges ``(sources[i], targets[i])``.

        Equal to ``Digraph(nodes=range(n), edges=zip(sources, targets))``,
        down to the iteration order of every neighbour set, and with the
        same checks: an endpoint outside ``0..n-1`` raises
        :class:`~repro.exceptions.NodeNotFoundError`, a self-loop raises
        :class:`~repro.exceptions.SelfLoopError` and parallel edges
        collapse.  The graph keeps its unique edges as arrays: ``nodes``,
        ``number_of_nodes``, ``number_of_edges``, ``in_degree`` and
        :meth:`edge_columns` answer from them, and the neighbour sets are
        built the first time any other query (or a mutation) needs them.

        Examples
        --------
        >>> g = Digraph.from_edge_arrays(3, [0, 1, 2, 0], [1, 2, 0, 1])
        >>> g.number_of_edges, sorted(g.in_neighbors(1))
        (3, [0])
        """
        if n < 0:
            raise InvalidParameterError(f"n must be >= 0, got {n}")
        src = _index_array(sources, "sources")
        dst = _index_array(targets, "targets")
        if src.shape != dst.shape:
            raise InvalidParameterError(
                f"sources and targets must have equal length, got "
                f"{src.size} and {dst.size}"
            )
        outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if outside.any():
            first = int(np.argmax(outside))
            source = int(src[first])
            raise NodeNotFoundError(source if not 0 <= source < n else int(dst[first]))
        loops = src == dst
        if loops.any():
            raise SelfLoopError(int(src[np.argmax(loops)]))
        # Collapse parallel edges, keeping each at its first occurrence:
        # sort the edge keys, mark runs by adjacent difference and keep the
        # smallest edge index of every run.  (np.unique is ~20x slower here.)
        keys = src * n + dst
        order = np.argsort(keys)
        sorted_keys = keys[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        if run_starts.size < keys.size:
            keep = np.zeros(keys.size, dtype=bool)
            keep[np.minimum.reduceat(order, run_starts)] = True
            src, dst = src[keep], dst[keep]
        in_degrees = np.bincount(dst, minlength=n)
        for array in (src, dst, in_degrees):
            array.flags.writeable = False
        graph = _ArrayDigraph.__new__(_ArrayDigraph)
        graph._arrays = _EdgeArrays(n, src, dst, in_degrees)
        return graph

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` to the graph.  Adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, source: NodeId, target: NodeId) -> None:
        """Add the directed edge ``(source, target)``.

        Missing endpoints are created.  Self-loops raise
        :class:`~repro.exceptions.SelfLoopError` because the paper's edge set
        excludes them (a node's own state is always available to it without
        an explicit edge).
        """
        if source == target:
            raise SelfLoopError(source)
        self.add_node(source)
        self.add_node(target)
        self._succ[source].add(target)
        self._pred[target].add(source)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for source, target in edges:
            self.add_edge(source, target)

    def add_bidirectional_edge(self, first: NodeId, second: NodeId) -> None:
        """Add both ``(first, second)`` and ``(second, first)``.

        Convenience used by the undirected families in the paper (core
        networks, hypercubes): an undirected link is modelled as the pair of
        directed edges, exactly as Figure 3's caption describes.
        """
        self.add_edge(first, second)
        self.add_edge(second, first)

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove the directed edge ``(source, target)``.

        Raises :class:`~repro.exceptions.EdgeNotFoundError` if absent.
        """
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        self._succ[source].discard(target)
        self._pred[target].discard(source)

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every edge incident to it."""
        self._require_node(node)
        for successor in list(self._succ[node]):
            self._pred[successor].discard(node)
        for predecessor in list(self._pred[node]):
            self._succ[predecessor].discard(node)
        del self._succ[node]
        del self._pred[node]

    def copy(self) -> "Digraph":
        """Return an independent copy of the graph."""
        clone = Digraph()
        clone._succ = {node: set(targets) for node, targets in self._succ.items()}
        clone._pred = {node: set(sources) for node, sources in self._pred.items()}
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set ``V``."""
        return frozenset(self._succ)

    @property
    def number_of_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._succ)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set ``E`` as a frozenset of ``(source, target)`` pairs."""
        return frozenset(
            (source, target)
            for source, targets in self._succ.items()
            for target in targets
        )

    @property
    def number_of_edges(self) -> int:
        """``|E|``."""
        return sum(len(targets) for targets in self._succ.values())

    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._succ

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Return whether the directed edge ``(source, target)`` exists."""
        return source in self._succ and target in self._succ[source]

    def in_neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N⁻_node``, the set of nodes with an edge *into* ``node``."""
        self._require_node(node)
        return frozenset(self._pred[node])

    def out_neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N⁺_node``, the set of nodes ``node`` has an edge *to*."""
        self._require_node(node)
        return frozenset(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Return ``|N⁻_node|``."""
        self._require_node(node)
        return len(self._pred[node])

    def out_degree(self, node: NodeId) -> int:
        """Return ``|N⁺_node|``."""
        self._require_node(node)
        return len(self._succ[node])

    def in_neighbors_within(self, node: NodeId, group: frozenset[NodeId] | set[NodeId]) -> set[NodeId]:
        """Return ``N⁻_node ∩ group``.

        This is the primitive underlying the paper's ``⇒`` relation
        (Definition 1) and is kept as a dedicated method because every
        condition checker calls it in its innermost loop.
        """
        self._require_node(node)
        preds = self._pred[node]
        # Iterate over the smaller collection for speed.
        if len(preds) <= len(group):
            return {p for p in preds if p in group}
        return {g for g in group if g in preds}

    def in_degree_within(self, node: NodeId, group: frozenset[NodeId] | set[NodeId]) -> int:
        """Return ``|N⁻_node ∩ group|`` without materialising the set."""
        self._require_node(node)
        preds = self._pred[node]
        if len(preds) <= len(group):
            return sum(1 for p in preds if p in group)
        return sum(1 for g in group if g in preds)

    def edge_columns(self, column: Mapping[NodeId, int]) -> tuple[np.ndarray, np.ndarray]:
        """Return every edge once as int64 index arrays ``(sources, targets)``,
        each endpoint mapped through ``column`` (a node → index map covering
        every node).

        The in-neighbour sets are walked receiver by receiver; an array-built
        graph whose sets are not built yet answers from its edge arrays
        instead (edges in first-occurrence order).
        """
        sources: list[int] = []
        targets: list[int] = []
        for target, preds in self._pred.items():
            target_column = column[target]
            sources.extend(column[source] for source in preds)
            targets.extend([target_column] * len(preds))
        return np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "Digraph":
        """Return the subgraph induced by ``nodes``.

        Unknown nodes raise :class:`~repro.exceptions.NodeNotFoundError`.
        """
        keep = set()
        for node in nodes:
            self._require_node(node)
            keep.add(node)
        sub = Digraph(nodes=keep)
        for source in keep:
            for target in self._succ[source]:
                if target in keep:
                    sub.add_edge(source, target)
        return sub

    def reverse(self) -> "Digraph":
        """Return the graph with every edge direction flipped."""
        rev = Digraph(nodes=self.nodes)
        for source, target in self.edges:
            rev.add_edge(target, source)
        return rev

    def to_undirected_edges(self) -> frozenset[frozenset[NodeId]]:
        """Return the set of unordered node pairs connected in either direction."""
        return frozenset(frozenset((u, v)) for u, v in self.edges)

    def is_symmetric(self) -> bool:
        """Return whether for every edge ``(u, v)`` the reverse ``(v, u)`` exists.

        Symmetric digraphs are how the paper encodes undirected graphs
        (Section 6.1: "G is said to be undirected iff (i, j) ∈ E implies
        (j, i) ∈ E").
        """
        return all(self.has_edge(target, source) for source, target in self.edges)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"Digraph(n={self.number_of_nodes}, m={self.number_of_edges})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_node(self, node: NodeId) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)


class _ArrayDigraph(Digraph):
    """A :class:`Digraph` built by :meth:`Digraph.from_edge_arrays` whose
    neighbour sets are not built yet.

    Only ``_arrays`` is set.  The array-answerable queries are overridden;
    every other method reads ``_succ``/``_pred``, and that first read lands
    in :meth:`__getattr__` (reached only because the slots are unset), which
    builds both sets and turns the instance into a plain :class:`Digraph`.
    From then on the graph behaves, and costs, exactly like an eagerly built
    one; mutations go through the plain class, so they never see the arrays.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> dict[NodeId, set[NodeId]]:
        """Build the neighbour sets on the first read of ``_succ``/``_pred``."""
        if name not in ("_succ", "_pred"):
            raise AttributeError(name)
        arrays = self._arrays
        n = arrays.n
        # Stable grouping fills every set in edge order — the order eager
        # construction adds them in — so each set iterates like the set an
        # eager build produces.
        by_source = np.argsort(arrays.sources, kind="stable")
        by_target = np.argsort(arrays.targets, kind="stable")
        out_degrees = np.bincount(arrays.sources, minlength=n)
        succ_sets = _grouped_sets(arrays.targets[by_source], out_degrees)
        pred_sets = _grouped_sets(arrays.sources[by_target], arrays.in_degrees)
        self.__class__ = Digraph  # type: ignore[assignment]
        del self._arrays
        self._succ = {node: succ_sets[node] for node in range(n)}
        self._pred = {node: pred_sets[node] for node in range(n)}
        return self._succ if name == "_succ" else self._pred

    def __reduce__(self) -> tuple[object, tuple[int, np.ndarray, np.ndarray]]:
        arrays = self._arrays
        return (Digraph.from_edge_arrays, (arrays.n, arrays.sources, arrays.targets))

    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set ``V = {0, …, n − 1}``."""
        return frozenset(range(self._arrays.n))

    @property
    def number_of_nodes(self) -> int:
        """``n = |V|``."""
        return self._arrays.n

    @property
    def number_of_edges(self) -> int:
        """``|E|``."""
        return int(self._arrays.sources.size)

    def in_degree(self, node: NodeId) -> int:
        """Return ``|N⁻_node|`` from the edge arrays."""
        if type(node) is int and 0 <= node < self._arrays.n:
            return int(self._arrays.in_degrees[node])
        return super().in_degree(node)

    def edge_columns(self, column: Mapping[NodeId, int]) -> tuple[np.ndarray, np.ndarray]:
        """Return the unique edges, in first-occurrence order, as int64 index
        arrays mapped through ``column`` (see :meth:`Digraph.edge_columns`)."""
        arrays = self._arrays
        lookup = np.fromiter(
            (column[node] for node in range(arrays.n)), dtype=np.int64, count=arrays.n
        )
        return lookup[arrays.sources], lookup[arrays.targets]
