"""CSR-based sparse message-plane engine for large-``n`` simulation.

The dense :class:`~repro.simulation.vectorized.VectorizedEngine` gathers one
``(B, n_g, d)`` block per in-degree group straight from the state matrix —
one fancy gather and one adversary scatter *per group*.  That is fine at the
paper's ``n ≈ 200`` scales but leaves throughput and memory on the table for
the ``n = 10^4 … 10^6`` overlays the roadmap targets, where real topologies
are sparse and degree-heterogeneous (dozens of distinct in-degrees, hence
dozens of per-round gathers).

:class:`SparseEngine` re-expresses the round as flat segment arithmetic over
a compressed-sparse-row message plane:

* **CSR neighbour lists** are built once from the digraph: ``csr_indptr`` /
  ``csr_indices`` hold every fault-free receiver's in-neighbour columns in
  the repr-sorted canonical order (receiver-major, senders sorted by
  ``repr`` within a receiver — exactly the scalar engine's tie-break and the
  batch adversary layer's canonical channel order).
* Each round performs **one** gather ``plane = state[:, plane_indices]``
  into a flat ``(B, nnz)`` message plane whose receiver segments are laid
  out *bucket-major* (receivers grouped by exact in-degree, canonical order
  within a bucket).  Every degree bucket is therefore a contiguous slab that
  reshapes to a ``(B, m_d, d)`` view for free — no per-group fancy gathers.
* Byzantine channel values are scattered once into precomputed flat plane
  positions, then each slab is sorted **in place** and trimmed via the
  contiguous ``[f : d − f]`` slice.
* The equal-weight average prepends the receiver's own value and reduces
  with ``cumsum`` along the segment, reproducing the scalar engine's
  left-to-right floating-point summation order bit for bit.
  (``np.add.reduceat`` was evaluated for the segment sums and rejected: its
  unrolled/pairwise accumulation is **not** sequential, so it is not
  bit-exact with the scalar reference — see ``docs/architecture.md``.)
* ``dtype=np.float32`` opts into a half-memory state plane.  Float32 runs
  are not bit-identical to float64 runs, but they keep the paper's hull
  invariants *exactly*: the float32 trimmed-mean reduction is clamped into
  the local trim hull ``[min(own ∪ survivors), max(own ∪ survivors)]`` — a
  mathematical no-op that removes the one rounding path which could push a
  value out of the fault-free hull.  The contract is documented in
  ``docs/performance.md``.
* ``max_plane_bytes`` tiles the batch: one round streams the ``B`` rows in
  tiles small enough that the plane working set respects the budget, so a
  single box can simulate ``10^5``-plus-node networks at large ``B``.
  Tiling happens *inside* :meth:`SparseEngine.step_matrix` — the adversary
  still sees the full batch once per round, so the RNG-stream contract and
  every :class:`~repro.adversary.vectorized.BatchStrategy` behave exactly as
  in the untiled run.

At float64 the engine is bit-for-bit identical to the dense engine (and
therefore to the scalar reference) — enforced by
:func:`sparse_cross_check_engines`, the three-way parity matrix in
``tests/test_engine_parity.py`` and the randomized differential fuzz suite
in ``tests/test_sparse_fuzz.py``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.adversary.base import ByzantineStrategy
from repro.adversary.vectorized import BatchStrategy
from repro.algorithms.base import UpdateRule
from repro.exceptions import (
    InvalidParameterError,
    SimulationError,
)
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import ScheduleLayout, TopologySchedule
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import (
    EquivalenceReport,
    VectorizedEngine,
    _divergence_report,
)
from repro.types import ConsensusOutcome, NodeId, ValueMap

#: State dtypes the sparse engine accepts.  float64 is the bit-exact default;
#: float32 trades bit-parity for half the plane memory under the documented
#: tolerance contract (hull invariants still hold exactly).
# reprolint: disable=EXA003 -- this IS the documented dtype= plumbing (docs/architecture.md, float32 tier)
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class _DegreeBucket:
    """One contiguous plane slab: all fault-free receivers of one in-degree.

    ``columns`` are the receivers' state columns (canonical order), and
    ``plane_start``/``plane_stop`` bound the slab inside the flat message
    plane, which reshapes to a ``(B, len(columns), degree)`` view for free.
    """

    degree: int
    columns: np.ndarray
    plane_start: int
    plane_stop: int


class SparseEngine(VectorizedEngine):
    """CSR message-plane executor of Algorithm 1 for large sparse graphs.

    Parameters
    ----------
    graph, rule, faulty, adversary, config:
        As for :class:`~repro.simulation.vectorized.VectorizedEngine`; the
        same trimmed update rules are supported and the same
        :class:`~repro.adversary.vectorized.BatchStrategy` adversaries plug
        in unchanged (the canonical channel order is identical).
    dtype:
        ``np.float64`` (default) for bit-exact parity with the dense and
        scalar engines, or ``np.float32`` for half-memory state under the
        documented tolerance contract.
    max_plane_bytes:
        Optional soft budget (in bytes) for the per-round plane working set.
        When the full batch would exceed it, :meth:`step_matrix` processes
        the batch in row tiles of :meth:`plane_tile_rows` rows each;
        results are bit-identical to the untiled run.  ``None`` disables
        tiling.  A single row's working set is the floor — one row is
        always processed at a time even if it alone exceeds the budget.
    """

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: BatchStrategy | ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        schedule: TopologySchedule | None = None,
        *,
        dtype: np.dtype | type = np.float64,
        max_plane_bytes: int | None = None,
    ) -> None:
        requested = np.dtype(dtype)
        if requested not in SUPPORTED_DTYPES:
            raise InvalidParameterError(
                f"SparseEngine dtype must be one of "
                f"{tuple(str(d) for d in SUPPORTED_DTYPES)}, got {requested}"
            )
        if max_plane_bytes is not None and int(max_plane_bytes) < 1:
            raise InvalidParameterError(
                f"max_plane_bytes must be a positive byte budget or None, "
                f"got {max_plane_bytes!r}"
            )
        self._dtype = requested
        self._max_plane_bytes = (
            int(max_plane_bytes) if max_plane_bytes is not None else None
        )
        super().__init__(
            graph,
            rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            schedule=schedule,
        )

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build_index_arrays(self) -> None:
        """Build the CSR lists, the bucket-major plane layout and the flat
        channel scatter positions, with array operations only.

        Two layouts coexist:

        * the **canonical CSR** (:attr:`csr_indptr` / :attr:`csr_indices`)
          keeps receivers in repr-sorted order — it defines the canonical
          channel order shared with the batch adversary layer and is the
          stable public view;
        * the **plane layout** permutes receiver segments bucket-major
          (grouped by exact in-degree) so each bucket is one contiguous
          slab; ``_plane_indices`` is the single per-round gather and
          ``_edge_plane_pos`` maps canonical channel ``j`` to its flat
          plane position.

        Both come from the graph's edge index arrays
        (:meth:`~repro.graphs.digraph.Digraph.edge_columns`): state columns
        are ranks in ``repr`` order, so sorting edges by (receiver column,
        sender column) *is* the canonical order.  The rule's in-degree
        precondition is checked on the CSR degrees.
        """
        self._build_node_columns()
        n = len(self._nodes)
        ff_cols = self._ff_cols
        is_faulty = np.zeros(n, dtype=bool)
        is_faulty[self._faulty_cols] = True
        ff_index = np.full(n, -1, dtype=np.int64)
        ff_index[ff_cols] = np.arange(ff_cols.size)

        senders, receivers = self._graph.edge_columns(self._column)
        into_ff = ~is_faulty[receivers]
        senders, receivers = senders[into_ff], receivers[into_ff]
        # Edges are unique, so a single key sort orders them by (receiver,
        # sender) with no ties.
        order = np.argsort(receivers * n + senders)
        csr_indices = senders[order]
        csr_receivers = ff_index[receivers[order]]
        degrees = np.bincount(csr_receivers, minlength=ff_cols.size)
        indptr = np.zeros(ff_cols.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self._csr_indptr = indptr
        self._csr_indices = csr_indices
        self._check_in_degrees(degrees)

        # Faulty → fault-free channels in canonical order.
        channels = np.flatnonzero(is_faulty[csr_indices])
        channel_receivers = csr_receivers[channels]
        self._edge_src_cols = csr_indices[channels]
        self._edge_dst_cols = ff_cols[channel_receivers]
        nodes = self._nodes
        self._edge_nodes = tuple(
            (nodes[s], nodes[t])
            for s, t in zip(self._edge_src_cols.tolist(), self._edge_dst_cols.tolist())
        )

        # Bucket-major plane layout: stable-sort fault-free receivers by
        # exact in-degree and lay their CSR segments out in that order.
        by_degree = np.argsort(degrees, kind="stable")
        lengths = degrees[by_degree]
        plane_stops = np.cumsum(lengths)
        segment_start = np.empty(ff_cols.size, dtype=np.int64)
        segment_start[by_degree] = plane_stops - lengths
        self._plane_indices = csr_indices[
            np.repeat(indptr[by_degree] - segment_start[by_degree], lengths)
            + np.arange(csr_indices.size)
        ]
        self._edge_plane_pos = (
            segment_start[channel_receivers] + channels - indptr[channel_receivers]
        )

        first = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
        buckets: list[_DegreeBucket] = []
        for lo, hi in zip(first, first[1:] + [ff_cols.size]):
            start = int(segment_start[by_degree[lo]])
            degree = int(lengths[lo])
            buckets.append(
                _DegreeBucket(
                    degree=degree,
                    columns=ff_cols[by_degree[lo:hi]],
                    plane_start=start,
                    plane_stop=start + degree * (hi - lo),
                )
            )
        self._buckets = tuple(buckets)

        # Per-row working-set estimate for the tiling budget: the flat plane
        # plus the largest bucket's own+survivors block and its cumsum
        # output (the two big per-bucket temporaries).
        f = self._rule.f
        max_trim_block = max(
            (
                bucket.columns.size * (max(bucket.degree - 2 * f, 0) + 1)
                for bucket in self._buckets
            ),
            default=0,
        )
        self._plane_row_elements = self._plane_indices.size + 2 * max_trim_block

    def _check_in_degrees(self, degrees: np.ndarray) -> None:
        """Raise the rule's precondition error for the first fault-free
        receiver (canonical order) whose CSR in-degree is too small."""
        short = np.flatnonzero(degrees < self._rule.minimum_in_degree())
        if short.size:
            first = int(short[0])
            raise self._rule.in_degree_error(
                self._nodes[int(self._ff_cols[first])], int(degrees[first])
            )

    def _build_schedule_arrays(self) -> None:
        """Precompute plane-order translations of schedule masks.

        Overrides the dense variant (the sparse engine has no degree
        groups): ``_plane_edge_pos`` maps every flat plane slot to its
        canonical directed-edge position and ``_plane_recv_cols`` to its
        receiver's state column, so a round's ``(E,)`` edge mask becomes a
        flat list of down plane slots plus their self-substitution sources.
        Sender columns are read straight from ``_plane_indices``.
        """
        layout = ScheduleLayout.for_graph(self._graph)
        self._sched_layout = layout
        self._chan_edge_pos = np.array(
            [layout.edge_index[edge] for edge in self._edge_nodes], dtype=int
        )
        self._plane_recv_cols = np.concatenate(
            [np.repeat(bucket.columns, bucket.degree) for bucket in self._buckets]
        )
        nodes = self._nodes
        self._plane_edge_pos = np.array(
            [
                layout.edge_index[(nodes[sender], nodes[receiver])]
                for sender, receiver in zip(
                    self._plane_indices.tolist(), self._plane_recv_cols.tolist()
                )
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """State dtype of the engine (``float64`` default, ``float32`` tier)."""
        return self._dtype

    @property
    def max_plane_bytes(self) -> int | None:
        """The plane working-set budget in bytes (``None`` = untiled)."""
        return self._max_plane_bytes

    @property
    def csr_indptr(self) -> np.ndarray:
        """CSR row pointer: fault-free receivers in canonical (repr) order."""
        return self._csr_indptr

    @property
    def csr_indices(self) -> np.ndarray:
        """CSR column indices: sender state columns, repr-sorted per receiver."""
        return self._csr_indices

    @property
    def nnz(self) -> int:
        """Number of fault-free-receiver message slots (plane width)."""
        return int(self._csr_indices.size)

    @property
    def plane_bytes_per_row(self) -> int:
        """Estimated plane working-set bytes for one batch row."""
        return int(self._plane_row_elements) * self._dtype.itemsize

    def plane_tile_rows(self, batch: int) -> int:
        """Return how many batch rows one kernel tile processes.

        Without a budget the whole batch is one tile.  With a budget the
        tile is the largest row count whose estimated plane working set
        (:attr:`plane_bytes_per_row` per row) fits ``max_plane_bytes``,
        floored at one row.
        """
        if batch < 1:
            raise InvalidParameterError(f"batch must be >= 1, got {batch}")
        if self._max_plane_bytes is None:
            return batch
        per_row = max(self.plane_bytes_per_row, 1)
        return max(1, min(batch, self._max_plane_bytes // per_row))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step_matrix(self, state: np.ndarray, round_index: int) -> np.ndarray:
        """Execute one iteration on a ``(B, n)`` state matrix.

        Semantics are identical to
        :meth:`~repro.simulation.vectorized.VectorizedEngine.step_matrix`
        (bit-for-bit at float64): the adversary fills every faulty →
        fault-free channel once for the full batch, then the sparse kernel
        streams the rows in plane tiles.
        """
        state = np.asarray(state, dtype=self._dtype)
        if state.ndim != 2 or state.shape[1] != len(self._nodes):
            raise InvalidParameterError(
                f"state matrix must have shape (B, {len(self._nodes)}), "
                f"got {state.shape}"
            )
        batch = state.shape[0]

        # Masks are resolved once per round (before tiling) exactly like the
        # adversary: every tile sees the same round activity, and the
        # adversary's draws stay mask-independent.
        activity = self._round_activity(round_index)

        context = None
        channel_values: np.ndarray | None = None
        if self._faulty_cols.size:
            context = self._context(
                state, round_index, active_edge_mask=self._channel_mask(activity)
            )
            channel_values = np.asarray(
                self._adversary.edge_values(context), dtype=self._dtype
            )
            expected = (batch, len(self._edge_nodes))
            if channel_values.shape != expected:
                raise SimulationError(
                    f"batch adversary {self._adversary.name!r} returned edge "
                    f"values of shape {channel_values.shape}; expected {expected}"
                )

        down_slots: np.ndarray | None = None
        down_recv: np.ndarray | None = None
        if activity is not None:
            up = np.ones(self._plane_indices.shape, dtype=bool)
            if activity.edge_up is not None:
                up &= activity.edge_up[self._plane_edge_pos]
            if activity.awake is not None:
                up &= activity.awake[self._plane_indices]
            if not up.all():
                down_slots = np.flatnonzero(~up)
                down_recv = self._plane_recv_cols[down_slots]

        new_state = np.array(state)
        tile = self.plane_tile_rows(batch)
        for start in range(0, batch, tile):
            stop = min(start + tile, batch)
            self._step_tile(
                state[start:stop],
                None if channel_values is None else channel_values[start:stop],
                new_state[start:stop],
                down_slots=down_slots,
                down_recv=down_recv,
            )

        if activity is not None and activity.awake is not None:
            ff = self._ff_cols
            new_state[:, ff] = np.where(
                activity.awake[ff][None, :], new_state[:, ff], state[:, ff]
            )

        if self._faulty_cols.size:
            assert context is not None
            nominal = np.asarray(
                self._adversary.nominal_values(context), dtype=self._dtype
            )
            expected = (batch, self._faulty_cols.shape[0])
            if nominal.shape != expected:
                raise SimulationError(
                    f"batch adversary {self._adversary.name!r} returned nominal "
                    f"values of shape {nominal.shape}; expected {expected}"
                )
            new_state[:, self._faulty_cols] = nominal
        return new_state

    def _step_tile(
        self,
        state_tile: np.ndarray,
        channel_tile: np.ndarray | None,
        out_tile: np.ndarray,
        down_slots: np.ndarray | None = None,
        down_recv: np.ndarray | None = None,
    ) -> None:
        """Run the sparse kernel on one row tile, writing fault-free columns
        of ``out_tile`` in place (``out_tile`` is a view of the round's new
        state matrix).

        ``down_slots``/``down_recv`` describe this round's masked plane
        slots: each down slot is overwritten with its receiver's own
        previous value (self-substitution), after the adversary scatter so
        down faulty channels are substituted too — the same order the dense
        kernel applies.
        """
        f = self._rule.f
        # reprolint: disable=EXA003 -- float32 clamp gate of the documented dtype= plumbing
        clamp32 = self._dtype == np.dtype(np.float32)
        plane = state_tile[:, self._plane_indices]
        if channel_tile is not None and self._edge_plane_pos.size:
            plane[:, self._edge_plane_pos] = channel_tile
        if down_slots is not None:
            plane[:, down_slots] = state_tile[:, down_recv]
        rows = state_tile.shape[0]
        for bucket in self._buckets:
            d = bucket.degree
            block = plane[:, bucket.plane_start : bucket.plane_stop].reshape(
                rows, bucket.columns.size, d
            )
            block.sort(axis=-1)
            own = state_tile[:, bucket.columns]
            survivors = block[:, :, f : d - f]
            if self._mode == "mean":
                full = np.concatenate([own[:, :, None], survivors], axis=2)
                totals = np.cumsum(full, axis=2)[:, :, -1]
                values = totals / float(full.shape[2])
                if clamp32:
                    # Mathematically a no-op (the mean of points lies in
                    # their hull); at float32 it removes the rounding path
                    # that could push a value one ulp outside the local trim
                    # hull, keeping the paper's validity invariant exact.
                    if survivors.shape[2]:
                        lows = np.minimum(own, survivors[:, :, 0])
                        highs = np.maximum(own, survivors[:, :, -1])
                    else:
                        lows = highs = own
                    np.clip(values, lows, highs, out=values)
            else:  # midpoint
                mins = np.minimum(own, survivors.min(axis=2, initial=np.inf))
                maxs = np.maximum(own, survivors.max(axis=2, initial=-np.inf))
                values = (mins + maxs) / 2.0
            out_tile[:, bucket.columns] = values


def sparse_cross_check_engines(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: BatchStrategy | ByzantineStrategy | None = None,
    config: SimulationConfig | None = None,
    rounds: int | None = None,
    schedule: TopologySchedule | None = None,
) -> EquivalenceReport:
    """Run the dense and sparse engines round-for-round and compare states.

    Mirrors :func:`~repro.simulation.vectorized.cross_check_engines` but
    pins the *sparse* engine (at float64) to the dense engine instead of the
    dense engine to the scalar one; chaining the two checks pins all three.
    Both engines receive deep copies of ``adversary`` so stateful or
    RNG-backed strategies (scalar or batch-native) start from identical
    state and consume their draws independently.
    """
    chosen_config = config if config is not None else SimulationConfig()
    total_rounds = rounds if rounds is not None else chosen_config.max_rounds

    dense = VectorizedEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=copy.deepcopy(adversary) if adversary is not None else None,
        config=chosen_config,
        schedule=copy.deepcopy(schedule) if schedule is not None else None,
    )
    sparse = SparseEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=copy.deepcopy(adversary) if adversary is not None else None,
        config=chosen_config,
        schedule=copy.deepcopy(schedule) if schedule is not None else None,
    )

    dense_state = dense.pack_inputs(inputs)
    sparse_state = sparse.pack_inputs(inputs)

    def stepped_pairs() -> Iterator[tuple[int, float, float]]:
        nonlocal dense_state, sparse_state
        for round_index in range(1, total_rounds + 1):
            dense_state = dense.step_matrix(dense_state, round_index)
            sparse_state = sparse.step_matrix(sparse_state, round_index)
            for column in range(len(dense.nodes)):
                yield (
                    round_index,
                    float(dense_state[0, column]),
                    float(sparse_state[0, column]),
                )

    return _divergence_report(total_rounds, stepped_pairs())


def run_sparse(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: BatchStrategy | ByzantineStrategy | None = None,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    strict_validity: bool = False,
    stop_on_convergence: bool = True,
    dtype: np.dtype | type = np.float64,
    max_plane_bytes: int | None = None,
    cross_check: bool = False,
    cross_check_rounds: int = 25,
    schedule: TopologySchedule | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`SparseEngine`, mirroring
    :func:`~repro.simulation.vectorized.run_vectorized`.

    With ``cross_check=True`` the run is preceded by a
    :func:`sparse_cross_check_engines` pass over ``cross_check_rounds``
    rounds pinning the sparse kernel to the dense engine; any divergence
    raises :class:`~repro.exceptions.SimulationError`.  The cross-check
    always runs at float64 — that is the tier where bit-parity is the
    contract — regardless of the requested ``dtype``.
    """
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
        strict_validity=strict_validity,
        stop_on_convergence=stop_on_convergence,
    )
    if cross_check:
        report = sparse_cross_check_engines(
            graph=graph,
            rule=rule,
            inputs=inputs,
            faulty=faulty,
            adversary=adversary,
            config=config,
            rounds=min(cross_check_rounds, max_rounds),
            schedule=schedule,
        )
        if not report.identical:
            raise SimulationError(
                "sparse engine diverged from the dense engine at round "
                f"{report.first_divergence_round} (max abs difference "
                f"{report.max_abs_difference:.3e})"
            )
        adversary = copy.deepcopy(adversary) if adversary is not None else None
    engine = SparseEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        schedule=schedule,
        dtype=dtype,
        max_plane_bytes=max_plane_bytes,
    )
    return engine.run(inputs)
