"""NumPy-vectorized synchronous engine and batched Monte-Carlo runner.

:class:`~repro.simulation.engine.SynchronousEngine` walks Python dicts one
node at a time, which is faithful but slow for the Monte-Carlo sweeps the
experiment drivers run.  This module re-expresses one round of Algorithm 1 as
batched array operations:

* the states of **all** nodes live in a single ``(B, n)`` float matrix
  covering ``B`` independent executions (different inputs and adversary
  draws) of the **same** ``(graph, rule, faulty)`` configuration;
* per-node incoming-edge index arrays are precomputed once from the
  :class:`~repro.graphs.digraph.Digraph`, so a round is a gather →
  adversary-scatter → sort → trim → cumulative-sum pipeline with no
  per-node Python;
* the trimmed-mean reduction preserves the scalar engine's exact
  floating-point summation order (own value first, then survivors in sorted
  order, accumulated left to right via ``cumsum``), so a vectorized execution
  is **bit-for-bit identical** to the scalar one — enforced by
  :func:`cross_check_engines` and the property tests.

The speedup is the point: the transition-matrix view of the update (the
Lemma 5 machinery in :mod:`repro.analysis.markov`) says a round is a gather
plus a row-stochastic reduction, and that is exactly what the arrays do.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.adversary.base import ByzantineStrategy
from repro.adversary.vectorized import (
    BatchAdversaryContext,
    BatchStrategy,
    as_batch_strategy,
)
from repro.algorithms.base import UpdateRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import (
    FaultBudgetExceededError,
    InvalidParameterError,
    SimulationError,
    ValidityViolationError,
)
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import (
    RoundActivity,
    ScheduleLayout,
    TopologySchedule,
    resolve_activity,
)
from repro.simulation.engine import SimulationConfig, SynchronousEngine
from repro.simulation.metrics import VALIDITY_TOLERANCE, ValidityTracker
from repro.simulation.trace import ExecutionTrace
from repro.types import ConsensusOutcome, NodeId, ValueMap


@dataclass(frozen=True)
class _DegreeGroup:
    """Dense per-round work unit: all fault-free nodes of one in-degree.

    ``in_idx`` gathers the ``(B, n_g, degree)`` received block from the state
    matrix; ``edge_index``/``edge_rows``/``edge_slots`` scatter the
    adversary's channel values into it before the sort.
    """

    degree: int
    columns: np.ndarray
    in_idx: np.ndarray
    edge_index: np.ndarray
    edge_rows: np.ndarray
    edge_slots: np.ndarray


@dataclass(frozen=True)
class BatchOutcome:
    """Summary of ``B`` independent consensus executions run as one batch.

    Attributes
    ----------
    nodes:
        Column order of ``final_states`` (nodes sorted by ``repr``).
    faulty:
        The Byzantine node set shared by every execution.
    converged:
        ``(B,)`` bool: whether each execution's fault-free spread reached the
        tolerance within the allotted rounds.
    rounds_executed:
        ``(B,)`` int: iterations executed per row (rows that converge stop
        updating; their count is the round convergence was reached).
    initial_spread / final_spread:
        ``(B,)`` float: ``U[0] − µ[0]`` and the spread at each row's last
        executed round.
    validity_ok:
        ``(B,)`` bool: whether validity (eq. 1) held at every round.
    final_states:
        ``(B, n)`` float: final state of every node (faulty columns hold the
        adversary's nominal values).
    spread_history:
        ``(T + 1, B)`` float array of per-round fault-free spreads when
        history recording was enabled, else ``None``.
    """

    nodes: tuple[NodeId, ...]
    faulty: frozenset[NodeId]
    converged: np.ndarray
    rounds_executed: np.ndarray
    initial_spread: np.ndarray
    final_spread: np.ndarray
    validity_ok: np.ndarray
    final_states: np.ndarray
    spread_history: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        """Number of executions ``B`` in the batch."""
        return int(self.converged.shape[0])

    @property
    def fraction_converged(self) -> float:
        """Fraction of executions that converged."""
        return float(self.converged.mean())

    @property
    def all_valid(self) -> bool:
        """Whether validity held in every execution."""
        return bool(self.validity_ok.all())

    def mean_rounds_to_convergence(self) -> float:
        """Mean rounds over the converged executions (``nan`` if none)."""
        if not self.converged.any():
            return float("nan")
        return float(self.rounds_executed[self.converged].mean())


class VectorizedEngine:
    """Array-based executor of Algorithm 1 over batches of executions.

    Parameters
    ----------
    graph, rule, faulty, config:
        As for :class:`~repro.simulation.engine.SynchronousEngine`.  Only the
        trimmed update rules of the paper
        (:class:`~repro.algorithms.trimmed_mean.TrimmedMeanRule`,
        :class:`~repro.algorithms.trimmed_mean.TrimmedMidpointRule`) have a
        vectorized kernel; other rules must use the scalar engine.
    adversary:
        A :class:`~repro.adversary.vectorized.BatchStrategy`, or a scalar
        :class:`~repro.adversary.base.ByzantineStrategy` (wrapped in a
        :class:`~repro.adversary.vectorized.ScalarStrategyAdapter`
        automatically), or ``None`` for protocol-following faulty nodes.
    """

    #: Update rules the vectorized kernel implements; everything else must
    #: use the scalar engine.  Callers choosing an engine should go through
    #: :meth:`supports_rule` rather than repeating this list.
    SUPPORTED_RULES: tuple[type, ...] = (TrimmedMeanRule, TrimmedMidpointRule)

    #: State dtype used by :meth:`pack_inputs` / :meth:`step_matrix`.  The
    #: dense engine is float64-only (bit-exactness with the scalar engine is
    #: its contract); :class:`~repro.simulation.sparse.SparseEngine` shadows
    #: this with an instance attribute to offer an opt-in float32 tier.
    _dtype: np.dtype = np.dtype(np.float64)

    @classmethod
    def supports_rule(cls, rule: UpdateRule) -> bool:
        """Return whether this engine has a vectorized kernel for ``rule``."""
        return isinstance(rule, cls.SUPPORTED_RULES)

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: BatchStrategy | ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        schedule: TopologySchedule | None = None,
    ) -> None:
        self._graph = graph
        self._rule = rule
        self._faulty = frozenset(faulty)
        self._adversary = as_batch_strategy(adversary)
        self._config = config if config is not None else SimulationConfig()
        self._schedule = schedule

        if isinstance(rule, TrimmedMeanRule):
            self._mode = "mean"
        elif isinstance(rule, TrimmedMidpointRule):
            self._mode = "midpoint"
        else:
            raise InvalidParameterError(
                f"VectorizedEngine has no kernel for rule {rule.name!r}; "
                "supported rules are TrimmedMeanRule and TrimmedMidpointRule "
                "(use SynchronousEngine for other rules)"
            )

        unknown = self._faulty - graph.nodes
        if unknown:
            raise InvalidParameterError(
                f"faulty nodes {sorted(unknown, key=repr)!r} are not in the graph"
            )
        fault_free = graph.nodes - self._faulty
        if not fault_free:
            raise InvalidParameterError("at least one node must be fault-free")
        if len(self._faulty) > rule.f:
            raise FaultBudgetExceededError(len(self._faulty), rule.f)

        self._build_index_arrays()
        if schedule is not None:
            self._build_schedule_arrays()

    def _build_node_columns(self) -> None:
        """Set up the canonical node → column maps shared by every engine.

        Nodes are sorted by ``repr`` (the scalar engine's deterministic
        tie-break) and split into faulty and fault-free column index arrays.
        Both the dense and the sparse engine derive their gather structures
        and the canonical channel order from this layout.
        """
        self._nodes: tuple[NodeId, ...] = tuple(
            sorted(self._graph.nodes, key=repr)
        )
        self._column = {node: index for index, node in enumerate(self._nodes)}
        is_faulty = np.zeros(len(self._nodes), dtype=bool)
        is_faulty[
            np.fromiter(
                (self._column[node] for node in self._faulty),
                dtype=np.int64,
                count=len(self._faulty),
            )
        ] = True
        self._faulty_cols = np.flatnonzero(is_faulty)
        self._ff_cols = np.flatnonzero(~is_faulty)

    def _build_index_arrays(self) -> None:
        """Precompute the gather/scatter index arrays for one round.

        Fault-free nodes are grouped by exact in-degree so every group works
        on a dense ``(B, n_g, d)`` block with no padding: the trim window is
        a contiguous slice ``[f : d − f]`` and the equal-weight average is a
        single ``cumsum`` whose last column is the left-to-right total —
        reproducing the scalar engine's floating-point summation order
        bit for bit.  Within each node's row, senders are ordered by
        ``repr`` (the scalar engine's deterministic tie-break).  The rule's
        in-degree precondition is checked first.
        """
        graph = self._graph
        self._rule.validate_graph(
            graph, nodes=sorted(graph.nodes - self._faulty, key=repr)
        )
        self._build_node_columns()

        # Canonical channel order (receiver-major, senders by repr within a
        # receiver) shared with BatchAdversaryContext.edge_nodes.
        edge_nodes: list[tuple[NodeId, NodeId]] = []
        by_degree: dict[int, dict[str, list]] = {}
        for column in self._ff_cols:
            receiver = self._nodes[column]
            senders = sorted(graph.in_neighbors(receiver), key=repr)
            group = by_degree.setdefault(
                len(senders),
                {"cols": [], "in_idx": [], "edge_index": [], "rows": [], "slots": []},
            )
            row = len(group["cols"])
            group["cols"].append(column)
            group["in_idx"].append([self._column[s] for s in senders])
            for slot, sender in enumerate(senders):
                if sender in self._faulty:
                    group["edge_index"].append(len(edge_nodes))
                    group["rows"].append(row)
                    group["slots"].append(slot)
                    edge_nodes.append((sender, receiver))

        self._groups = []
        for degree in sorted(by_degree):
            group = by_degree[degree]
            self._groups.append(
                _DegreeGroup(
                    degree=degree,
                    columns=np.array(group["cols"], dtype=int),
                    in_idx=np.array(group["in_idx"], dtype=int).reshape(
                        len(group["cols"]), degree
                    ),
                    edge_index=np.array(group["edge_index"], dtype=int),
                    edge_rows=np.array(group["rows"], dtype=int),
                    edge_slots=np.array(group["slots"], dtype=int),
                )
            )

        self._edge_nodes = tuple(edge_nodes)
        self._edge_src_cols = np.array(
            [self._column[s] for s, _t in edge_nodes], dtype=int
        )
        self._edge_dst_cols = np.array(
            [self._column[t] for _s, t in edge_nodes], dtype=int
        )

    def _build_schedule_arrays(self) -> None:
        """Precompute translations from schedule masks to kernel indices.

        Schedule masks are expressed over the canonical sender-major edge
        order (:class:`~repro.simulation.dynamic.ScheduleLayout`); the dense
        kernel works in degree groups and in the receiver-major faulty
        channel order.  These index arrays translate a ``(E,)`` edge mask
        into per-group ``(n_g, d)`` slot masks and a ``(E_f,)`` channel mask
        once, so per-round masking stays pure fancy indexing.
        """
        layout = ScheduleLayout.for_graph(self._graph)
        self._sched_layout = layout
        self._chan_edge_pos = np.array(
            [layout.edge_index[edge] for edge in self._edge_nodes], dtype=int
        )
        group_edge_pos: list[np.ndarray] = []
        for group in self._groups:
            rows = []
            for column in group.columns:
                receiver = self._nodes[int(column)]
                senders = sorted(self._graph.in_neighbors(receiver), key=repr)
                rows.append(
                    [layout.edge_index[(sender, receiver)] for sender in senders]
                )
            group_edge_pos.append(
                np.array(rows, dtype=int).reshape(len(group.columns), group.degree)
            )
        self._group_edge_pos = group_edge_pos

    def _round_activity(self, round_index: int) -> RoundActivity | None:
        """Resolve the schedule's masks for one round (``None`` if static)."""
        if self._schedule is None:
            return None
        activity = resolve_activity(
            self._schedule, round_index, self._sched_layout
        )
        return None if activity.is_static else activity

    def _channel_mask(self, activity: RoundActivity | None) -> np.ndarray | None:
        """Return the ``(E_f,)`` up-mask over faulty channels, or ``None``."""
        if activity is None:
            return None
        mask = np.ones(len(self._edge_nodes), dtype=bool)
        if activity.edge_up is not None:
            mask &= activity.edge_up[self._chan_edge_pos]
        if activity.awake is not None:
            mask &= activity.awake[self._edge_src_cols]
        return mask

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        """The communication graph."""
        return self._graph

    @property
    def rule(self) -> UpdateRule:
        """The update rule driving fault-free nodes."""
        return self._rule

    @property
    def faulty(self) -> frozenset[NodeId]:
        """The Byzantine node set ``F``."""
        return self._faulty

    @property
    def fault_free(self) -> frozenset[NodeId]:
        """The fault-free node set ``V − F``."""
        return self._graph.nodes - self._faulty

    @property
    def config(self) -> SimulationConfig:
        """The engine configuration."""
        return self._config

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Column order of state matrices (nodes sorted by ``repr``)."""
        return self._nodes

    @property
    def schedule(self) -> TopologySchedule | None:
        """The topology schedule, or ``None`` for a static run."""
        return self._schedule

    # ------------------------------------------------------------------
    # Input packing
    # ------------------------------------------------------------------
    def pack_inputs(
        self, inputs: np.ndarray | ValueMap | Sequence[ValueMap]
    ) -> np.ndarray:
        """Return a ``(B, n)`` float matrix in :attr:`nodes` column order.

        Accepts a single value map (``B = 1``), a sequence of value maps
        (one per row), or an already-packed array (validated and copied).
        Non-finite fault-free inputs are rejected, as in the scalar engine.
        """
        if isinstance(inputs, np.ndarray):
            matrix = np.array(inputs, dtype=self._dtype)
            if matrix.ndim == 1:
                matrix = matrix[None, :]
            if matrix.ndim != 2 or matrix.shape[1] != len(self._nodes):
                raise InvalidParameterError(
                    f"input matrix must have shape (B, {len(self._nodes)}), "
                    f"got {matrix.shape}"
                )
            return self._require_finite(matrix)
        if isinstance(inputs, Mapping):
            inputs = [inputs]
        rows = []
        for value_map in inputs:
            missing = self._graph.nodes - value_map.keys()
            if missing:
                raise InvalidParameterError(
                    f"inputs missing for nodes {sorted(missing, key=repr)!r}"
                )
            rows.append([float(value_map[node]) for node in self._nodes])
        if not rows:
            raise InvalidParameterError("at least one input assignment is required")
        return self._require_finite(np.array(rows, dtype=self._dtype))

    def _require_finite(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``matrix``, or raise if a fault-free column holds a NaN or
        infinite input in any row."""
        if np.isfinite(matrix).all():  # the common case, without a gather
            return matrix
        finite = np.isfinite(matrix[:, self._ff_cols]).all(axis=0)
        if not finite.all():
            bad = [self._nodes[int(column)] for column in self._ff_cols[~finite]]
            raise InvalidParameterError(
                f"fault-free inputs must be finite; got non-finite inputs for "
                f"nodes {bad!r}"
            )
        return matrix

    def _context(
        self,
        state: np.ndarray,
        round_index: int,
        active_edge_mask: np.ndarray | None = None,
    ) -> BatchAdversaryContext:
        return BatchAdversaryContext(
            graph=self._graph,
            round_index=round_index,
            state=state,
            nodes=self._nodes,
            faulty=self._faulty,
            f=self._rule.f,
            faulty_columns=self._faulty_cols,
            fault_free_columns=self._ff_cols,
            edge_nodes=self._edge_nodes,
            edge_source_columns=self._edge_src_cols,
            edge_target_columns=self._edge_dst_cols,
            active_edge_mask=active_edge_mask,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step_matrix(self, state: np.ndarray, round_index: int) -> np.ndarray:
        """Execute one iteration on a ``(B, n)`` state matrix.

        Returns the new ``(B, n)`` matrix; faulty columns hold the
        adversary's nominal values, exactly like the scalar engine's
        :meth:`~repro.simulation.engine.SynchronousEngine.step`.
        """
        state = np.asarray(state, dtype=self._dtype)
        if state.ndim != 2 or state.shape[1] != len(self._nodes):
            raise InvalidParameterError(
                f"state matrix must have shape (B, {len(self._nodes)}), "
                f"got {state.shape}"
            )
        batch = state.shape[0]
        f = self._rule.f

        # Masking is applied downstream of the adversary: the strategy is
        # interrogated for every channel regardless of the round's masks (its
        # RNG draws stay mask-independent), then down channels are
        # overwritten with the receiver's own value like any other edge.
        activity = self._round_activity(round_index)

        context = None
        channel_values = np.empty((batch, 0), dtype=float)
        if self._faulty_cols.size:
            context = self._context(
                state, round_index, active_edge_mask=self._channel_mask(activity)
            )
            channel_values = np.asarray(
                self._adversary.edge_values(context), dtype=float
            )
            expected = (batch, len(self._edge_nodes))
            if channel_values.shape != expected:
                raise SimulationError(
                    f"batch adversary {self._adversary.name!r} returned edge "
                    f"values of shape {channel_values.shape}; expected {expected}"
                )

        new_state = np.array(state)
        for position, group in enumerate(self._groups):
            received = state[:, group.in_idx]
            if group.edge_index.size:
                received[:, group.edge_rows, group.edge_slots] = channel_values[
                    :, group.edge_index
                ]
            if activity is not None:
                up = np.ones(group.in_idx.shape, dtype=bool)
                if activity.edge_up is not None:
                    up &= activity.edge_up[self._group_edge_pos[position]]
                if activity.awake is not None:
                    up &= activity.awake[group.in_idx]
                if not up.all():
                    # Self-substitution: a dead slot carries the receiver's
                    # own previous value, keeping the trim window width d.
                    rows_i, slots_i = np.nonzero(~up)
                    received[:, rows_i, slots_i] = state[
                        :, group.columns[rows_i]
                    ]
            received.sort(axis=-1)
            survivors = received[:, :, f : group.degree - f]
            own = state[:, group.columns]
            if self._mode == "mean":
                full = np.concatenate([own[:, :, None], survivors], axis=2)
                totals = np.cumsum(full, axis=2)[:, :, -1]
                new_state[:, group.columns] = totals / float(full.shape[2])
            else:  # midpoint
                mins = np.minimum(own, survivors.min(axis=2, initial=np.inf))
                maxs = np.maximum(own, survivors.max(axis=2, initial=-np.inf))
                new_state[:, group.columns] = (mins + maxs) / 2.0

        if activity is not None and activity.awake is not None:
            # Asleep receivers skip their update (state frozen); their state
            # stays visible on out-edges next round.
            ff = self._ff_cols
            new_state[:, ff] = np.where(
                activity.awake[ff][None, :], new_state[:, ff], state[:, ff]
            )

        if self._faulty_cols.size:
            assert context is not None
            nominal = np.asarray(
                self._adversary.nominal_values(context), dtype=float
            )
            expected = (batch, self._faulty_cols.shape[0])
            if nominal.shape != expected:
                raise SimulationError(
                    f"batch adversary {self._adversary.name!r} returned nominal "
                    f"values of shape {nominal.shape}; expected {expected}"
                )
            new_state[:, self._faulty_cols] = nominal
        return new_state

    def run(self, inputs: ValueMap) -> ConsensusOutcome:
        """Run one execution, mirroring the scalar engine's :meth:`run`.

        Produces a :class:`~repro.types.ConsensusOutcome` whose every field —
        including the per-round history — is identical to what
        :class:`~repro.simulation.engine.SynchronousEngine` computes for the
        same configuration (the adversary permitting; see
        :func:`cross_check_engines`).
        """
        config = self._config
        state = self.pack_inputs(inputs)
        if state.shape[0] != 1:
            raise InvalidParameterError(
                f"run() executes a single run but received {state.shape[0]} "
                "input rows; use run_batch() for batched execution"
            )

        trace = ExecutionTrace(faulty=self._faulty)
        validity = ValidityTracker()
        low, high = self._extremes(state)
        validity.observe(low, high)
        initial_spread = high - low
        if config.record_history:
            trace.record_round(0, self._values_dict(state))

        rounds_executed = 0
        converged = initial_spread <= config.tolerance and config.stop_on_convergence
        current_spread = initial_spread
        for round_index in range(1, config.max_rounds + 1):
            if converged:
                break
            state = self.step_matrix(state, round_index)
            rounds_executed = round_index
            low, high = self._extremes(state)
            validity.observe(low, high)
            if config.strict_validity and not validity.ok:
                raise ValidityViolationError(
                    f"validity violated at round {round_index}: the fault-free "
                    f"interval expanded to [{low}, {high}]"
                )
            if config.record_history:
                trace.record_round(round_index, self._values_dict(state))
            current_spread = high - low
            if config.stop_on_convergence and current_spread <= config.tolerance:
                converged = True

        if not config.stop_on_convergence:
            converged = current_spread <= config.tolerance
        final_values = {
            node: float(state[0, self._column[node]])
            for node in self._nodes
            if node not in self._faulty
        }
        return ConsensusOutcome(
            converged=converged,
            rounds_executed=rounds_executed,
            final_spread=current_spread,
            initial_spread=initial_spread,
            validity_ok=validity.ok,
            final_values=final_values,
            history=trace.as_records() if config.record_history else tuple(),
        )

    def run_batch(
        self, inputs: np.ndarray | Sequence[ValueMap]
    ) -> BatchOutcome:
        """Run ``B`` independent executions as one batched pass.

        Rows that reach the tolerance are frozen (their state stops
        updating), so each row's final state and round count match what an
        independent run of that row would produce — provided the adversary's
        per-row behaviour does not depend on the other rows.  That holds for
        every native :class:`~repro.adversary.vectorized.BatchStrategy`
        shipped here and for :class:`ScalarStrategyAdapter` in ``factory``
        mode; shared-instance adapters over strategies with mutable state
        (``batch_safe = False``) are rejected at ``B > 1``.
        """
        config = self._config
        state = self.pack_inputs(inputs)
        batch = state.shape[0]

        ff = self._ff_cols
        mins = state[:, ff].min(axis=1)
        maxs = state[:, ff].max(axis=1)
        initial_spread = maxs - mins
        spread = initial_spread.copy()
        # Running tightest interval per row, mirroring ValidityTracker: a
        # per-round comparison would grant fresh slack every round and let
        # the hull drift by rounds x slack undetected.
        tight_min, tight_max = mins.copy(), maxs.copy()
        validity_ok = np.ones(batch, dtype=bool)
        rounds_executed = np.zeros(batch, dtype=int)
        converged = (
            initial_spread <= config.tolerance
            if config.stop_on_convergence
            else np.zeros(batch, dtype=bool)
        )
        active = ~converged
        history: list[np.ndarray] | None = (
            [spread.copy()] if config.record_history else None
        )

        for round_index in range(1, config.max_rounds + 1):
            if config.stop_on_convergence and not active.any():
                break
            new_state = self.step_matrix(state, round_index)
            state = np.where(active[:, None], new_state, state)
            rounds_executed = np.where(active, round_index, rounds_executed)
            mins = state[:, ff].min(axis=1)
            maxs = state[:, ff].max(axis=1)
            expanded = active & (
                (maxs > tight_max + VALIDITY_TOLERANCE)
                | (mins < tight_min - VALIDITY_TOLERANCE)
            )
            if config.strict_validity and expanded.any():
                row = int(np.flatnonzero(expanded)[0])
                raise ValidityViolationError(
                    f"validity violated at round {round_index} in batch row "
                    f"{row}: the fault-free interval expanded to "
                    f"[{mins[row]}, {maxs[row]}]"
                )
            validity_ok &= ~expanded
            tight_min = np.maximum(tight_min, mins)
            tight_max = np.minimum(tight_max, maxs)
            spread = maxs - mins
            if history is not None:
                history.append(spread.copy())
            if config.stop_on_convergence:
                newly = active & (spread <= config.tolerance)
                converged = converged | newly
                active = active & ~newly

        if not config.stop_on_convergence:
            converged = spread <= config.tolerance
        return BatchOutcome(
            nodes=self._nodes,
            faulty=self._faulty,
            converged=converged,
            rounds_executed=rounds_executed,
            initial_spread=initial_spread,
            final_spread=spread,
            validity_ok=validity_ok,
            final_states=state,
            spread_history=np.stack(history) if history is not None else None,
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _extremes(self, state: np.ndarray) -> tuple[float, float]:
        ff = state[0, self._ff_cols]
        return float(ff.min()), float(ff.max())

    def _values_dict(self, state: np.ndarray) -> dict[NodeId, float]:
        return {
            node: float(state[0, column])
            for column, node in enumerate(self._nodes)
        }


class BatchRunner:
    """Monte-Carlo front end: run many executions of one configuration.

    Thin convenience wrapper over :meth:`VectorizedEngine.run_batch` that
    owns the engine and adds input-matrix generation, so experiment drivers
    can say "run B random executions of this scenario" in one call.
    """

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: BatchStrategy | ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        schedule: TopologySchedule | None = None,
    ) -> None:
        self._engine = VectorizedEngine(
            graph=graph,
            rule=rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            schedule=schedule,
        )

    @property
    def engine(self) -> VectorizedEngine:
        """The underlying vectorized engine."""
        return self._engine

    def run(self, inputs: np.ndarray | Sequence[ValueMap]) -> BatchOutcome:
        """Run the batch described by ``inputs`` (see :meth:`VectorizedEngine.pack_inputs`)."""
        return self._engine.run_batch(inputs)

    def run_uniform(
        self,
        batch: int,
        low: float = 0.0,
        high: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> BatchOutcome:
        """Run ``batch`` executions with i.i.d. uniform inputs in ``[low, high]``."""
        matrix = random_input_matrix(
            self._engine.nodes, batch, low=low, high=high, rng=rng
        )
        return self._engine.run_batch(matrix)


def random_input_matrix(
    nodes: Iterable[NodeId],
    batch: int,
    low: float = 0.0,
    high: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Return a ``(batch, n)`` uniform input matrix.

    Columns follow the vectorized engine's convention: nodes sorted by
    ``repr``.  A fixed integer seed makes the matrix (and therefore a whole
    deterministic batch run) reproducible.
    """
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    if high < low:
        raise InvalidParameterError(f"high ({high}) must be >= low ({low})")
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    ordered = sorted(nodes, key=repr)
    return generator.uniform(low, high, size=(batch, len(ordered)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a round-for-round scalar-vs-vectorized cross-check.

    ``identical`` is ``True`` when every node's state matched exactly
    (``==`` on floats, so ``0.0`` and ``-0.0`` compare equal) at every
    checked round.  On divergence, ``first_divergence_round`` and
    ``max_abs_difference`` locate and size the disagreement.
    """

    rounds_checked: int
    identical: bool
    max_abs_difference: float
    first_divergence_round: int | None = None


def _divergence_report(
    rounds_checked: int,
    value_pairs: Iterable[tuple[int, float, float]],
    length_mismatch: bool = False,
) -> EquivalenceReport:
    """Fold ``(round_index, reference, candidate)`` triples into a report.

    Shared by the synchronous and asynchronous cross-checkers so the exact
    comparison semantics (float ``==``, NaN treated as infinite divergence,
    first-divergence bookkeeping) live in one place.  ``length_mismatch``
    records that one engine produced more rounds than the other; it forces
    ``identical=False`` but never hides an earlier value divergence — the
    earliest diverging round and the real magnitude win when both occur.
    """
    identical = True
    max_diff = 0.0
    first_divergence: int | None = None
    for round_index, reference, candidate in value_pairs:
        if reference == candidate:
            continue
        identical = False
        if first_divergence is None:
            first_divergence = round_index
        difference = abs(reference - candidate)
        if np.isnan(difference):  # pragma: no cover - defensive
            difference = float("inf")
        max_diff = max(max_diff, difference)
    if length_mismatch:
        identical = False
        if first_divergence is None:
            first_divergence = rounds_checked
            max_diff = float("inf")
    return EquivalenceReport(
        rounds_checked=rounds_checked,
        identical=identical,
        max_abs_difference=max_diff,
        first_divergence_round=first_divergence,
    )


def cross_check_engines(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: ByzantineStrategy | None = None,
    config: SimulationConfig | None = None,
    rounds: int | None = None,
    schedule: TopologySchedule | None = None,
) -> EquivalenceReport:
    """Run both engines round-for-round and compare every node's state.

    This is the equivalence mode: each engine gets a deep copy of the scalar
    ``adversary`` (so stateful or RNG-backed strategies start from identical
    state and consume draws independently), then the scalar
    :meth:`~repro.simulation.engine.SynchronousEngine.step` and the
    vectorized :meth:`VectorizedEngine.step_matrix` execute in lockstep from
    the same inputs.  A ``schedule`` is applied to both engines (schedules
    are pure functions of the round, so deep copies see identical masks).
    Intended for small instances — it pays the scalar engine's cost.
    """
    if adversary is not None and not isinstance(adversary, ByzantineStrategy):
        raise InvalidParameterError(
            "cross_check_engines needs a scalar ByzantineStrategy (or None); "
            "a BatchStrategy has no scalar counterpart to compare against"
        )
    chosen_config = config if config is not None else SimulationConfig()
    total_rounds = rounds if rounds is not None else chosen_config.max_rounds

    scalar_engine = SynchronousEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=copy.deepcopy(adversary) if adversary is not None else None,
        config=chosen_config,
        schedule=copy.deepcopy(schedule) if schedule is not None else None,
    )
    vector_engine = VectorizedEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=copy.deepcopy(adversary) if adversary is not None else None,
        config=chosen_config,
        schedule=copy.deepcopy(schedule) if schedule is not None else None,
    )

    missing = graph.nodes - inputs.keys()
    if missing:
        raise InvalidParameterError(
            f"inputs missing for nodes {sorted(missing, key=repr)!r}"
        )
    scalar_state = {node: float(inputs[node]) for node in graph.nodes}
    matrix = vector_engine.pack_inputs(scalar_state)

    def stepped_pairs() -> Iterator[tuple[int, float, float]]:
        nonlocal scalar_state, matrix
        for round_index in range(1, total_rounds + 1):
            scalar_state = scalar_engine.step(scalar_state, round_index)
            matrix = vector_engine.step_matrix(matrix, round_index)
            for column, node in enumerate(vector_engine.nodes):
                yield round_index, scalar_state[node], float(matrix[0, column])

    return _divergence_report(total_rounds, stepped_pairs())


def run_vectorized(
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
    cross_check: bool = False,
    cross_check_rounds: int = 25,
    schedule: TopologySchedule | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`VectorizedEngine`, mirroring
    :func:`~repro.simulation.engine.run_synchronous`.

    With ``cross_check=True`` (and a scalar or absent adversary) the run is
    preceded by a :func:`cross_check_engines` pass over
    ``cross_check_rounds`` rounds; any divergence raises
    :class:`~repro.exceptions.SimulationError`.
    """
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
        strict_validity=strict_validity,
        stop_on_convergence=stop_on_convergence,
    )
    if cross_check:
        if adversary is not None and not isinstance(adversary, ByzantineStrategy):
            raise InvalidParameterError(
                "cross_check=True requires a scalar ByzantineStrategy adversary"
            )
        report = cross_check_engines(
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
                "vectorized engine diverged from the scalar engine at round "
                f"{report.first_divergence_round} (max abs difference "
                f"{report.max_abs_difference:.3e})"
            )
        adversary = copy.deepcopy(adversary) if adversary is not None else None
    engine = VectorizedEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        schedule=schedule,
    )
    return engine.run(inputs)
