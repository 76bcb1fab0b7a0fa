"""Metrics over consensus executions: ``U[t]``, ``µ[t]``, validity, convergence.

The paper's correctness conditions are stated entirely in terms of the largest
and smallest fault-free states:

* Validity (eq. 1): ``U[t] ≤ U[t − 1]`` and ``µ[t] ≥ µ[t − 1]`` for all
  ``t > 0`` (which, with the output constraint, implies the convex-hull form).
* Convergence: ``U[t] − µ[t] → 0``.

These helpers compute the two extremes, track validity across rounds and
decide convergence against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import InvalidParameterError
from repro.types import NodeId

# Validity comparisons allow this much numerical slack: the update rules are
# convex combinations, so any apparent expansion of the fault-free interval
# larger than this indicates a genuine bug rather than floating-point noise.
VALIDITY_TOLERANCE = 1e-9


def fault_free_extremes(
    values: Mapping[NodeId, float], faulty: frozenset[NodeId]
) -> tuple[float, float]:
    """Return ``(µ[t], U[t])`` — the min and max state over fault-free nodes."""
    # reprolint: disable=ORD002 -- min/max are order-free; no need to sort this once-per-round hot path
    fault_free = [value for node, value in values.items() if node not in faulty]
    if not fault_free:
        raise InvalidParameterError(
            "cannot compute fault-free extremes: every node is faulty"
        )
    return min(fault_free), max(fault_free)


def require_finite_inputs(
    values: Mapping[NodeId, float], faulty: frozenset[NodeId]
) -> None:
    """Raise :class:`~repro.exceptions.InvalidParameterError` when a
    fault-free input is NaN or infinite.

    Validity (eq. 1) and the spread mean nothing on such inputs: NaN fails
    every comparison, so a run would report ``validity_ok`` with a ``nan``
    spread.  Faulty nodes' inputs are the adversary's business and are not
    checked.
    """
    bad = [
        node
        for node in sorted(values.keys() - faulty, key=repr)
        if not math.isfinite(values[node])
    ]
    if bad:
        raise InvalidParameterError(
            f"fault-free inputs must be finite; got non-finite inputs for "
            f"nodes {bad!r}"
        )


def spread(values: Mapping[NodeId, float], faulty: frozenset[NodeId]) -> float:
    """Return ``U[t] − µ[t]``."""
    low, high = fault_free_extremes(values, faulty)
    return high - low


def has_converged(
    values: Mapping[NodeId, float],
    faulty: frozenset[NodeId],
    tolerance: float,
) -> bool:
    """Return whether the fault-free spread is at or below ``tolerance``."""
    if tolerance < 0:
        raise InvalidParameterError(f"tolerance must be >= 0, got {tolerance}")
    return spread(values, faulty) <= tolerance


def within_hull(
    values: Iterable[float], hull_min: float, hull_max: float, slack: float = VALIDITY_TOLERANCE
) -> bool:
    """Return whether every value lies inside ``[hull_min, hull_max]`` up to slack."""
    return all(hull_min - slack <= value <= hull_max + slack for value in values)


@dataclass
class ValidityTracker:
    """Tracks the paper's validity condition across an execution.

    Feed it ``(µ[t], U[t])`` once per round (round 0 first); it records
    whether the interval ``[µ[t], U[t]]`` ever expanded.  ``ok`` stays true
    exactly when validity (eq. 1) held at every observed round.

    Each round is compared against the *tightest* interval observed so far,
    not merely the previous round's: per-round comparison would grant fresh
    slack every round, letting the hull drift by ``rounds × slack`` without
    ever flagging a violation.  Against the running tightest interval the
    total tolerated drift is bounded by one ``slack`` for the whole execution.
    """

    slack: float = VALIDITY_TOLERANCE
    ok: bool = True
    rounds_observed: int = 0
    first_violation_round: int | None = None
    _tightest_min: float = field(default=float("-inf"), init=False)
    _tightest_max: float = field(default=float("inf"), init=False)
    _initial: tuple[float, float] | None = field(default=None, init=False)

    def observe(self, minimum: float, maximum: float) -> None:
        """Record the fault-free extremes of the next round."""
        if minimum > maximum:
            raise InvalidParameterError(
                f"minimum ({minimum}) cannot exceed maximum ({maximum})"
            )
        if self.rounds_observed == 0:
            self._initial = (minimum, maximum)
        else:
            expanded_up = maximum > self._tightest_max + self.slack
            expanded_down = minimum < self._tightest_min - self.slack
            if (expanded_up or expanded_down) and self.ok:
                self.ok = False
                self.first_violation_round = self.rounds_observed
        self._tightest_min = max(self._tightest_min, minimum)
        self._tightest_max = min(self._tightest_max, maximum)
        self.rounds_observed += 1

    @property
    def initial_interval(self) -> tuple[float, float] | None:
        """Return ``(µ[0], U[0])``, or ``None`` before any observation."""
        return self._initial


class ParticipationValidityTracker:
    """Participation-aware validity tracking for churn/sleep-wake runs.

    Under a churn schedule the paper's hull condition still has to hold over
    **all** fault-free nodes, awake or asleep: an asleep node keeps its frozen
    state, which remains part of the fault-free hull, so excluding it would
    let the observed interval *appear* tighter than it is and mask a real
    escape.  This tracker therefore layers two checks on one execution:

    * **Hull check** — the extremes over all fault-free values must never
      widen, delegated to an internal :class:`ValidityTracker` (inheriting
      its running-tightest-interval logic; naive per-round slack would let
      the hull drift by ``rounds × slack``, the PR 5 drift bug).
    * **Sleep check** — an asleep node's value must equal its previous value
      **exactly** (no slack: engines freeze by copying, so any difference is
      an engine bug, not floating-point noise).

    Feed :meth:`observe` the fault-free values (fixed order) once per round,
    round 0 first; the ``awake`` mask describes which of those fault-free
    nodes executed the round's update (ignored at round 0, where the values
    are inputs).
    """

    def __init__(self, slack: float = VALIDITY_TOLERANCE) -> None:
        self._hull = ValidityTracker(slack=slack)
        self._previous: tuple[float, ...] | None = None
        self.sleep_ok: bool = True
        self.first_sleep_violation_round: int | None = None

    def observe(
        self, values: Sequence[float], awake: Sequence[bool] | None = None
    ) -> None:
        """Record one round's fault-free values and participation mask."""
        values = tuple(float(value) for value in values)
        if not values:
            raise InvalidParameterError(
                "cannot track validity without fault-free values"
            )
        if self._previous is not None and len(values) != len(self._previous):
            raise InvalidParameterError(
                f"observed {len(values)} fault-free values after "
                f"{len(self._previous)} in the previous round"
            )
        if self._previous is not None and awake is not None:
            if len(awake) != len(values):
                raise InvalidParameterError(
                    f"awake mask has {len(awake)} entries for "
                    f"{len(values)} fault-free values"
                )
            for position, is_awake in enumerate(awake):
                if is_awake:
                    continue
                if values[position] != self._previous[position] and self.sleep_ok:
                    self.sleep_ok = False
                    self.first_sleep_violation_round = self._hull.rounds_observed
        self._hull.observe(min(values), max(values))
        self._previous = values

    @property
    def ok(self) -> bool:
        """Whether both the hull and the sleep condition held every round."""
        return self._hull.ok and self.sleep_ok

    @property
    def hull_ok(self) -> bool:
        """Whether the fault-free hull never widened (eq. 1)."""
        return self._hull.ok

    @property
    def rounds_observed(self) -> int:
        """Number of rounds observed so far (round 0 included)."""
        return self._hull.rounds_observed

    @property
    def first_violation_round(self) -> int | None:
        """Earliest round either check failed, or ``None``."""
        candidates = [
            round_index
            for round_index in (
                self._hull.first_violation_round,
                self.first_sleep_violation_round,
            )
            if round_index is not None
        ]
        return min(candidates) if candidates else None

    @property
    def initial_interval(self) -> tuple[float, float] | None:
        """Return ``(µ[0], U[0])``, or ``None`` before any observation."""
        return self._hull.initial_interval


def empirical_contraction_ratios(spreads: Iterable[float]) -> list[float]:
    """Return per-round contraction ratios ``spread[t] / spread[t − 1]``.

    Rounds where the previous spread is zero are skipped (the system has
    already agreed exactly).  Used by the convergence-rate analysis and the
    E7 benchmark.
    """
    ratios: list[float] = []
    previous: float | None = None
    for value in spreads:
        if value < 0:
            raise InvalidParameterError(f"spreads must be non-negative, got {value}")
        if previous is not None and previous > 0:
            ratios.append(value / previous)
        previous = value
    return ratios
