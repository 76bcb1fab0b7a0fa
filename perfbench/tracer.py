"""In-memory spans around calls into the ``repro`` layers.

A :class:`Tracer` keeps every span in a list; spans are written only when
the benchmark ends (:meth:`Tracer.write`).  Spans are opened either explicitly
(``with tracer.span(layer, name)``) around public calls the benchmark makes
itself, or by :func:`instrument`, which wraps public methods (of the
vectorized engines and batch adversaries, see :func:`engine_targets`) for
the duration of a ``with`` block and restores the originals afterwards.
Nothing under ``src/`` changes.

A span's *self time* is its duration minus the time its direct children
cover; :func:`layer_self_seconds` sums that per layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Counter hook: ``(self_or_first_arg, args, result) -> {count_name: value}``.
Counter = Callable[[Any, tuple, Any], dict]


class Span:
    """One timed call: layer, name, parent, interval and exact counts."""

    __slots__ = ("id", "parent", "layer", "name", "start", "end", "child_s", "counts")

    def __init__(self, span_id: int, parent: "Span | None", layer: str, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.counts: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        """Wall-clock duration of the span."""
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.seconds - self.child_s

    def as_json(self) -> dict[str, object]:
        """Serialisable record (parent by id)."""
        return {
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_seconds,
            "counts": self.counts,
        }


class Tracer:
    """Stack of open spans plus the list of every span recorded so far.

    While ``enabled`` is false, :meth:`span` and the functions returned by
    :meth:`wrap` record nothing, so the untraced passes that the
    end-to-end metrics come from pay one attribute test per wrapped call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, layer: str, name: str) -> Span:
        """Open a span as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, layer, name)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (the innermost open one) and charge its parent."""
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Context manager form of :meth:`begin` / :meth:`end`."""
        if not self.enabled:
            yield
            return
        opened = self.begin(layer, name)
        try:
            yield
        finally:
            self.end(opened)

    def wrap(
        self, layer: str, name: str, function: Callable, counter: Counter | None = None
    ) -> Callable:
        """Return ``function`` wrapped in a span named ``layer/name``.

        A call made while a span of the same layer and name is already the
        innermost open span (a subclass override calling ``super()``, or a
        wrapper strategy delegating to its inner strategy) is not recorded
        again, so call counts stay exact.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return function(*args, **kwargs)
            innermost = self._open[-1] if self._open else None
            if innermost is not None and innermost.layer == layer and innermost.name == name:
                return function(*args, **kwargs)
            opened = self.begin(layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(opened)
            if counter is not None:
                opened.counts = counter(args[0] if args else None, args, result)
            return result

        return traced

    def write(self, path: Path, spans: list[Span]) -> None:
        """Write ``spans`` as JSON lines (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_json()) + "\n")


def _step_counts(engine: Any, args: tuple, result: Any) -> dict:
    """Exact counts of one synchronous or asynchronous round."""
    batch, n = result.shape
    channels = engine.graph.number_of_edges
    return {
        "calls": 1,
        "node_rounds": batch * n,
        "plane_bytes": batch * channels * result.itemsize,
    }


def _channel_counts(strategy: Any, args: tuple, result: Any) -> dict:
    """Channels one ``edge_values`` call filled, over the whole batch."""
    return {"channels": int(getattr(result, "size", 0))}


#: One wrapping target: ``(owner, attribute, layer, span name, counter)``.
Target = tuple[Any, str, str, str, "Counter | None"]


def engine_targets() -> list[Target]:
    """The public engine and batch-adversary methods a traced pass wraps.

    Covered: engine construction (``__init__``), rounds (``step_matrix``
    and the asynchronous tier's ``step_async``, both recorded as
    ``simulation/step``), whole batched runs (``run_batch``) and the
    adversary's channel fill (``edge_values`` and ``nominal_values`` of
    every :class:`~repro.adversary.vectorized.BatchStrategy` subclass that
    defines them).  Wrapping the classes, not one instance, reaches engines
    that experiment drivers construct internally.
    """
    from repro.adversary import vectorized as batch_adversary
    from repro.simulation.sparse import SparseEngine
    from repro.simulation.vectorized import VectorizedEngine
    from repro.simulation.vectorized_async import VectorizedAsyncEngine

    targets: list[Target] = []
    for engine in (VectorizedEngine, SparseEngine, VectorizedAsyncEngine):
        targets += [
            (engine, "__init__", "simulation", "construct", None),
            (engine, "run_batch", "simulation", "run_batch", None),
        ]
    targets += [
        (VectorizedEngine, "step_matrix", "simulation", "step", _step_counts),
        (SparseEngine, "step_matrix", "simulation", "step", _step_counts),
        (VectorizedAsyncEngine, "step_async", "simulation", "step", _step_counts),
    ]
    for _, strategy in inspect.getmembers(batch_adversary, inspect.isclass):
        if issubclass(strategy, batch_adversary.BatchStrategy):
            targets += [
                (strategy, "edge_values", "adversary", "edge_values", _channel_counts),
                (strategy, "nominal_values", "adversary", "nominal_values", None),
            ]
    return targets


@contextmanager
def instrument(tracer: Tracer, targets: list[Target]) -> Iterator[None]:
    """Wrap each target defined directly on its owner; restore on exit.

    Owners are classes or modules.  Abstract methods are left alone (the
    concrete overrides are wrapped instead).
    """
    saved: list[tuple[Any, str, Callable]] = []
    try:
        for owner, attribute, layer, name, counter in targets:
            original = vars(owner).get(attribute)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            setattr(owner, attribute, tracer.wrap(layer, name, original, counter))
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Sum of span self time per layer."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.self_seconds
    return totals


def named_totals(spans: list[Span], layer: str, name: str) -> tuple[float, dict[str, float]]:
    """Total seconds and summed counts of the spans called ``layer/name``."""
    seconds = 0.0
    counts: dict[str, float] = {}
    for span in spans:
        if span.layer == layer and span.name == name:
            seconds += span.seconds
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
    return seconds, counts
