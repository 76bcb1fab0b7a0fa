"""One measured process of a benchmark run (started by ``run.py``).

The process builds one workload (its set-up time counts from ``--t0``, a
``time.monotonic()`` reading the parent took just before starting this
process, so interpreter start-up and imports are included), runs timed
passes while the next one can end before ``--deadline`` (at least one),
gates every pass's outputs outside the timed region, and prints one JSON
document on its last line of standard output.

With ``--trace 1`` the passes alternate: untraced, then traced with the
workload's methods wrapped in spans.  Per-layer metrics come from the
traced passes; the tracing overhead is the traced pass time over the
untraced one.  Spans are kept in memory; those of the set-up and the first
traced pass are written to ``.perfbench/trace/`` when the process ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Span, Tracer, instrument, layer_self_seconds, named_totals
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Verdict-stack layer names (``LayerTiming.layer``) -> metric names.
VERDICT_LAYERS = {
    "screens": "conditions.screens_s",
    "exhaustive": "conditions.exhaustive_s",
    "witness-search": "conditions.witness_search_s",
    "exact": "conditions.exact_s",
}


def layer_metrics(
    setup_spans: list[Span],
    pass_spans: list[Span],
    pass_wall: float,
    sweep_counts: dict[str, int],
    replay_spans: list[Span],
) -> dict[str, float]:
    """Every per-layer metric of one traced pass (zero where a layer idles)."""
    metrics: dict[str, float] = {}
    build_s, build = named_totals(setup_spans, "graphs", "build")
    metrics["graphs.build_s"] = build_s
    metrics["graphs.edges"] = build.get("edges", 0)

    construct_s, _ = named_totals(setup_spans + pass_spans, "simulation", "construct")
    step_s, step = named_totals(pass_spans, "simulation", "step")
    calls = step.get("calls", 0)
    metrics["simulation.construct_s"] = construct_s
    metrics["simulation.step_s"] = step_s
    metrics["simulation.step_calls"] = calls
    metrics["simulation.node_rounds"] = step.get("node_rounds", 0)
    metrics["simulation.node_rounds_per_s"] = step.get("node_rounds", 0) / step_s if step_s else 0.0
    metrics["simulation.plane_bytes"] = step.get("plane_bytes", 0)
    metrics["simulation.plane_mb_per_round"] = step.get("plane_bytes", 0) / calls / 1e6 if calls else 0.0
    metrics["simulation.bookkeeping_s"] = sum(
        span.self_seconds for span in pass_spans if span.name == "run_batch"
    )

    fill_s, fill = named_totals(pass_spans, "adversary", "edge_values")
    nominal_s, _ = named_totals(pass_spans, "adversary", "nominal_values")
    metrics["adversary.fill_s"] = fill_s + nominal_s
    metrics["adversary.channels"] = fill.get("channels", 0)

    verdicts = [span for span in pass_spans if span.name == "verdict"]
    for span in verdicts:
        # Cross-check: the stack's own LayerTimings lie inside our span.
        if span.counts["layers_s"] > span.seconds + 1e-6:
            raise RuntimeError(
                f"verdict LayerTimings sum to {span.counts['layers_s']:.6f} s, "
                f"more than the enclosing span's {span.seconds:.6f} s"
            )
    for layer, name in VERDICT_LAYERS.items():
        metrics[name] = sum(span.counts.get(layer, 0.0) for span in verdicts)
    metrics["conditions.certify_s"], _ = named_totals(pass_spans, "conditions", "certify")
    metrics["conditions.decided_ratio"] = (
        sum(span.counts["decided"] for span in verdicts) / len(verdicts) if verdicts else 0.0
    )
    metrics["conditions.exact_fault_sets"] = sum(
        span.counts["fault_sets"]
        for span in pass_spans
        if span.name == "exact_search" and span.parent is not None and span.parent.name == "verdict"
    )

    metrics["sweeps.registry_load_s"], _ = named_totals(setup_spans, "sweeps", "registry_load")
    sweep_s, _ = named_totals(pass_spans, "sweeps", "run_sweep")
    execute_s, _ = named_totals(replay_spans, "sweeps", "execute_shard")
    store_s, _ = named_totals(replay_spans, "sweeps", "store_write")
    metrics["sweeps.execute_shard_s"] = execute_s
    metrics["sweeps.store_write_s"] = store_s
    metrics["sweeps.orchestration_s"] = sweep_s - execute_s - store_s if sweep_s else 0.0
    metrics["sweeps.bytes_written"] = sweep_counts.get("bytes", 0)
    metrics["sweeps.shards"] = sweep_counts.get("shards", 0)
    metrics["sweeps.rows"] = sweep_counts.get("rows", 0)

    self_s = layer_self_seconds(pass_spans)
    for layer in ("adversary", "simulation", "conditions", "sweeps"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    covered = sum(span.seconds for span in pass_spans if span.parent is None)
    metrics["trace.uncovered_s"] = pass_wall - covered
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(enabled=bool(args.trace))
    try:
        workload = WORKLOADS[args.workload](args.seed, tracer, work_dir)
        setup_s = time.monotonic() - args.t0
        setup_spans = list(tracer.spans)

        walls: list[float] = []
        traced_walls: list[float] = []
        layers: list[dict[str, float]] = []
        checks = []
        while True:
            traced = bool(args.trace) and len(walls) > len(traced_walls)
            tracer.enabled = traced
            first = len(tracer.spans)
            with instrument(tracer, workload.trace_targets()) if traced else nullcontext():
                start = time.perf_counter()
                outputs = workload.run_pass()
                wall = time.perf_counter() - start
            if traced:
                traced_walls.append(wall)
                pass_spans = tracer.spans[first:]
                replay_first = len(tracer.spans)
                counts = workload.replay(outputs) if hasattr(workload, "replay") else {}
                replay_spans = tracer.spans[replay_first:]
                layers.append(layer_metrics(setup_spans, pass_spans, wall, counts, replay_spans))
                if len(traced_walls) == 1:
                    written_spans = setup_spans + pass_spans + replay_spans
            else:
                walls.append(wall)
            tracer.enabled = False
            if args.corrupt and len(checks) == 0:
                workload.corrupt(outputs)
            checks.append(workload.check(outputs))
            workload.release(outputs)
            done = len(walls) >= 1 and (not args.trace or len(traced_walls) >= 1)
            # Start no pass that would end after the deadline.
            if done and time.monotonic() + max(walls + traced_walls) > args.deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result: dict[str, object] = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "checks": [[check.ok, check.attempted, check.digest] for check in checks],
    }
    if args.trace:
        result["layers"] = {
            name: statistics.median(pass_layers[name] for pass_layers in layers)
            for name in layers[0]
        }
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        tracer.write(
            ROOT / ".perfbench" / "trace" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl",
            written_spans,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
