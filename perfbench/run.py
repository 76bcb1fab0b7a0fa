"""Benchmark of the Byzantine-consensus reproduction, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload large_sparse_sim --seed 1 --seconds 24 --trace 0

Workloads: ``large_sparse_sim``, ``verdict_battery``, ``paper_sweep`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  The run is split
over ``PROCESSES`` fresh worker processes started one after another (never
two at once), each building the workload from scratch, so set-up time -
imports included - is sampled several times per run and reported as a
median.  Worker ``i`` (from 1) runs timed passes while the next one can end
within ``i / PROCESSES`` of ``--seconds`` from the start of the run, and
always at least one (``TRACE_PROCESSES`` workers for a traced run).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
processes), ``wall_s`` (median pass time over all passes), ``peak_rss_mb``
(median of the processes' peak resident set, MB = 10^6 bytes) and
``ok_ratio`` (operations that passed every correctness gate / operations
attempted).  ``--trace 1`` reports the per-layer metrics of traced passes.
``--corrupt 1`` breaks one output per process before the gates run, to show
that they catch it.  Every metric is printed by name and unit; the last line
of standard output is the JSON result.  The exit code is non-zero, and no
result is printed, when a worker fails or the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("large_sparse_sim", "verdict_battery", "paper_sweep")

#: Worker processes per run: the number of set-up samples behind setup_s.
PROCESSES = 5

#: Worker processes per traced run.  Each needs at least one untraced and
#: one traced pass (plus a replay on paper_sweep), so fewer processes keep a
#: traced run close to ``--seconds``.
TRACE_PROCESSES = 3

#: A worker that has not finished this long after its deadline is killed.
WORKER_GRACE_SECONDS = 120


def run_worker(args: argparse.Namespace, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    t0 = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable, str(WORKER),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--t0", repr(t0),
            "--deadline", repr(deadline),
            "--trace", str(args.trace),
            "--corrupt", str(args.corrupt),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - t0, 0) + WORKER_GRACE_SECONDS,
        check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"worker exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(workers: list[dict], trace: bool) -> dict:
    """Fold the workers' documents into the benchmark's result."""
    checks = [check for worker in workers for check in worker["checks"]]
    # Same seed, same outputs: a pass whose digest differs from the
    # majority fails all its operations, whatever its own gates said.
    majority, _ = Counter(digest for _, _, digest in checks).most_common(1)[0]
    attempted = sum(total for _, total, _ in checks)
    ok = sum(good for good, _, digest in checks if digest == majority)
    if trace:
        units = _per_layer_units()
        if set(units) != set(workers[0]["layers"]):
            raise SystemExit(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(units) ^ set(workers[0]['layers']))}"
            )
        metrics = {
            name: {"value": statistics.median(worker["layers"][name] for worker in workers),
                   "unit": unit}
            for name, unit in units.items()
        }
    else:
        walls = [wall for worker in workers for wall in worker["walls"]]
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(w["peak_rss_mb"] for w in workers), "unit": "MB"
            },
            "ok_ratio": {"value": ok / attempted, "unit": "ok/attempted"},
        }
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }


def _per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    start = time.monotonic()
    processes = TRACE_PROCESSES if args.trace else PROCESSES
    workers = [
        run_worker(args, start + args.seconds * (index + 1) / processes)
        for index in range(processes)
    ]
    result = summarize(workers, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:18s} {name:34s} {metric['value']:16.6g} {metric['unit']}")
    print(
        f"{args.workload:18s} processes={len(workers)} "
        f"untraced_passes={sum(len(w['walls']) for w in workers)} "
        f"ok={result['attempted'] - result['failed']}/{result['attempted']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
