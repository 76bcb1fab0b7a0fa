"""The three benchmark workloads.

Each workload class builds its inputs from the benchmark seed in
``__init__`` (the measured set-up), runs one timed ``run_pass`` and gates
the pass's outputs in ``check`` (untimed).  Each drives one part of the
system hard and leaves the rest nearly idle, so a change to one layer shows
on one workload and its "no change" prediction can be checked on the
others:

* :class:`LargeSparseSim` - the sparse round kernel and large-``n`` set-up
  (``graphs``, ``simulation``, ``adversary``);
* :class:`VerdictBattery` - every layer of the Theorem-1 verdict stack
  (``conditions`` only);
* :class:`PaperSweep` - the ``repro run`` path on small graphs
  (``sweeps`` orchestration and store, plus many tiny engine calls).

``check`` returns one :class:`PassCheck`: how many operations passed every
gate, how many were attempted, and a digest of the outputs that must be
the same for every pass of every process run with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracer import Target, Tracer, engine_targets


@dataclass(frozen=True)
class PassCheck:
    """Gate results of one pass."""

    ok: int
    attempted: int
    digest: str


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edge_counts(_: Any, args: tuple, graph: Any) -> dict:
    return {"edges": graph.number_of_edges}


class LargeSparseSim:
    """Batched Algorithm 1 on a 10^5-node sparse graph.

    ``heterogeneous_ring_lattice(n=10^5, f=2, extra_mean=2.0)`` with a
    random fault set of size ``f``, the float64 :class:`SparseEngine`, the
    extreme-push batch adversary, and one ``run_batch`` of ``BATCH`` rows
    for ``ROUNDS`` rounds per pass (no early stop).
    """

    N, F, EXTRA_MEAN, BATCH, ROUNDS = 100_000, 2, 2.0, 8, 10
    #: Size of the small instance the engines are cross-checked on.
    CHECK_N, CHECK_ROUNDS = 120, 25

    def __init__(self, seed: int, tracer: Tracer, work_dir: Path) -> None:
        from repro.adversary.selection import random_fault_set
        from repro.adversary.vectorized import BatchExtremePushStrategy
        from repro.algorithms.trimmed_mean import TrimmedMeanRule
        from repro.graphs.random_graphs import heterogeneous_ring_lattice
        from repro.simulation.engine import SimulationConfig
        from repro.simulation.sparse import SparseEngine
        from repro.simulation.vectorized import random_input_matrix

        self.seed = seed
        rng = np.random.default_rng(seed)
        build = tracer.wrap("graphs", "build", heterogeneous_ring_lattice, _edge_counts)
        graph = build(self.N, self.F, self.EXTRA_MEAN, rng=rng)
        faulty = random_fault_set(graph, self.F, rng=rng)
        with tracer.span("simulation", "construct"):
            self.engine = SparseEngine(
                graph,
                TrimmedMeanRule(self.F),
                faulty=faulty,
                adversary=BatchExtremePushStrategy(1.0),
                config=SimulationConfig(
                    max_rounds=self.ROUNDS,
                    record_history=False,
                    stop_on_convergence=False,
                ),
            )
        self.inputs = random_input_matrix(self.engine.nodes, self.BATCH, rng=rng)
        fault_free = self.engine.fault_free
        self.ff_columns = np.array(
            [column for column, node in enumerate(self.engine.nodes) if node in fault_free]
        )
        self._cross_check_ok: bool | None = None

    def trace_targets(self) -> list[Target]:
        """Methods wrapped in spans during a traced pass."""
        return engine_targets()

    def run_pass(self) -> Any:
        """The timed job: one batched run."""
        return self.engine.run_batch(self.inputs)

    def corrupt(self, outcome: Any) -> None:
        """Push one fault-free final state outside the input hull."""
        outcome.final_states[0, self.ff_columns[0]] = 2.0

    def check(self, outcome: Any) -> PassCheck:
        """Per execution: validity flag, hull containment, engine parity."""
        ff_inputs = self.inputs[:, self.ff_columns]
        ff_final = outcome.final_states[:, self.ff_columns]
        in_hull = (ff_final >= ff_inputs.min(axis=1, keepdims=True)).all(axis=1) & (
            ff_final <= ff_inputs.max(axis=1, keepdims=True)
        ).all(axis=1)
        passed = np.asarray(outcome.validity_ok, dtype=bool) & in_hull
        ok = int(passed.sum()) if self._engines_agree() else 0
        return PassCheck(ok, self.BATCH, _sha256(outcome.final_states.tobytes()))

    def _engines_agree(self) -> bool:
        """Scalar = dense = sparse, bit for bit, on a small instance (cached).

        Same generator, fault-set policy and adversary family as the timed
        run: ``cross_check_engines`` pins the dense engine to the scalar
        reference under the scalar extreme-push strategy, and
        ``sparse_cross_check_engines`` pins the sparse engine to the dense
        one under the batch-native strategy.
        """
        if self._cross_check_ok is None:
            from repro.adversary.selection import random_fault_set
            from repro.adversary.strategies import ExtremePushStrategy
            from repro.adversary.vectorized import BatchExtremePushStrategy
            from repro.algorithms.trimmed_mean import TrimmedMeanRule
            from repro.graphs.random_graphs import heterogeneous_ring_lattice
            from repro.simulation.sparse import sparse_cross_check_engines
            from repro.simulation.vectorized import cross_check_engines

            rng = np.random.default_rng(self.seed)
            graph = heterogeneous_ring_lattice(self.CHECK_N, self.F, self.EXTRA_MEAN, rng=rng)
            faulty = random_fault_set(graph, self.F, rng=rng)
            nodes = sorted(graph.nodes, key=repr)
            inputs = dict(zip(nodes, rng.uniform(size=len(nodes)).tolist()))
            common = dict(
                graph=graph,
                rule=TrimmedMeanRule(self.F),
                inputs=inputs,
                faulty=faulty,
                rounds=self.CHECK_ROUNDS,
            )
            scalar = cross_check_engines(adversary=ExtremePushStrategy(delta=1.0), **common)
            sparse = sparse_cross_check_engines(
                adversary=BatchExtremePushStrategy(1.0), **common
            )
            self._cross_check_ok = scalar.identical and sparse.identical
        return self._cross_check_ok

    def release(self, outcome: Any) -> None:
        """Nothing on disk to clean up."""


@dataclass(frozen=True)
class VerdictCase:
    """One battery case: graph builder, generator seed, recorded verdict.

    ``graph_seed`` is ``None`` for the two screen cases, whose graphs are
    drawn from the benchmark seed (their verdict holds for any draw and
    costs milliseconds).  Every search-decided case is pinned to one
    recorded graph: the cost of witness search and of DPLL varies by up to
    tenfold between graphs of one family, which would make the pass time
    depend on the seed.
    """

    label: str
    build: Callable[[int], Any]
    f: int
    graph_seed: int | None
    status: str
    decided_by: str | None
    options: tuple[tuple[str, int], ...] = ()


def _verdict_cases() -> tuple[VerdictCase, ...]:
    from repro.graphs.generators import chord_network
    from repro.graphs.random_graphs import (
        erdos_renyi_digraph,
        heterogeneous_ring_lattice,
        random_core_like_network,
    )

    return (
        VerdictCase(
            "screens feasible: core-like n=1000 f=3",
            lambda s: random_core_like_network(1000, 3, rng=s),
            3, None, "FEASIBLE", "screens",
        ),
        VerdictCase(
            "screens infeasible: erdos-renyi n=1000 p=3/n f=2",
            lambda s: erdos_renyi_digraph(1000, 3.0 / 1000, rng=s),
            2, None, "INFEASIBLE", "screens",
        ),
        VerdictCase(
            "exhaustive feasible: hetring n=19 f=1",
            lambda s: heterogeneous_ring_lattice(19, 1, 2.0, rng=s),
            1, 19, "FEASIBLE", "exhaustive",
        ),
        VerdictCase(
            "exact feasible: hetring n=25 f=1",
            lambda s: heterogeneous_ring_lattice(25, 1, 2.0, rng=s),
            1, 14, "FEASIBLE", "exact",
        ),
        VerdictCase(
            "exact budget exhausted: chord n=28 f=2",
            lambda s: chord_network(28, 2),
            2, 0, "UNKNOWN", None, (("decision_budget", 50_000),),
        ),
        VerdictCase(
            "witness infeasible: hetring n=1000 f=2 extra=0.5",
            lambda s: heterogeneous_ring_lattice(1000, 2, 0.5, rng=s),
            2, 13, "INFEASIBLE", "witness-search",
        ),
        VerdictCase(
            "witness exhausted: hetring n=300 f=2 extra=2.0",
            lambda s: heterogeneous_ring_lattice(300, 2, 2.0, rng=s),
            2, 2, "UNKNOWN", None,
        ),
    )


def _verdict_counts(_: Any, args: tuple, verdict: Any) -> dict:
    """Per-layer seconds of one verdict, from its returned ``LayerTiming``s."""
    counts = {"decided": int(verdict.status != "UNKNOWN"), "layers_s": 0.0}
    for timing in verdict.timings:
        counts[timing.layer] = timing.seconds
        counts["layers_s"] += timing.seconds
    return counts


def _exact_counts(_: Any, args: tuple, result: Any) -> dict:
    return {"fault_sets": result.fault_sets_examined}


class VerdictBattery:
    """``feasibility_verdict`` + ``verify_certificate`` over a fixed battery.

    One graph per :class:`VerdictCase`.  The battery makes every verdict
    layer do real work (screens, exhaustive bitset enumeration, witness
    search, the DPLL exact backend to completion and to budget exhaustion)
    and touches nothing in ``simulation``.  Graphs come from the
    ``repro.graphs`` generators, so the experiment registry is never
    imported.
    """

    def __init__(self, seed: int, tracer: Tracer, work_dir: Path) -> None:
        from repro.conditions.verdict import feasibility_verdict, verify_certificate

        self.cases = []
        for case in _verdict_cases():
            graph_seed = seed if case.graph_seed is None else case.graph_seed
            build = tracer.wrap("graphs", "build", case.build, _edge_counts)
            self.cases.append((case, graph_seed, build(graph_seed)))
        self.verdict = tracer.wrap("conditions", "verdict", feasibility_verdict, _verdict_counts)
        self.certify = tracer.wrap("conditions", "certify", verify_certificate)
        self._reference: dict[int, bool] = {}

    def trace_targets(self) -> list[Target]:
        """The exact backend, wrapped to read its fault-set count."""
        from repro.conditions import verdict

        return [(verdict, "exact_violation_search", "conditions", "exact_search", _exact_counts)]

    def run_pass(self) -> list[tuple[Any, bool]]:
        """The timed job: verdict then certificate re-check, per case."""
        results = []
        for case, _, graph in self.cases:
            verdict = self.verdict(graph, case.f, **dict(case.options))
            results.append((verdict, self.certify(graph, case.f, verdict)))
        return results

    def corrupt(self, results: list[tuple[Any, bool]]) -> None:
        """Relabel the first case's verdict as its opposite."""
        verdict, certified = results[0]
        flipped = "INFEASIBLE" if verdict.status == "FEASIBLE" else "FEASIBLE"
        results[0] = (replace(verdict, status=flipped), certified)

    def check(self, results: list[tuple[Any, bool]]) -> PassCheck:
        """Per case: recorded status and layer, sound certificate, and
        agreement with the reference checkers."""
        ok = 0
        for index, ((case, _, graph), (verdict, certified)) in enumerate(
            zip(self.cases, results)
        ):
            ok += int(
                verdict.status == case.status
                and verdict.decided_by == case.decided_by
                and certified
                and self._agrees_with_reference(index, graph, case.f, verdict)
            )
        digest = _sha256(
            json.dumps(
                [[verdict.status, verdict.decided_by, verdict.reason] for verdict, _ in results]
            ).encode()
        )
        return PassCheck(ok, len(results), digest)

    def _agrees_with_reference(self, index: int, graph: Any, f: int, verdict: Any) -> bool:
        """Within the exhaustive cap: ``find_violating_partition`` must give
        the same answer; a witness certificate must pass the reference
        ``verify_witness``.  Reference answers are computed once per case."""
        from repro.conditions.necessary import (
            DEFAULT_MAX_EXACT_NODES,
            find_violating_partition,
            verify_witness,
        )

        certificate = verdict.certificate
        witness = getattr(certificate, "witness", None)
        if witness is not None and not verify_witness(graph, f, witness):
            return False
        if graph.number_of_nodes > DEFAULT_MAX_EXACT_NODES:
            return True
        if index not in self._reference:
            self._reference[index] = find_violating_partition(graph, f) is None
        if verdict.status == "UNKNOWN":
            return False
        return self._reference[index] == (verdict.status == "FEASIBLE")

    def release(self, results: list[tuple[Any, bool]]) -> None:
        """Nothing on disk to clean up."""


#: Experiments of the sweep workload (69 shards at their default grids).
#: ``large_n``, ``checker_scaling`` and ``feasibility_at_scale`` are left
#: out: their rows carry wall-clock columns, so their aggregates differ on
#: every run and cannot be gated by digest.
SWEEP_EXPERIMENTS = ("adversary_showdown", "asynchronous", "dynamic_topology")

#: Root seeds of the sweep workload and the SHA-256 prefix (16 hex digits)
#: of each experiment's ``aggregate.json`` under that root seed, recorded
#: from this code base.  The aggregates are byte-identical run to run.
SWEEP_DIGESTS: dict[int, dict[str, str]] = {
    0: {"adversary_showdown": "ca7c6b26280ef972", "asynchronous": "e1273bbdfe620c93",
        "dynamic_topology": "1a1e11dcfe2e7707"},
    1: {"adversary_showdown": "6fe319c02d007c70", "asynchronous": "6ac61b116b6101c8",
        "dynamic_topology": "c25d56c2c986959b"},
    2: {"adversary_showdown": "6728c85b4f8a5327", "asynchronous": "d79e25a59ad98a34",
        "dynamic_topology": "8b839e7c3e9c92ae"},
    3: {"adversary_showdown": "d290765ee3113b11", "asynchronous": "52da55c9ad8efdf5",
        "dynamic_topology": "edde51a9c76a9e37"},
    4: {"adversary_showdown": "e5a219111f82ac7e", "asynchronous": "9f866e0b1d45b444",
        "dynamic_topology": "2a11082e44c74fc1"},
    5: {"adversary_showdown": "0bcd4cd397e00c6f", "asynchronous": "e4f0a7a63dddf92a",
        "dynamic_topology": "c584b0e6882fcb42"},
    6: {"adversary_showdown": "f9ee0095db0236f0", "asynchronous": "18ff8522414f164f",
        "dynamic_topology": "90b3c988bfee1e85"},
    7: {"adversary_showdown": "7dd0fd9278f6b381", "asynchronous": "0581c340f556a1b5",
        "dynamic_topology": "13e5568520c846dd"},
    8: {"adversary_showdown": "86ed145bf9870053", "asynchronous": "88bfc8829a181d2f",
        "dynamic_topology": "43d74a270ac4a943"},
    9: {"adversary_showdown": "ee0f1ffe093a900e", "asynchronous": "b7b450208e6ea36b",
        "dynamic_topology": "27ce11af1b18d673"},
    10: {"adversary_showdown": "46b4da6f59e752d7", "asynchronous": "9b5afec2af0a1925",
        "dynamic_topology": "9962c6bfcdcd3d24"},
    11: {"adversary_showdown": "717cf3163b4e5d23", "asynchronous": "3cdebe96c8766e4d",
        "dynamic_topology": "caf56492cabaa3e0"},
}

#: Root seeds swept per pass, drawn from ``SWEEP_DIGESTS`` by the seed.
SWEEP_SEEDS_PER_PASS = 3


def _aggregate_digest(path: Path) -> str:
    return _sha256(path.read_bytes())[:16]


class PaperSweep:
    """``run_sweep`` of :data:`SWEEP_EXPERIMENTS` into a fresh results root.

    One pass sweeps every experiment under ``SWEEP_SEEDS_PER_PASS`` root
    seeds with ``workers=1``; the work is sized by the number of root seeds,
    not by enlarging grids.
    """

    def __init__(self, seed: int, tracer: Tracer, work_dir: Path) -> None:
        from repro.sweeps.orchestrator import run_sweep
        from repro.sweeps.registry import get_experiment

        with tracer.span("sweeps", "registry_load"):
            self.specs = {name: get_experiment(name) for name in SWEEP_EXPERIMENTS}
        self.root_seeds = random.Random(seed).sample(sorted(SWEEP_DIGESTS), SWEEP_SEEDS_PER_PASS)
        self.sweep = tracer.wrap("sweeps", "run_sweep", run_sweep)
        self.tracer = tracer
        self.work_dir = work_dir
        self._passes = 0

    def trace_targets(self) -> list[Target]:
        """Methods wrapped in spans during a traced pass."""
        return engine_targets()

    def run_pass(self) -> tuple[Path, list[tuple[int, Any]]]:
        """The timed job: every experiment under every chosen root seed."""
        self._passes += 1
        root = self.work_dir / f"pass-{self._passes}"
        results = []
        for root_seed in self.root_seeds:
            for name in SWEEP_EXPERIMENTS:
                results.append(
                    (root_seed, self.sweep(name, workers=1, seed=root_seed, results_root=root))
                )
        return root, results

    def corrupt(self, outputs: tuple[Path, list[tuple[int, Any]]]) -> None:
        """Prefix a digit to the first aggregate's row count on disk."""
        path = outputs[1][0][1].run_dir / "aggregate.json"
        text = path.read_text()
        path.write_text(text.replace('"row_count": ', '"row_count": 1', 1))

    def check(self, outputs: tuple[Path, list[tuple[int, Any]]]) -> PassCheck:
        """Per sweep (counted per cell): the aggregate re-reads schema-valid
        and matches the digest recorded for its root seed."""
        from repro.exceptions import SchemaViolationError
        from repro.sweeps.store import RunStore

        ok = attempted = 0
        digests = []
        for root_seed, result in outputs[1]:
            spec = self.specs[result.manifest["experiment"]]
            cells = len(result.manifest["cells"])
            attempted += cells
            store = RunStore(result.run_dir)
            try:
                aggregate = store.read_aggregate(spec.schema)
            except (SchemaViolationError, ValueError):
                aggregate = None
            digest = _aggregate_digest(store.aggregate_path)
            digests.append(digest)
            recorded = SWEEP_DIGESTS[root_seed].get(spec.name)
            if aggregate is not None and len(aggregate["rows"]) == len(result.rows) and digest == recorded:
                ok += cells
        return PassCheck(ok, attempted, _sha256(" ".join(digests).encode()))

    def replay(self, outputs: tuple[Path, list[tuple[int, Any]]]) -> dict[str, int]:
        """Traced replay of the pass's shard executions and store writes.

        ``execute_shard`` runs again for every shard of every sweep, and the
        ``RunStore`` writes ``run_sweep`` made (a shard file per shard, the
        manifest once before, once after each shard and once at the end,
        and the aggregate) are repeated with the same payloads into a
        separate directory.  Their sums, subtracted from the ``run_sweep``
        spans, leave the orchestration time.  Returns the exact counts:
        bytes written (every write, rewrites included), shards and rows.
        """
        from repro.sweeps.orchestrator import execute_shard, plan_sweep
        from repro.sweeps.store import RunStore

        tracer = self.tracer
        counts = {"bytes": 0, "shards": 0, "rows": 0}
        for root_seed, result in outputs[1]:
            manifest = result.manifest
            plan = plan_sweep(manifest["experiment"], seed=root_seed)
            store = RunStore(self.work_dir / "replay" / plan.run_id)
            spec = self.specs[plan.experiment]
            header = {key: manifest[key] for key in (
                "experiment", "run_id", "fingerprint", "paper_section", "engine",
                "row_schema", "parameter_columns",
            )}
            with tracer.span("sweeps", "store_write"):
                store.write_manifest(manifest)
            written = store.manifest_path.stat().st_size
            for shard_index in range(len(plan.shards)):
                with tracer.span("sweeps", "execute_shard"):
                    payload = execute_shard(plan, shard_index)
                with tracer.span("sweeps", "store_write"):
                    store.write_shard(shard_index, payload)
                    store.write_manifest(manifest)
                written += store.shard_path(shard_index).stat().st_size
                written += store.manifest_path.stat().st_size
            with tracer.span("sweeps", "store_write"):
                store.write_aggregate(result.rows, header=header, schema=spec.schema)
                store.write_manifest(manifest)
            written += store.aggregate_path.stat().st_size
            written += store.aggregate_npz_path.stat().st_size
            written += store.manifest_path.stat().st_size
            counts["bytes"] += written
            counts["shards"] += len(plan.shards)
            counts["rows"] += len(result.rows)
        return counts

    def release(self, outputs: tuple[Path, list[tuple[int, Any]]]) -> None:
        """Delete the pass's results root (and any replay)."""
        shutil.rmtree(outputs[0], ignore_errors=True)
        shutil.rmtree(self.work_dir / "replay", ignore_errors=True)


WORKLOADS = {
    "large_sparse_sim": LargeSparseSim,
    "verdict_battery": VerdictBattery,
    "paper_sweep": PaperSweep,
}
