"""Tests for the experiment registry, grid machinery and sweep orchestrator."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sweeps.grid import (
    apply_overrides,
    expand_grid,
    grid_fingerprint,
    parse_override,
)
from repro.sweeps.orchestrator import execute_shard, plan_sweep, run_sweep
from repro.sweeps.registry import all_experiments, get_experiment
from repro.sweeps.store import RunStore, numeric_columns

#: The registered experiments every release must provide: the nine paper
#: experiments plus the ``checker_scaling`` sweep over the bitset checker,
#: the ``adversary_showdown`` sweep over the batch-native strategies, the
#: ``large_n`` sparse-engine scale sweep, and the ``dynamic_topology`` /
#: ``churn_sweep`` dynamic-axis sweeps.
EXPECTED_EXPERIMENTS = {
    "ablation",
    "adversary_showdown",
    "asynchronous",
    "checker",
    "checker_scaling",
    "churn_sweep",
    "convergence_rate",
    "corollaries",
    "dynamic_topology",
    "families",
    "feasibility_at_scale",
    "large_n",
    "necessity",
    "robustness",
    "validity",
}

#: A two-cell convergence_rate grid small enough for orchestrator tests.
TINY_GRID = (
    "case=complete n=4 f=1,core n=7 f=2",
    "batch=4",
    "rounds=60",
)


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        assert set(all_experiments()) == EXPECTED_EXPERIMENTS

    def test_specs_declare_paper_sections_and_grids(self):
        for name, spec in all_experiments().items():
            assert spec.paper_section, name
            assert spec.claim, name
            assert spec.engine, name
            assert spec.default_cell_count >= 1, name
            for key, values in spec.grid.items():
                assert values, (name, key)

    def test_experiment_ids_are_unique(self):
        """Every driver id (``E1``, ``E10b``; ranges like ``E4-E6`` expand)
        names exactly one registered experiment."""
        owners: dict[str, list[str]] = {}
        for name, spec in all_experiments().items():
            ids = re.findall(r"E(\d+)([a-z]?)(?:-E(\d+))?", spec.paper_section)
            assert ids, name
            for first, suffix, last in ids:
                for number in range(int(first), int(last or first) + 1):
                    owners.setdefault(f"E{number}{suffix}", []).append(name)
        duplicated = {eid: names for eid, names in owners.items() if len(names) > 1}
        assert not duplicated

    def test_get_experiment_unknown_name(self):
        with pytest.raises(InvalidParameterError, match="registered experiments"):
            get_experiment("nope")

    def test_runner_is_directly_callable(self):
        spec = get_experiment("corollaries")
        rows = spec.runner(corollary=3, f=1)
        assert rows and rows[0]["condition_holds"] is True

    def test_runner_rejects_unknown_case_label(self):
        for name, key in [
            ("convergence_rate", "case"),
            ("asynchronous", "case"),
            ("necessity", "case"),
            ("robustness", "case"),
            ("checker", "case"),
            ("validity", "graph"),
            ("ablation", "graph"),
            ("families", "study"),
        ]:
            spec = get_experiment(name)
            cell = {k: values[0] for k, values in spec.grid.items()}
            cell[key] = "no such label"
            with pytest.raises(InvalidParameterError):
                spec.runner(**cell)


class TestGrid:
    def test_expand_grid_order_last_key_fastest(self):
        cells = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_expand_empty_grid_is_one_empty_cell(self):
        assert expand_grid({}) == [{}]

    def test_parse_override_json_types(self):
        key, values = parse_override("batch=4,0.5,true,null,complete n=4 f=1")
        assert key == "batch"
        assert values == (4, 0.5, True, None, "complete n=4 f=1")

    def test_parse_override_rejects_malformed(self):
        with pytest.raises(InvalidParameterError):
            parse_override("no-equals-sign")
        with pytest.raises(InvalidParameterError):
            parse_override("key=a,,b")

    def test_apply_overrides_unknown_key(self):
        with pytest.raises(InvalidParameterError, match="unknown grid parameter"):
            apply_overrides({"a": (1,)}, ["b=2"])

    def test_apply_overrides_extra_allowed(self):
        merged = apply_overrides({"a": (1,)}, ["seed=7"], extra_allowed=("seed",))
        assert merged == {"a": (1,), "seed": (7,)}

    def test_overrides_coerce_to_declared_int_type(self):
        # json.loads("1e2") is a float; int-typed parameters coerce it back.
        merged = apply_overrides({"rounds": (50,)}, ["rounds=1e2"])
        assert merged["rounds"] == (100,)
        assert type(merged["rounds"][0]) is int
        # Injected-seed parameters (no declared values) are int-typed too.
        merged = apply_overrides({}, ["seed=2e3"], extra_allowed=("seed",))
        assert merged["seed"] == (2000,)
        # Non-integral floats for int parameters are rejected, float-typed
        # parameters pass through untouched.
        with pytest.raises(InvalidParameterError, match="integer values"):
            apply_overrides({"rounds": (50,)}, ["rounds=1.5"])
        merged = apply_overrides({"tolerance": (1e-7,)}, ["tolerance=1e-5"])
        assert merged["tolerance"] == (1e-5,)

    def test_fingerprint_changes_with_inputs(self):
        base = grid_fingerprint("e", {"a": (1,)}, 0, 1)
        assert base == grid_fingerprint("e", {"a": (1,)}, 0, 1)
        assert base != grid_fingerprint("e", {"a": (2,)}, 0, 1)
        assert base != grid_fingerprint("e", {"a": (1,)}, 1, 1)
        assert base != grid_fingerprint("f", {"a": (1,)}, 0, 1)


class TestPlanning:
    def test_plan_is_deterministic(self):
        first = plan_sweep("convergence_rate", TINY_GRID, seed=3)
        second = plan_sweep("convergence_rate", TINY_GRID, seed=3)
        assert first == second
        assert len(first.cells) == 2
        assert first.cell_seeds == second.cell_seeds

    def test_cell_seeds_follow_seed_sequence_spawn(self):
        plan = plan_sweep("convergence_rate", TINY_GRID, seed=5)
        children = np.random.SeedSequence(5).spawn(len(plan.cells))
        expected = tuple(int(child.generate_state(1)[0]) for child in children)
        assert plan.cell_seeds == expected

    def test_default_one_shard_per_cell_and_explicit_shards(self):
        plan = plan_sweep("convergence_rate", TINY_GRID)
        assert [list(shard) for shard in plan.shards] == [[0], [1]]
        coarse = plan_sweep("convergence_rate", TINY_GRID, shards=1)
        assert [list(shard) for shard in coarse.shards] == [[0, 1]]
        # More shards than cells degrades gracefully to one per cell.
        capped = plan_sweep("convergence_rate", TINY_GRID, shards=10)
        assert len(capped.shards) == 2

    def test_injected_seed_reaches_the_runner(self):
        plan = plan_sweep("convergence_rate", ("case=complete n=4 f=1", "batch=4", "rounds=60"))
        payload = execute_shard(plan, 0)
        assert payload["cells"][0]["params"]["seed"] == plan.cell_seeds[0]

    def test_grid_pinned_seed_wins_over_injection(self):
        plan = plan_sweep(
            "convergence_rate",
            ("case=complete n=4 f=1", "batch=4", "rounds=60", "seed=11"),
        )
        payload = execute_shard(plan, 0)
        assert payload["cells"][0]["params"]["seed"] == 11


class TestRunSweep:
    def test_workers_parity_bit_identical(self, tmp_path):
        serial = run_sweep(
            "convergence_rate",
            TINY_GRID,
            workers=1,
            results_root=tmp_path,
            run_id="w1",
        )
        parallel = run_sweep(
            "convergence_rate",
            TINY_GRID,
            workers=2,
            results_root=tmp_path,
            run_id="w2",
        )
        assert serial.rows == parallel.rows
        # The persisted aggregates agree byte-for-byte on the rows too.
        rows_serial = json.loads((tmp_path / "w1" / "aggregate.json").read_text())
        rows_parallel = json.loads((tmp_path / "w2" / "aggregate.json").read_text())
        assert rows_serial["rows"] == rows_parallel["rows"]

    def test_manifest_and_store_round_trip(self, tmp_path):
        result = run_sweep(
            "necessity",
            ("case=ring n=6 f=1",),
            results_root=tmp_path,
            run_id="nec",
        )
        store = RunStore(tmp_path / "nec")
        manifest = store.read_manifest()
        assert manifest["status"] == "complete"
        assert manifest["experiment"] == "necessity"
        assert manifest["paper_section"].startswith("Section 3")
        assert manifest["completed_shards"] == [0]
        assert manifest["provenance"]["python"]
        aggregate = store.read_aggregate()
        assert aggregate["rows"] == result.rows
        assert result.rows[0]["stalled"] is True
        assert result.rows[0]["validity_ok"] is True
        # NPZ companion holds the numeric columns in row order.
        with np.load(store.aggregate_npz_path) as npz:
            assert npz["cell_index"].tolist() == [0]

    def test_resume_skips_completed_shards(self, tmp_path):
        messages: list[str] = []
        run_sweep(
            "convergence_rate",
            TINY_GRID,
            results_root=tmp_path,
            run_id="resume",
            echo=messages.append,
        )
        store = RunStore(tmp_path / "resume")
        store.shard_path(1).unlink()
        store.aggregate_path.unlink()
        messages.clear()
        resumed = run_sweep(
            "convergence_rate",
            TINY_GRID,
            results_root=tmp_path,
            run_id="resume",
            echo=messages.append,
        )
        assert any("1 already complete, 1 to run" in message for message in messages)
        assert len(resumed.rows) == 2
        # The manifest reflects per-shard progress even mid-run, so an
        # interrupted sweep reports truthfully.
        manifest = store.read_manifest()
        assert manifest["completed_shards"] == [0, 1]
        # And a fully-complete rerun executes nothing.
        messages.clear()
        run_sweep(
            "convergence_rate",
            TINY_GRID,
            results_root=tmp_path,
            run_id="resume",
            echo=messages.append,
        )
        assert any("2 already complete, 0 to run" in message for message in messages)

    def test_run_dir_fingerprint_conflict_is_rejected(self, tmp_path):
        run_sweep(
            "convergence_rate",
            TINY_GRID,
            results_root=tmp_path,
            run_id="clash",
        )
        with pytest.raises(InvalidParameterError, match="different sweep"):
            run_sweep(
                "convergence_rate",
                TINY_GRID,
                seed=99,
                results_root=tmp_path,
                run_id="clash",
            )

    def test_invalid_workers(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="workers"):
            run_sweep("necessity", workers=0, results_root=tmp_path)


class TestNumericColumns:
    def test_extracts_only_uniformly_numeric_keys(self):
        rows = [
            {"a": 1, "b": 0.5, "c": True, "d": "text", "e": 1},
            {"a": 2, "b": 1.5, "c": False, "d": "more", "e": None},
        ]
        columns = numeric_columns(rows)
        assert set(columns) == {"a", "b", "c"}
        assert columns["a"].tolist() == [1, 2]
        assert columns["c"].dtype == np.bool_

    def test_empty_rows(self):
        assert numeric_columns([]) == {}
