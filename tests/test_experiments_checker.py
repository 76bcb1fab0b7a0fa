"""Tests for the checker-agreement experiment (``repro.experiments.checker``)."""

from __future__ import annotations

from repro.conditions.necessary import check_feasibility
from repro.experiments.checker import (
    checker_agreement_study,
    checker_scaling_cases,
    checker_test_battery,
    exhaustive_checker_workload,
)


class TestBattery:
    def test_labels_are_unique_and_graphs_valid(self):
        battery = checker_test_battery()
        labels = [label for label, _, _ in battery]
        assert len(labels) == len(set(labels))
        for label, graph, f in battery:
            assert graph.number_of_nodes >= 3, label
            assert f >= 1, label

    def test_battery_is_deterministic_per_seed(self):
        first = checker_test_battery(seed=17)
        second = checker_test_battery(seed=17)
        for (label_a, graph_a, _), (label_b, graph_b, _) in zip(first, second):
            assert label_a == label_b
            assert graph_a.nodes == graph_b.nodes
            assert set(graph_a.edges) == set(graph_b.edges)

    def test_battery_covers_both_verdicts(self):
        battery = checker_test_battery()
        verdicts = {check_feasibility(g, f).satisfied for _, g, f in battery}
        assert verdicts == {True, False}


class TestAgreementStudy:
    def test_every_method_consistent_with_exact_checker(self):
        # A feasible and an infeasible instance, plus a heuristic-friendly one.
        battery = [
            entry
            for entry in checker_test_battery()
            if entry[0]
            in {"complete n=4 f=1", "chord n=7 f=2", "ring n=6 f=1"}
        ]
        rows = checker_agreement_study(battery=battery, random_attempts=50)
        assert len(rows) == 3
        assert all(row["consistent"] for row in rows)
        by_case = {row["case"]: row for row in rows}
        assert by_case["complete n=4 f=1"]["exact_condition_holds"] is True
        assert by_case["chord n=7 f=2"]["exact_condition_holds"] is False
        # The in-degree screen catches the ring immediately.
        assert by_case["ring n=6 f=1"]["screens_pass"] is False

    def test_heuristic_witness_only_on_infeasible_graphs(self):
        battery = [
            entry
            for entry in checker_test_battery()
            if entry[0] in {"complete n=6 f=1", "hypercube d=3 f=1"}
        ]
        rows = checker_agreement_study(battery=battery, random_attempts=50)
        by_case = {row["case"]: row for row in rows}
        feasible = by_case["complete n=6 f=1"]
        assert feasible["greedy_found_witness"] is False
        assert feasible["random_found_witness"] is False
        assert by_case["hypercube d=3 f=1"]["exact_condition_holds"] is False


class TestScalingWorkload:
    def test_scaling_cases_are_well_formed(self):
        cases = checker_scaling_cases()
        assert len(cases) >= 4
        labels = [label for label, _, _ in cases]
        assert len(labels) == len(set(labels))

    def test_workload_matches_direct_feasibility_check(self):
        for case in checker_scaling_cases()[:2]:
            _, graph, f = case
            expected = check_feasibility(
                graph, f, use_structural_shortcuts=False
            ).satisfied
            assert exhaustive_checker_workload(case) is expected


class TestFeasibilityAtScale:
    def test_battery_labels_are_unique_and_span_sizes(self):
        from repro.experiments import DEFAULT_SCALE_SIZES, feasibility_scale_battery

        battery = feasibility_scale_battery()
        labels = [label for label, _, _ in battery]
        assert len(labels) == len(set(labels))
        for n in DEFAULT_SCALE_SIZES:
            assert any(f"n={n}" in label for label in labels)

    def test_labels_match_battery_without_building_graphs(self):
        from repro.experiments import (
            feasibility_scale_battery,
            feasibility_scale_labels,
        )
        from repro.sweeps.registry import get_experiment

        labels = tuple(label for label, _, _ in feasibility_scale_battery())
        assert feasibility_scale_labels() == labels
        assert get_experiment("feasibility_at_scale").grid["case"] == labels

    def test_registry_import_calls_no_generator(self):
        """Importing the experiment registry builds none of the battery
        graphs: no generator is called from the feasibility_at_scale module
        (other drivers' small import-time graphs are not counted)."""
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.graphs.random_graphs as rg\n"
            "calls = []\n"
            "def counting(*args, **kwargs):\n"
            "    calls.append(sys._getframe(1).f_globals['__name__'])\n"
            "for name in ('heterogeneous_ring_lattice', 'erdos_renyi_digraph',\n"
            "             'random_core_like_network'):\n"
            "    setattr(rg, name, counting)\n"
            "import repro.experiments\n"
            "print(calls.count('repro.experiments.feasibility_scale'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "0"

    def test_cell_builds_only_its_own_graph(self, monkeypatch):
        import repro.experiments.feasibility_scale as module

        built: list[str] = []
        for name in (
            "heterogeneous_ring_lattice",
            "erdos_renyi_digraph",
            "random_core_like_network",
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        rows = module.feasibility_scale_cell("erdos-renyi n=100 sparse f=2")
        assert built == ["erdos_renyi_digraph"]
        assert [row["case"] for row in rows] == ["erdos-renyi n=100 sparse f=2"]

    def test_cell_decides_core_like_with_valid_certificate(self):
        from repro.experiments import feasibility_scale_cell

        rows = feasibility_scale_cell("core-like n=100 f=3")
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "FEASIBLE"
        assert row["decided_by"] == "screens"
        assert row["certificate"] == "core-structure"
        assert row["certificate_ok"] is True

    def test_study_decides_majority_of_small_cases(self):
        from repro.experiments import feasibility_scale_battery, feasibility_scale_study

        battery = [
            case for case in feasibility_scale_battery() if "n=100" in case[0]
        ]
        rows = feasibility_scale_study(battery=battery)
        assert all(row["certificate_ok"] for row in rows)
        decided = [row for row in rows if row["decided"]]
        assert len(decided) * 2 >= len(rows)
