"""Unit and integration tests for the synchronous engine."""

from __future__ import annotations

import pytest

from repro.adversary import (
    ExtremePushStrategy,
    PassiveStrategy,
    StaticValueStrategy,
)
from repro.adversary.base import AdversaryContext, ByzantineStrategy
from repro.algorithms import LinearAverageRule, TrimmedMeanRule
from repro.exceptions import (
    FaultBudgetExceededError,
    InvalidParameterError,
    SimulationError,
    ValidityViolationError,
)
from repro.graphs import complete_graph, core_network, star_graph
from repro.simulation import (
    SimulationConfig,
    SynchronousEngine,
    linear_ramp_inputs,
    run_consensus,
    run_synchronous,
    uniform_random_inputs,
)


class TestEngineConstruction:
    def test_unknown_faulty_node_rejected(self):
        with pytest.raises(InvalidParameterError):
            SynchronousEngine(complete_graph(4), TrimmedMeanRule(1), faulty={9})

    def test_fault_budget_enforced(self):
        with pytest.raises(FaultBudgetExceededError):
            SynchronousEngine(complete_graph(7), TrimmedMeanRule(1), faulty={0, 1})

    def test_all_faulty_rejected(self):
        with pytest.raises(InvalidParameterError):
            SynchronousEngine(complete_graph(1), TrimmedMeanRule(0), faulty={0})

    def test_precondition_checked_on_fault_free_nodes(self):
        # Leaves of the star have in-degree 1 < 2f, so the rule's structural
        # precondition fails at the fault-free leaves even when one leaf is
        # marked faulty.
        from repro.exceptions import AlgorithmPreconditionError

        with pytest.raises(AlgorithmPreconditionError):
            SynchronousEngine(star_graph(5), TrimmedMeanRule(1), faulty={1})

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SimulationConfig(max_rounds=-1)
        with pytest.raises(InvalidParameterError):
            SimulationConfig(tolerance=-1.0)

    def test_properties_exposed(self):
        engine = SynchronousEngine(complete_graph(4), TrimmedMeanRule(1), faulty={3})
        assert engine.faulty == frozenset({3})
        assert engine.fault_free == frozenset({0, 1, 2})
        assert engine.rule.f == 1
        assert engine.graph.number_of_nodes == 4
        assert engine.config.max_rounds == 500


class TestSingleStep:
    def test_step_matches_hand_computation(self):
        # Complete graph on 4 nodes, f = 1, no faults. Node 0 receives
        # {0.4, 0.6, 1.0}, trims to {0.6}, averages with own 0.0 -> 0.3.
        graph = complete_graph(4)
        engine = SynchronousEngine(graph, TrimmedMeanRule(1))
        state = {0: 0.0, 1: 0.4, 2: 0.6, 3: 1.0}
        new_state = engine.step(state, round_index=1)
        assert new_state[0] == pytest.approx((0.0 + 0.6) / 2)
        # Node 3 receives {0.0, 0.4, 0.6}, trims 0.0 and 0.6, keeps 0.4.
        assert new_state[3] == pytest.approx((1.0 + 0.4) / 2)

    def test_step_uses_adversary_values_per_edge(self):
        graph = complete_graph(3)

        class TwoFaced(ByzantineStrategy):
            name = "two-faced"

            def outgoing_values(self, node, context):
                return {1: -100.0, 2: +100.0}

        engine = SynchronousEngine(
            graph, LinearAverageRule(1), faulty={0}, adversary=TwoFaced()
        )
        state = {0: 0.0, 1: 10.0, 2: 10.0}
        new_state = engine.step(state, 1)
        # Node 1 averaged {-100 (from 0), 10 (from 2), 10 (own)}.
        assert new_state[1] == pytest.approx(-80.0 / 3)
        # Node 2 averaged {+100, 10, 10}.
        assert new_state[2] == pytest.approx(120.0 / 3)

    def test_missing_adversary_edge_value_raises(self):
        graph = complete_graph(3)

        class Sloppy(ByzantineStrategy):
            name = "sloppy"

            def outgoing_values(self, node, context):
                return {1: 0.0}  # forgets node 2

        engine = SynchronousEngine(
            graph, TrimmedMeanRule(1), faulty={0}, adversary=Sloppy()
        )
        with pytest.raises(SimulationError):
            engine.step({0: 0.0, 1: 0.0, 2: 0.0}, 1)


class TestRun:
    def test_fault_free_convergence_on_complete_graph(self):
        graph = complete_graph(5)
        outcome = run_synchronous(
            graph,
            TrimmedMeanRule(0),
            linear_ramp_inputs(graph.nodes),
            tolerance=1e-9,
        )
        assert outcome.converged
        assert outcome.validity_ok
        assert outcome.final_spread <= 1e-9
        # The consensus value must lie inside the input hull.
        assert all(0.0 <= value <= 1.0 for value in outcome.final_values.values())

    def test_missing_inputs_rejected(self):
        graph = complete_graph(3)
        engine = SynchronousEngine(graph, TrimmedMeanRule(0))
        with pytest.raises(InvalidParameterError):
            engine.run({0: 1.0})

    def test_zero_initial_spread_converges_immediately(self):
        graph = complete_graph(4)
        outcome = run_synchronous(
            graph, TrimmedMeanRule(1), {node: 2.5 for node in graph.nodes}
        )
        assert outcome.converged
        assert outcome.rounds_executed == 0
        assert outcome.initial_spread == 0.0

    def test_history_recorded_and_optional(self):
        graph = complete_graph(4)
        inputs = linear_ramp_inputs(graph.nodes)
        with_history = run_synchronous(graph, TrimmedMeanRule(1), inputs)
        without_history = run_synchronous(
            graph, TrimmedMeanRule(1), inputs, record_history=False
        )
        assert len(with_history.history) == with_history.rounds_executed + 1
        assert without_history.history == tuple()

    def test_validity_and_convergence_under_attack(self):
        graph = core_network(7, 2)
        outcome = run_synchronous(
            graph,
            TrimmedMeanRule(2),
            uniform_random_inputs(graph.nodes, rng=0),
            faulty=frozenset({5, 6}),
            adversary=ExtremePushStrategy(delta=10.0),
            max_rounds=400,
            tolerance=1e-8,
        )
        assert outcome.converged
        assert outcome.validity_ok

    def test_passive_adversary_equals_fault_free_run(self):
        graph = complete_graph(5)
        inputs = linear_ramp_inputs(graph.nodes)
        honest = run_synchronous(graph, TrimmedMeanRule(1), inputs, max_rounds=30)
        passive = run_synchronous(
            graph,
            TrimmedMeanRule(1),
            inputs,
            faulty=frozenset({2}),
            adversary=PassiveStrategy(),
            max_rounds=30,
        )
        # The fault-free nodes' trajectories coincide because the "faulty"
        # node behaves exactly like a correct node.
        for record_honest, record_passive in zip(honest.history, passive.history):
            for node in (0, 1, 3, 4):
                assert record_honest.values[node] == pytest.approx(
                    record_passive.values[node]
                )

    def test_strict_validity_raises_for_linear_average_under_attack(self):
        graph = complete_graph(5)
        with pytest.raises(ValidityViolationError):
            run_synchronous(
                graph,
                LinearAverageRule(1),
                linear_ramp_inputs(graph.nodes),
                faulty=frozenset({0}),
                adversary=StaticValueStrategy(1_000.0),
                strict_validity=True,
                max_rounds=10,
            )

    def test_trimmed_mean_validity_even_on_infeasible_graph(self):
        # On n = 3f the algorithm cannot converge, but Theorem 2's validity
        # argument still applies: the interval never expands.
        graph = complete_graph(6)
        outcome = run_synchronous(
            graph,
            TrimmedMeanRule(2),
            linear_ramp_inputs(graph.nodes),
            faulty=frozenset({0, 1}),
            adversary=ExtremePushStrategy(delta=5.0),
            max_rounds=50,
        )
        assert outcome.validity_ok
        assert not outcome.converged

    def test_stop_on_convergence_false_runs_full_horizon(self):
        graph = complete_graph(4)
        outcome = run_synchronous(
            graph,
            TrimmedMeanRule(1),
            linear_ramp_inputs(graph.nodes),
            max_rounds=25,
            stop_on_convergence=False,
        )
        assert outcome.rounds_executed == 25
        assert outcome.converged  # judged at the end of the horizon


class TestRunConsensusFacade:
    def test_defaults_converge_on_core_network(self):
        outcome = run_consensus(core_network(7, 2), f=2, seed=3)
        assert outcome.converged and outcome.validity_ok

    def test_f0_runs_without_adversary(self):
        outcome = run_consensus(complete_graph(5), f=0, seed=1)
        assert outcome.converged

    def test_mismatched_rule_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_consensus(complete_graph(7), f=2, rule=TrimmedMeanRule(1))

    def test_negative_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_consensus(complete_graph(4), f=-1)

    def test_asynchronous_path(self):
        outcome = run_consensus(
            complete_graph(6), f=1, synchronous=False, max_delay=2, seed=4,
            max_rounds=800, tolerance=1e-5,
        )
        assert outcome.converged
        assert outcome.validity_ok

    def test_explicit_inputs_and_faulty(self):
        graph = complete_graph(7)
        outcome = run_consensus(
            graph,
            f=2,
            inputs=linear_ramp_inputs(graph.nodes),
            faulty=frozenset({0, 1}),
            adversary=StaticValueStrategy(99.0),
            seed=None,
        )
        assert outcome.converged
        assert all(0.0 <= value <= 1.0 for value in outcome.final_values.values())


class TestNonFiniteInputs:
    """A NaN or infinite fault-free input is rejected up front.

    Without the check every engine reported ``validity_ok=True`` with a
    ``nan``/``inf`` final spread on ``core_network(9, 2)``.
    """

    @staticmethod
    def _inputs(bad_value):
        graph = core_network(9, 2)
        inputs = linear_ramp_inputs(graph.nodes)
        inputs[4] = bad_value
        return graph, inputs

    @pytest.mark.parametrize("bad_value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "engine_kind", ["scalar", "dense", "sparse", "scalar-async", "vectorized-async"]
    )
    def test_run_rejects_non_finite_fault_free_input(self, engine_kind, bad_value):
        from repro.simulation import (
            PartiallyAsynchronousEngine,
            SparseEngine,
            VectorizedAsyncEngine,
            VectorizedEngine,
        )

        graph, inputs = self._inputs(bad_value)
        factories = {
            "scalar": SynchronousEngine,
            "dense": VectorizedEngine,
            "sparse": SparseEngine,
            "scalar-async": PartiallyAsynchronousEngine,
            "vectorized-async": VectorizedAsyncEngine,
        }
        engine = factories[engine_kind](graph, TrimmedMeanRule(2), faulty={0, 1})
        with pytest.raises(InvalidParameterError, match="finite"):
            engine.run(inputs)

    @pytest.mark.parametrize("bad_value", [float("nan"), float("inf")])
    def test_pack_inputs_rejects_non_finite_matrix(self, bad_value):
        import numpy as np

        from repro.simulation import SparseEngine, VectorizedEngine

        graph, inputs = self._inputs(bad_value)
        for factory in (VectorizedEngine, SparseEngine):
            engine = factory(graph, TrimmedMeanRule(2), faulty={0, 1})
            rows = [linear_ramp_inputs(graph.nodes), inputs]
            with pytest.raises(InvalidParameterError, match=r"nodes \[4\]"):
                engine.pack_inputs(rows)
            matrix = np.zeros((3, 9))
            matrix[2, engine.nodes.index(4)] = bad_value
            with pytest.raises(InvalidParameterError, match=r"nodes \[4\]"):
                engine.run_batch(matrix)

    def test_faulty_inputs_are_not_checked(self):
        graph, inputs = self._inputs(float("nan"))
        inputs[4] = 0.5
        inputs[0] = float("inf")
        outcome = SynchronousEngine(
            graph,
            TrimmedMeanRule(2),
            faulty={0, 1},
            adversary=StaticValueStrategy(0.5),
        ).run(inputs)
        assert outcome.validity_ok
