"""Tests for QAOA."""


import pytest

from repro.algorithms.qaoa import QAOA, QAOAAnsatz
from repro.core.regimes import NISQRegime
from repro.operators.graphs import (cut_value, maxcut_cost_hamiltonian,
                                    ring_graph)
from repro.operators.pauli import PauliString, PauliSum
from repro.simulators.statevector import StatevectorSimulator
from repro.vqe.energy import BackendEnergyEvaluator
from repro.vqe.optimizers import CobylaOptimizer


# ---------------------------------------------------------------------------
# QAOA
# ---------------------------------------------------------------------------

class TestQAOAAnsatz:
    def test_parameter_count_is_two_per_layer(self):
        hamiltonian = maxcut_cost_hamiltonian(ring_graph(5))
        assert QAOAAnsatz(hamiltonian, depth=3).num_parameters() == 6

    def test_cnot_count_two_per_edge_per_layer(self):
        graph = ring_graph(6)
        hamiltonian = maxcut_cost_hamiltonian(graph)
        ansatz = QAOAAnsatz(hamiltonian, depth=2)
        assert ansatz.cnot_count() == 2 * graph.number_of_edges() * 2

    def test_rotation_count_counts_cost_and_mixer_rotations(self):
        graph = ring_graph(4)
        ansatz = QAOAAnsatz(maxcut_cost_hamiltonian(graph), depth=1)
        # 4 ZZ terms + 0 Z terms + 4 mixer rotations.
        assert ansatz.rotation_count() == 8

    def test_rejects_non_diagonal_hamiltonian(self):
        hamiltonian = PauliSum(3)
        hamiltonian.add_term(PauliString("XXI"), 1.0)
        with pytest.raises(ValueError):
            QAOAAnsatz(hamiltonian)

    def test_rejects_three_body_terms(self):
        hamiltonian = PauliSum(3)
        hamiltonian.add_term(PauliString("ZZZ"), 1.0)
        with pytest.raises(ValueError):
            QAOAAnsatz(hamiltonian)

    def test_built_circuit_gate_profile(self):
        graph = ring_graph(4)
        ansatz = QAOAAnsatz(maxcut_cost_hamiltonian(graph), depth=1)
        circuit = ansatz.build().bind_parameters([0.3, 0.7])
        counts = circuit.count_ops()
        assert counts["h"] == 4
        assert counts["cx"] == 8
        assert counts["rz"] == 4
        assert counts["rx"] == 4

    def test_macro_schedule_contains_cost_clusters(self):
        graph = ring_graph(4)
        ansatz = QAOAAnsatz(maxcut_cost_hamiltonian(graph), depth=1)
        schedule = ansatz.macro_schedule()
        clusters = [op for op in schedule if op.kind == "cnot_cluster"]
        assert len(clusters) == graph.number_of_edges()

    def test_uniform_superposition_energy_at_zero_parameters(self):
        """At γ=β=0 the state is |+⟩^n, whose cut expectation is half the edges."""
        graph = ring_graph(6)
        hamiltonian = maxcut_cost_hamiltonian(graph)
        ansatz = QAOAAnsatz(hamiltonian, depth=1)
        circuit = ansatz.build().bind_parameters([0.0, 0.0])
        energy = StatevectorSimulator().expectation(circuit, hamiltonian)
        assert energy == pytest.approx(-0.5 * graph.number_of_edges(), abs=1e-9)


class TestQAOA:
    def test_qaoa_improves_over_random_guess_on_ring(self):
        graph = ring_graph(6)
        qaoa = QAOA(graph, depth=2, optimizer=CobylaOptimizer(max_iterations=150))
        result = qaoa.run(seed=3)
        # Depth-2 QAOA on an even ring should find a near-maximal cut.
        assert result.best_cut >= 4.0
        assert result.optimal_cut == 6.0
        assert result.approximation_ratio >= 4.0 / 6.0

    def test_qaoa_energy_bounded_below_by_ground_state(self):
        graph = ring_graph(4)
        qaoa = QAOA(graph, depth=1, optimizer=CobylaOptimizer(max_iterations=60))
        result = qaoa.run(seed=1)
        assert result.best_energy >= qaoa.hamiltonian.ground_state_energy() - 1e-9

    def test_most_probable_bitstring_is_valid(self):
        graph = ring_graph(4)
        qaoa = QAOA(graph, depth=1)
        bits = qaoa.most_probable_bitstring([0.4, 0.3])
        assert len(bits) == 4
        assert set(bits) <= {0, 1}

    def test_cut_of_reported_bitstring_matches_best_cut(self):
        graph = ring_graph(6)
        qaoa = QAOA(graph, depth=1, optimizer=CobylaOptimizer(max_iterations=80))
        result = qaoa.run(seed=5)
        assert cut_value(graph, result.best_bitstring) == result.best_cut

    def test_noisy_evaluator_can_be_injected(self):
        """QAOA accepts the density-matrix evaluator used for regime studies."""
        graph = ring_graph(4)
        hamiltonian = maxcut_cost_hamiltonian(graph)
        evaluator = BackendEnergyEvaluator.density_matrix(hamiltonian,
                                                 NISQRegime().noise_model())
        qaoa = QAOA(graph, depth=1, evaluator=evaluator,
                    optimizer=CobylaOptimizer(max_iterations=30))
        result = qaoa.run(seed=2)
        assert result.best_energy >= hamiltonian.ground_state_energy() - 1e-9
        assert evaluator.num_evaluations > 0
