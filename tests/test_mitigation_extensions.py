"""Tests for DD, CAFQA and QISMET mitigation."""

import math

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz, LinearAnsatz
from repro.circuits.circuit import QuantumCircuit
from repro.mitigation.cafqa import (CAFQABootstrappedVQE, cafqa_initialization,
                                    compare_initializations)
from repro.mitigation.dynamical_decoupling import (DD_SEQUENCES,
                                                   DynamicalDecouplingSelector,
                                                   dd_pulse_count, idle_windows,
                                                   insert_dd_sequences,
                                                   schedule_with_idle_drift,
                                                   total_idle_slots)
from repro.mitigation.qismet import (QISMETController, TransientNoiseInjector)
from repro.operators.hamiltonians import ising_hamiltonian
from repro.simulators.statevector import StatevectorSimulator, circuit_unitary
from repro.vqe.energy import BackendEnergyEvaluator
from repro.vqe.optimizers import CobylaOptimizer, GeneticOptimizer


# ---------------------------------------------------------------------------
# Dynamical decoupling
# ---------------------------------------------------------------------------

def _staircase_circuit(num_qubits: int = 3, steps: int = 4) -> QuantumCircuit:
    """A circuit where qubit 0 works while the others idle for several layers."""
    circuit = QuantumCircuit(num_qubits)
    circuit.h(1)
    for _ in range(steps):
        circuit.rz(0.3, 0)
        circuit.x(0)
    circuit.cx(1, 2)
    return circuit


class TestDynamicalDecoupling:
    def test_idle_windows_detects_idle_qubits(self):
        windows = idle_windows(_staircase_circuit())
        assert windows, "the staircase circuit has idle qubits"
        assert all(1 in idle or 2 in idle for _, idle in windows)

    def test_total_idle_slots_positive(self):
        assert total_idle_slots(_staircase_circuit()) > 0

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError):
            insert_dd_sequences(_staircase_circuit(), "cpmg99")

    def test_none_sequence_adds_nothing(self):
        circuit = _staircase_circuit()
        assert insert_dd_sequences(circuit, "none").size() == circuit.size()

    def test_xx_insertion_adds_even_pulse_count(self):
        circuit = _staircase_circuit()
        count = dd_pulse_count(circuit, "xx")
        assert count > 0 and count % 2 == 0
        decorated = insert_dd_sequences(circuit, "xx")
        assert decorated.size() == circuit.size() + count

    def test_xy4_pulse_count_is_multiple_of_four(self):
        count = dd_pulse_count(_staircase_circuit(steps=9), "xy4")
        assert count > 0 and count % 4 == 0

    @pytest.mark.parametrize("sequence", ["xx", "xy4"])
    def test_insertion_preserves_ideal_unitary(self, sequence):
        circuit = _staircase_circuit(steps=9)
        decorated = insert_dd_sequences(circuit, sequence)
        actual, target = circuit_unitary(decorated), circuit_unitary(circuit)
        # Operator-norm distance up to the global phase of tr(target† actual).
        overlap = np.vdot(target, actual)
        distance = np.linalg.norm(actual - overlap / abs(overlap) * target, ord=2)
        assert distance < 1e-9

    def test_xx_echo_cancels_coherent_drift(self):
        """With drift on idle slots, the XX-protected circuit stays closer to
        the ideal expectation value than the unprotected one."""
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        circuit = _staircase_circuit(steps=8)
        simulator = StatevectorSimulator()
        ideal = simulator.expectation(circuit, hamiltonian)
        drifted_plain = simulator.expectation(
            schedule_with_idle_drift(circuit, 0.25, "none"), hamiltonian)
        drifted_dd = simulator.expectation(
            schedule_with_idle_drift(circuit, 0.25, "xx"), hamiltonian)
        assert abs(drifted_dd - ideal) <= abs(drifted_plain - ideal) + 1e-9

    def test_selector_prefers_a_protective_sequence_under_drift(self):
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        evaluator = BackendEnergyEvaluator.exact(hamiltonian)
        selector = DynamicalDecouplingSelector(evaluator, drift_angle=0.3)
        # Use a circuit whose unprotected drift raises the energy.
        circuit = _staircase_circuit(steps=8)
        result = selector.select(circuit)
        assert result.best_sequence in DD_SEQUENCES
        assert result.energies[result.best_sequence] <= result.energies["none"] + 1e-9
        assert result.improvement >= 0.0


# ---------------------------------------------------------------------------
# CAFQA
# ---------------------------------------------------------------------------

class TestCAFQA:
    def test_initialization_angles_are_clifford(self):
        hamiltonian = ising_hamiltonian(4, coupling=1.0)
        ansatz = FullyConnectedAnsatz(4, 1)
        init = cafqa_initialization(hamiltonian, ansatz,
                                    optimizer=GeneticOptimizer(
                                        population_size=12, generations=6, seed=1),
                                    seed=1)
        assert init.angles.shape == (ansatz.num_parameters(),)
        for angle in init.angles:
            assert math.isclose(angle % (math.pi / 2), 0.0, abs_tol=1e-9) or \
                math.isclose(angle % (math.pi / 2), math.pi / 2, abs_tol=1e-9)

    def test_clifford_energy_is_reachable_by_the_continuous_model(self):
        hamiltonian = ising_hamiltonian(4, coupling=1.0)
        ansatz = FullyConnectedAnsatz(4, 1)
        init = cafqa_initialization(hamiltonian, ansatz,
                                    optimizer=GeneticOptimizer(
                                        population_size=12, generations=6, seed=3),
                                    seed=3)
        evaluator = BackendEnergyEvaluator.exact(hamiltonian)
        circuit = ansatz.bound_circuit(init.angles)
        assert evaluator(circuit) == pytest.approx(init.clifford_energy, abs=1e-6)

    def test_bootstrapped_vqe_never_worse_than_its_start(self):
        hamiltonian = ising_hamiltonian(4, coupling=0.5)
        ansatz = FullyConnectedAnsatz(4, 1)
        bootstrapped = CAFQABootstrappedVQE(
            hamiltonian, ansatz,
            optimizer=CobylaOptimizer(max_iterations=80),
            clifford_optimizer=GeneticOptimizer(population_size=12,
                                                generations=6, seed=2),
            seed=2)
        result = bootstrapped.run()
        assert result.best_energy <= bootstrapped.initialization.clifford_energy + 1e-6

    def test_compare_initializations_reports_advantage(self):
        hamiltonian = ising_hamiltonian(4, coupling=1.0)
        ansatz = FullyConnectedAnsatz(4, 1)
        report = compare_initializations(
            hamiltonian, ansatz,
            evaluator_factory=lambda: BackendEnergyEvaluator.exact(hamiltonian),
            optimizer_factory=lambda: CobylaOptimizer(max_iterations=50),
            seed=5)
        assert set(report) == {"random", "cafqa", "advantage", "initialization"}
        assert report["cafqa"].best_energy <= report["random"].best_energy + 0.5


# ---------------------------------------------------------------------------
# QISMET
# ---------------------------------------------------------------------------

class TestQISMET:
    def _evaluator_pair(self, transient_probability=0.3, seed=7):
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        base = BackendEnergyEvaluator.exact(hamiltonian)
        injector = TransientNoiseInjector(base,
                                          transient_probability=transient_probability,
                                          transient_magnitude=5.0, seed=seed)
        return hamiltonian, injector

    def test_injector_adds_transients(self):
        hamiltonian, injector = self._evaluator_pair(transient_probability=1.0)
        circuit = LinearAnsatz(3, 1).bound_circuit(
            np.zeros(LinearAnsatz(3, 1).num_parameters()))
        clean = BackendEnergyEvaluator.exact(hamiltonian)(circuit)
        noisy = injector(circuit)
        assert noisy > clean + 1.0
        assert injector.transients_injected == 1

    def test_injector_probability_validation(self):
        hamiltonian = ising_hamiltonian(3)
        with pytest.raises(ValueError):
            TransientNoiseInjector(BackendEnergyEvaluator.exact(hamiltonian),
                                   transient_probability=1.5)

    def test_controller_parameter_validation(self):
        hamiltonian = ising_hamiltonian(3)
        base = BackendEnergyEvaluator.exact(hamiltonian)
        with pytest.raises(ValueError):
            QISMETController(base, threshold=0.0)
        with pytest.raises(ValueError):
            QISMETController(base, window=0)
        with pytest.raises(ValueError):
            QISMETController(base, max_retries=0)

    def test_controller_flags_and_retries_transients(self):
        _, injector = self._evaluator_pair(transient_probability=0.5, seed=3)
        controller = QISMETController(injector, threshold=1.0, max_retries=3)
        ansatz = LinearAnsatz(3, 1)
        circuit = ansatz.bound_circuit(np.zeros(ansatz.num_parameters()))
        for _ in range(20):
            controller(circuit)
        assert controller.statistics.flagged > 0
        assert controller.statistics.retries >= controller.statistics.flagged

    def test_controller_filters_transients_from_the_accepted_stream(self):
        """The values the controller hands to the optimizer track the true
        energy far better than the raw transient-corrupted stream."""
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        ansatz = LinearAnsatz(3, 1)
        circuit = ansatz.bound_circuit(0.1 * np.ones(ansatz.num_parameters()))
        true_energy = BackendEnergyEvaluator.exact(hamiltonian)(circuit)
        calls = 40

        def observed_mean(with_controller: bool, seed: int = 11) -> float:
            base = BackendEnergyEvaluator.exact(hamiltonian)
            injector = TransientNoiseInjector(base, transient_probability=0.35,
                                              transient_magnitude=6.0, seed=seed)
            evaluator = (QISMETController(injector, threshold=0.5, max_retries=3)
                         if with_controller else injector)
            values = [evaluator(circuit) for _ in range(calls)]
            return float(np.mean(values))

        raw_bias = abs(observed_mean(False) - true_energy)
        filtered_bias = abs(observed_mean(True) - true_energy)
        assert raw_bias > 0.5          # transients visibly corrupt the stream
        assert filtered_bias < 0.5 * raw_bias
