"""Tests for VarSaw-style readout mitigation."""

import numpy as np
import pytest

from repro.ansatz import LinearAnsatz
from repro.core import PQECRegime
from repro.mitigation import (MitigatedEnergyEvaluator, ReadoutCalibration,
                              VarSawMitigator)
from repro.operators import PauliString, ising_hamiltonian
from repro.simulators import NoiseModel, depolarizing_channel
from repro.vqe import BackendEnergyEvaluator, indices_to_angles


class TestReadoutCalibration:
    def test_uniform_calibration(self):
        calibration = ReadoutCalibration.uniform(3, 0.02)
        assert calibration.num_qubits == 3
        assert calibration.damping_factor(PauliString("ZZI")) == pytest.approx(
            (1 - 0.04) ** 2)

    def test_identity_term_not_damped(self):
        calibration = ReadoutCalibration.uniform(2, 0.1)
        assert calibration.damping_factor(PauliString("II")) == pytest.approx(1.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ReadoutCalibration.uniform(2, 0.6)

    def test_from_noise_model(self):
        noise = NoiseModel().add_readout_error(0.05)
        calibration = ReadoutCalibration.from_noise_model(4, noise)
        assert calibration.flip_probabilities == (0.05,) * 4


class TestVarSawMitigator:
    def test_correct_term_inverts_attenuation(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        mitigator = VarSawMitigator(hamiltonian, ReadoutCalibration.uniform(3, 0.05))
        pauli = PauliString.single(3, 0, "Z")
        attenuated = 0.8 * (1 - 0.1)
        assert mitigator.correct_term(pauli, attenuated) == pytest.approx(0.8)

    def test_correction_is_clipped_to_physical_range(self):
        hamiltonian = ising_hamiltonian(2, 1.0)
        mitigator = VarSawMitigator(hamiltonian, ReadoutCalibration.uniform(2, 0.2))
        assert abs(mitigator.correct_term(PauliString("ZZ"), 0.99)) <= 1.0

    def test_measurement_groups_cover_hamiltonian(self):
        hamiltonian = ising_hamiltonian(4, 0.5)
        mitigator = VarSawMitigator(hamiltonian, ReadoutCalibration.uniform(4, 0.01))
        assert mitigator.num_measurement_groups >= 2


class TestMitigatedEvaluator:
    def _setup(self, readout=0.08):
        hamiltonian = ising_hamiltonian(4, 1.0)
        ansatz = LinearAnsatz(4)
        angles = indices_to_angles([1, 0, 2, 1, 0, 3, 2, 1])
        circuit = ansatz.bound_circuit(angles)
        noise = NoiseModel().add_readout_error(readout)
        return hamiltonian, circuit, noise

    def test_mitigation_recovers_readout_free_energy_clifford(self):
        hamiltonian, circuit, noise = self._setup()
        noisy = BackendEnergyEvaluator.clifford(hamiltonian, noise)
        mitigated = MitigatedEnergyEvaluator(noisy)
        ideal = BackendEnergyEvaluator.clifford(hamiltonian, None)(circuit)
        assert mitigated(circuit) == pytest.approx(ideal, abs=1e-6)

    def test_mitigation_recovers_readout_free_energy_density_matrix(self):
        hamiltonian, circuit, noise = self._setup()
        noisy = BackendEnergyEvaluator.density_matrix(hamiltonian, noise)
        mitigated = MitigatedEnergyEvaluator(noisy)
        ideal = BackendEnergyEvaluator.density_matrix(hamiltonian, None)(circuit)
        assert mitigated(circuit) == pytest.approx(ideal, abs=1e-6)

    def test_mitigation_moves_estimate_toward_readout_free_value(self):
        """The Fig. 15 mechanism: correcting readout attenuation recovers the
        energy the circuit would report with perfect measurement."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        ansatz = LinearAnsatz(4)
        rng = np.random.default_rng(2)
        circuit = ansatz.bound_circuit(
            indices_to_angles(rng.integers(0, 4, ansatz.num_parameters())))
        gate_noise = NoiseModel().add_gate_error(depolarizing_channel(1e-3, 2),
                                                 ["cx"])
        full_noise = (NoiseModel()
                      .add_gate_error(depolarizing_channel(1e-3, 2), ["cx"])
                      .add_readout_error(0.05))
        readout_free = BackendEnergyEvaluator.clifford(hamiltonian, gate_noise)(circuit)
        unmitigated = BackendEnergyEvaluator.clifford(hamiltonian, full_noise)(circuit)
        mitigated = MitigatedEnergyEvaluator(
            BackendEnergyEvaluator.clifford(hamiltonian, full_noise))(circuit)
        assert abs(mitigated - readout_free) <= abs(unmitigated - readout_free) + 1e-9

    def test_works_for_pqec_regime_too(self):
        hamiltonian, circuit, _ = self._setup()
        noise = PQECRegime().noise_model()
        base = BackendEnergyEvaluator.clifford(hamiltonian, noise)
        mitigated = MitigatedEnergyEvaluator(base)
        assert isinstance(mitigated(circuit), float)
