"""Cross-validation tests for the statevector, density-matrix, stabilizer and
Pauli-propagation simulators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import QuantumCircuit
from repro.operators import PauliString, PauliSum, ising_hamiltonian
from repro.simulators import (DenseStabilizerState, DensityMatrix,
                              DensityMatrixSimulator, NoiseModel,
                              PauliChannel, StabilizerSimulator,
                              StabilizerState,
                              Statevector, StatevectorSimulator,
                              depolarizing_channel, expectation_value)
from repro.simulators.statevector import circuit_unitary


def bell_circuit():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    return qc


def ghz_circuit(n):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


class TestStatevector:
    def test_zero_state_probabilities(self):
        state = Statevector.zero_state(3)
        probs = state.probabilities()
        assert probs[0] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_bell_state_amplitudes(self):
        state = StatevectorSimulator().run(bell_circuit())
        np.testing.assert_allclose(
            np.abs(state.data) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_x_gate_targets_correct_qubit(self):
        qc = QuantumCircuit(3)
        qc.x(1)
        state = StatevectorSimulator().run(qc)
        assert abs(state.data[2]) == pytest.approx(1.0)  # bit 1 set -> index 2

    def test_cx_control_target_orientation(self):
        qc = QuantumCircuit(2)
        qc.x(0).cx(0, 1)
        state = StatevectorSimulator().run(qc)
        assert abs(state.data[3]) == pytest.approx(1.0)

    def test_ghz_expectation_values(self):
        state = StatevectorSimulator().run(ghz_circuit(4))
        obs = PauliSum.from_label_dict({"ZZZZ": 1.0, "XXXX": 1.0, "ZIII": 1.0})
        assert state.expectation(obs) == pytest.approx(2.0)

    def test_sampling_distribution(self):
        counts = StatevectorSimulator(seed=1).sample(bell_circuit(), shots=4000)
        assert set(counts) <= {"00", "11"}
        assert counts["00"] == pytest.approx(2000, abs=200)

    def test_circuit_unitary_matches_matrix_product(self):
        qc = QuantumCircuit(1)
        qc.h(0).s(0)
        from repro.circuits.gates import H_MATRIX, S_MATRIX
        np.testing.assert_allclose(circuit_unitary(qc), S_MATRIX @ H_MATRIX,
                                   atol=1e-12)

    def test_fidelity_between_states(self):
        a = StatevectorSimulator().run(bell_circuit())
        b = Statevector.zero_state(2)
        assert a.fidelity(b) == pytest.approx(0.5)


class TestDensityMatrix:
    def test_pure_state_purity(self):
        dm = DensityMatrixSimulator().run(bell_circuit())
        assert dm.purity() == pytest.approx(1.0)
        assert dm.trace() == pytest.approx(1.0)

    def test_matches_statevector_expectation(self):
        qc = QuantumCircuit(3)
        qc.rx(0.4, 0).ry(0.9, 1).cx(0, 1).rz(0.3, 2).cx(1, 2)
        obs = ising_hamiltonian(3, 0.7)
        sv = StatevectorSimulator().expectation(qc, obs)
        dm = DensityMatrixSimulator().expectation(qc, obs)
        assert dm == pytest.approx(sv, abs=1e-10)

    def test_depolarizing_noise_reduces_purity(self):
        noise = NoiseModel().add_gate_error(depolarizing_channel(0.2, 2), ["cx"])
        dm = DensityMatrixSimulator(noise).run(bell_circuit())
        assert dm.purity() < 1.0

    def test_full_depolarizing_gives_maximally_mixed(self):
        noise = NoiseModel().add_gate_error(depolarizing_channel(1.0, 1), ["h"])
        qc = QuantumCircuit(1)
        qc.h(0)
        dm = DensityMatrixSimulator(noise).run(qc)
        # With probability 1 a uniformly random non-identity Pauli is applied
        # to |+⟩: X keeps ⟨X⟩ = +1, Y and Z flip it, so ⟨X⟩ = −1/3.
        assert dm.expectation(PauliSum.from_label_dict({"X": 1.0})) == pytest.approx(
            -1.0 / 3.0, abs=1e-9)

    def test_readout_error_damps_z_expectation(self):
        noise = NoiseModel().add_readout_error(0.1)
        qc = QuantumCircuit(1)
        qc.x(0)
        obs = PauliSum.from_label_dict({"Z": 1.0})
        value = DensityMatrixSimulator(noise).expectation(qc, obs)
        assert value == pytest.approx(-0.8)

    def test_reset_instruction(self):
        qc = QuantumCircuit(1)
        qc.x(0).reset(0)
        dm = DensityMatrixSimulator().run(qc)
        assert dm.probabilities()[0] == pytest.approx(1.0)

    def test_from_statevector_roundtrip(self):
        state = StatevectorSimulator().run(ghz_circuit(3))
        dm = DensityMatrix.from_statevector(state)
        assert dm.fidelity_with_pure_state(state) == pytest.approx(1.0)


class TestStabilizer:
    def test_bell_state_stabilizer_expectations(self):
        state = StabilizerSimulator().run(bell_circuit())
        assert state.expectation_pauli(PauliString("XX")) == pytest.approx(1.0)
        assert state.expectation_pauli(PauliString("ZZ")) == pytest.approx(1.0)
        assert state.expectation_pauli(PauliString("YY")) == pytest.approx(-1.0)
        assert state.expectation_pauli(PauliString("ZI")) == pytest.approx(0.0)

    def test_deterministic_measurement(self):
        state = StabilizerState(2)
        state.apply_x(0)
        assert state.measure(0) == 1
        assert state.measure(1) == 0

    def test_random_measurement_collapses(self):
        rng = np.random.default_rng(0)
        state = StabilizerState(1)
        state.apply_h(0)
        outcome = state.measure(0, rng)
        assert state.measure(0, rng) == outcome

    def test_pauli_error_flips_expectation(self):
        state = StabilizerSimulator().run(bell_circuit())
        state.apply_pauli(PauliString("IZ"))
        assert state.expectation_pauli(PauliString("XX")) == pytest.approx(-1.0)

    def test_clifford_rz_angles(self):
        qc = QuantumCircuit(1)
        qc.h(0).rz(math.pi / 2, 0)
        state = StabilizerSimulator().run(qc)
        assert state.expectation_pauli(PauliString("Y")) == pytest.approx(1.0)

    def test_non_clifford_angle_rejected(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        with pytest.raises(ValueError):
            StabilizerSimulator().run(qc)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_random_clifford_circuit_matches_statevector(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = 3
        qc = QuantumCircuit(num_qubits)
        gates = ["h", "s", "sdg", "x", "y", "z", "cx", "cz"]
        for _ in range(12):
            name = gates[rng.integers(0, len(gates))]
            if name in ("cx", "cz"):
                a, b = rng.choice(num_qubits, size=2, replace=False)
                getattr(qc, name)(int(a), int(b))
            else:
                getattr(qc, name)(int(rng.integers(0, num_qubits)))
        observable = ising_hamiltonian(num_qubits, 1.0)
        sv = StatevectorSimulator().expectation(qc, observable)
        stab = StabilizerSimulator().run(qc).expectation(observable)
        assert stab == pytest.approx(sv, abs=1e-8)

    def test_sampling_with_readout_error(self):
        noise = NoiseModel().add_readout_error(1.0)
        counts = StabilizerSimulator(noise, seed=0).sample(QuantumCircuit(2), shots=10)
        assert counts == {"11": 10}


class TestPauliPropagation:
    def test_matches_stabilizer_noiseless(self):
        qc = ghz_circuit(4)
        observable = ising_hamiltonian(4, 0.5)
        stab = StabilizerSimulator().run(qc).expectation(observable)
        assert expectation_value(qc, observable) == pytest.approx(stab, abs=1e-10)

    def test_matches_density_matrix_with_pauli_noise(self):
        qc = ghz_circuit(3)
        observable = ising_hamiltonian(3, 1.0)
        noise = (NoiseModel()
                 .add_gate_error(depolarizing_channel(0.05, 2), ["cx"])
                 .add_gate_error(depolarizing_channel(0.02, 1), ["h"])
                 .add_readout_error(0.03))
        qc_measured = qc.copy().measure_all()
        dm = DensityMatrixSimulator(noise).expectation(qc_measured, observable)
        pp = expectation_value(qc_measured, observable, noise)
        assert pp == pytest.approx(dm, abs=1e-10)

    def test_bit_flip_before_measurement_damps_supported_terms_only(self):
        qc = QuantumCircuit(2)
        qc.x(0).measure_all()
        noise = NoiseModel().add_readout_error(0.25)
        z0 = PauliSum.from_label_dict({"ZI": 1.0})
        z1 = PauliSum.from_label_dict({"IZ": 1.0})
        assert expectation_value(qc, z0, noise) == pytest.approx(-0.5)
        assert expectation_value(qc, z1, noise) == pytest.approx(0.5)

    def test_idle_noise_locations_are_applied(self):
        qc = QuantumCircuit(2)
        qc.x(0)  # qubit 1 idles in this layer
        noise = NoiseModel().add_idle_error(depolarizing_channel(0.3, 1))
        observable = PauliSum.from_label_dict({"IZ": 1.0})
        value = expectation_value(qc, observable, noise)
        assert value == pytest.approx(1.0 - 0.3 * 4.0 / 3.0, abs=1e-12)

    def test_non_clifford_rotation_rejected(self):
        qc = QuantumCircuit(1)
        qc.rz(0.1, 0)
        with pytest.raises(ValueError):
            expectation_value(qc, PauliSum.from_label_dict({"Z": 1.0}))

    def test_monte_carlo_stabilizer_agrees_statistically(self):
        qc = ghz_circuit(3)
        observable = PauliSum.from_label_dict({"ZZI": 1.0})
        noise = NoiseModel().add_gate_error(depolarizing_channel(0.1, 2), ["cx"])
        exact = expectation_value(qc, observable, noise)
        sampled = StabilizerSimulator(noise, seed=11).expectation(
            qc, observable, trajectories=600)
        assert sampled == pytest.approx(exact, abs=0.1)


class TestSqrtXGates:
    """``sx``/``sxdg`` are Clifford, so auto-routing sends them to the
    Clifford engines; both must run them natively, with one noise location
    per gate."""

    LABELS = ("ZI", "XI", "YI", "IZ", "ZZ", "XY", "YZ")

    @staticmethod
    def circuit(gates):
        qc = QuantumCircuit(2)
        qc.h(1).cx(1, 0)
        for name in gates:
            getattr(qc, name)(0)
        qc.s(1).sx(1).cz(0, 1)
        return qc

    @pytest.mark.parametrize("gates", [("sx",), ("sxdg",), ("sx", "sx"),
                                       ("sx", "h", "sxdg"), ("s", "sxdg"),
                                       ("sxdg", "sxdg", "sxdg")])
    def test_noiseless_engines_match_statevector(self, gates):
        qc = self.circuit(gates)
        state = StabilizerSimulator().run(qc)
        for label in self.LABELS:
            observable = PauliSum.from_label_dict({label: 1.0})
            exact = StatevectorSimulator().expectation(qc, observable)
            assert expectation_value(qc, observable) \
                == pytest.approx(exact, abs=1e-12)
            assert state.expectation(observable) \
                == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("gates", [("sx",), ("sxdg", "sx"),
                                       ("h", "sxdg")])
    def test_noisy_pauli_propagation_matches_density_matrix(self, gates):
        qc = self.circuit(gates).measure_all()
        noise = (NoiseModel()
                 .add_gate_error(depolarizing_channel(0.07, 1), ["sx"])
                 .add_gate_error(depolarizing_channel(0.03, 1), ["sxdg", "h"])
                 .add_gate_error(depolarizing_channel(0.02, 2), ["cx", "cz"])
                 .add_readout_error(0.04))
        observable = PauliSum.from_label_dict(
            {label: 0.3 + index for index, label in enumerate(self.LABELS)})
        exact = DensityMatrixSimulator(noise).expectation(qc, observable)
        assert expectation_value(qc, observable, noise) \
            == pytest.approx(exact, abs=1e-10)

    def test_stabilizer_keeps_one_noise_location_per_gate(self):
        # An X error with probability 1 after every sx: trajectories are
        # deterministic, so one location per gate reproduces the density
        # matrix exactly (an expansion into h·s·h would change the count).
        qc = QuantumCircuit(1)
        qc.sx(0).sx(0).sxdg(0)
        noise = NoiseModel().add_gate_error(
            PauliChannel({"X": 1.0}), ["sx", "sxdg"])
        for label in ("Z", "Y", "X"):
            observable = PauliSum.from_label_dict({label: 1.0})
            exact = DensityMatrixSimulator(noise).expectation(qc, observable)
            sampled = StabilizerSimulator(noise, seed=3).expectation(
                qc, observable, trajectories=4)
            assert sampled == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("backend", ["pauli_propagation", "stabilizer",
                                         "auto"])
    def test_execution_backends_run_sx(self, backend):
        from repro.execution import Executor
        qc = QuantumCircuit(1)
        qc.sx(0)
        observable = PauliSum.from_label_dict({"Z": 1.0, "Y": 0.5})
        [value] = Executor(use_cache=False).evaluate_observable(
            qc, observable, backend=backend)
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_native_on_the_tableau_path(self):
        from repro.execution.adapters import _canonicalize_if_needed
        qc = QuantumCircuit(1)
        qc.sx(0).sxdg(0)
        assert _canonicalize_if_needed(qc) is qc


class TestStabilizerMeasureRegression:
    """Regression: measuring a qubit whose paired destabilizer also carries
    an X at that qubit crashed pre-PR-7 with "rowsum produced imaginary
    phase".  The Aaronson–Gottesman update must skip row p−n (it always
    anticommutes with stabilizer row p and is overwritten right after)."""

    @pytest.mark.parametrize("cls", [StabilizerState, DenseStabilizerState])
    def test_s_h_measure_does_not_crash(self, cls):
        state = cls(1)
        state.apply_s(0)
        state.apply_h(0)
        # Both tableau rows carry an X at qubit 0 — the crash condition.
        assert state.x[0, 0] == 1 and state.x[1, 0] == 1
        outcome = state.measure(0, np.random.default_rng(3))
        assert outcome in (0, 1)
        assert [str(s) for s in state.stabilizer_strings()] \
            == [("-Z" if outcome else "+Z")]

    def test_packed_and_dense_agree_through_the_fixed_path(self):
        for seed in range(8):
            packed, dense = StabilizerState(1), DenseStabilizerState(1)
            for state in (packed, dense):
                state.apply_s(0)
                state.apply_h(0)
            assert packed.measure(0, np.random.default_rng(seed)) \
                == dense.measure(0, np.random.default_rng(seed))
            assert np.array_equal(packed.x, dense.x)
            assert np.array_equal(packed.z, dense.z)
            assert np.array_equal(packed.r, dense.r)
