"""Tests for Kraus channels, Pauli twirling and the NoiseModel container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import QuantumCircuit
from repro.simulators.noise import (NoiseModel, PauliChannel, QuantumChannel,
                                    amplitude_damping_channel,
                                    bit_flip_channel, depolarizing_channel,
                                    pauli_error_channel, pauli_twirl,
                                    phase_flip_channel,
                                    thermal_relaxation_channel,
                                    two_qubit_tensor_channel)


class TestChannels:
    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError):
            QuantumChannel([np.array([[1.0, 0.0], [0.0, 0.5]])])

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_depolarizing_preserves_trace(self, p):
        channel = depolarizing_channel(p, 1)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        out = channel.apply_to_density_matrix(rho)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_depolarizing_two_qubit_error_probability(self):
        channel = depolarizing_channel(0.15, 2)
        assert channel.error_probability() == pytest.approx(0.15)
        assert channel.num_qubits == 2

    def test_bit_flip_flips_z_expectation(self):
        channel = bit_flip_channel(0.25)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = channel.apply_to_density_matrix(rho)
        z_expectation = out[0, 0].real - out[1, 1].real
        assert z_expectation == pytest.approx(0.5)

    def test_phase_flip_leaves_populations(self):
        channel = phase_flip_channel(0.3)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0].real == pytest.approx(0.5)
        assert out[0, 1].real == pytest.approx(0.5 * (1 - 2 * 0.3))

    def test_amplitude_damping_decays_excited_state(self):
        channel = amplitude_damping_channel(0.4)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0].real == pytest.approx(0.4)

    def test_thermal_relaxation_requires_physical_times(self):
        with pytest.raises(ValueError):
            thermal_relaxation_channel(t1=1.0, t2=3.0, gate_time=0.1)

    def test_thermal_relaxation_coherence_decay(self):
        t1, t2, duration = 100e-6, 80e-6, 1e-6
        channel = thermal_relaxation_channel(t1, t2, duration)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = channel.apply_to_density_matrix(plus)
        assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-duration / t2), rel=1e-6)

    def test_pauli_error_channel_probabilities(self):
        channel = pauli_error_channel(0.1, 0.0, 0.2)
        probs = channel.probabilities
        assert probs["X"] == pytest.approx(0.1)
        assert probs["Z"] == pytest.approx(0.2)
        assert probs["I"] == pytest.approx(0.7)

    def test_invalid_probability_sum_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"X": 0.7, "Z": 0.6})

    def test_tensor_channel_acts_independently(self):
        channel = two_qubit_tensor_channel(bit_flip_channel(0.5), bit_flip_channel(0.0))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = channel.apply_to_density_matrix(rho)
        # Qubit 0 (the first factor, least-significant bit) flips with p=0.5.
        assert out[1, 1].real == pytest.approx(0.5)
        assert out[2, 2].real == pytest.approx(0.0)

    def test_channel_composition(self):
        channel = bit_flip_channel(0.5).compose(bit_flip_channel(0.5))
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0].real == pytest.approx(0.5)


class TestPauliTwirl:
    def test_twirl_of_pauli_channel_is_exact(self):
        channel = pauli_error_channel(0.05, 0.02, 0.03)
        twirled = pauli_twirl(channel)
        for label, probability in channel.probabilities.items():
            assert twirled.probabilities[label] == pytest.approx(probability, abs=1e-10)

    def test_twirl_of_amplitude_damping_is_stochastic(self):
        twirled = pauli_twirl(amplitude_damping_channel(0.2))
        probs = twirled.probabilities
        assert probs["I"] == pytest.approx(max(probs.values()))
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs["X"] == pytest.approx(probs["Y"], abs=1e-10)

    def test_depolarizing_twirl_probabilities_uniform(self):
        twirled = pauli_twirl(depolarizing_channel(0.3, 1))
        assert twirled.probabilities["X"] == pytest.approx(0.1)


class TestChannelMemos:
    """Derived channel forms are computed once and never leak or grow."""

    def _channels(self):
        return [amplitude_damping_channel(0.2), depolarizing_channel(0.01, 2),
                thermal_relaxation_channel(1.2e-3, 1e-3, 3e-7),
                pauli_error_channel(0.05, 0.02, 0.03)]

    def test_kraus_operators_are_read_only_copies(self):
        source = np.array([[1, 0], [0, 1]], dtype=complex)
        channel = QuantumChannel([source])
        assert source.flags.writeable  # the caller's array is not frozen
        for op in self._channels()[0].kraus_operators + \
                channel.kraus_operators:
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 0.0

    def test_superoperator_is_memoized_and_matches_kraus_sum(self):
        for channel in self._channels():
            superoperator = channel.superoperator()
            assert channel.superoperator() is superoperator
            assert not superoperator.flags.writeable
            expected = sum(np.kron(k, k.conj())
                           for k in channel.kraus_operators)
            np.testing.assert_allclose(superoperator, expected, atol=1e-15)

    def test_pauli_twirl_is_memoized(self):
        for channel in self._channels():
            assert pauli_twirl(channel) is pauli_twirl(channel)

    def test_renamed_channel_twirls_under_its_new_name(self):
        channel = amplitude_damping_channel(0.2)
        first = pauli_twirl(channel)
        channel.name = "t1_decay"
        second = pauli_twirl(channel)
        assert second.name == "twirl(t1_decay)"
        assert second.probabilities == first.probabilities

    def test_mutating_returned_probabilities_leaves_memo_intact(self):
        for channel in self._channels():
            probabilities = channel.pauli_twirl_probabilities()
            expected = dict(probabilities)
            probabilities["I"] = -1.0
            probabilities.clear()
            assert channel.pauli_twirl_probabilities() == expected

    def test_fingerprint_serialization_and_pickle_unchanged_by_memos(self):
        import pickle
        from repro.io.serialization import channel_from_dict, channel_to_dict
        for channel in self._channels():
            fingerprint = channel.fingerprint()
            payload = channel_to_dict(channel)
            pickled = pickle.dumps(channel)
            channel.superoperator()
            pauli_twirl(channel)
            assert channel.fingerprint() == fingerprint
            assert channel_to_dict(channel) == payload
            assert channel_from_dict(payload).fingerprint() == fingerprint
            assert pickle.dumps(channel) == pickled
            restored = pickle.loads(pickled)
            assert restored.fingerprint() == fingerprint
            assert not restored.kraus_operators[0].flags.writeable
            np.testing.assert_array_equal(restored.superoperator(),
                                          channel.superoperator())
        # Pinned digest: Kraus bytes, not memos, define a channel's identity.
        assert depolarizing_channel(0.01, 2).fingerprint() == \
            "119ce5971a29470452eaa1b37afba85c"


class TestNoiseModel:
    def test_gate_error_locations(self):
        noise = NoiseModel().add_gate_error(depolarizing_channel(0.01, 2), ["cx"])
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).cx(0, 1)
        locations = noise.error_locations(qc)
        assert len(locations) == 2
        assert all(loc.kind == "gate" for loc in locations)

    def test_wrong_arity_channel_rejected(self):
        noise = NoiseModel().add_gate_error(depolarizing_channel(0.01, 1), ["cx"])
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        with pytest.raises(ValueError):
            noise.error_locations(qc)

    def test_idle_locations_cover_unused_qubits(self):
        noise = NoiseModel().add_idle_error(depolarizing_channel(0.01, 1))
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        locations = noise.error_locations(qc)
        idle = [loc for loc in locations if loc.kind == "idle"]
        assert len(idle) == 1
        assert idle[0].qubits == (2,)

    def test_readout_error_creates_measure_locations(self):
        noise = NoiseModel().add_readout_error(0.05)
        qc = QuantumCircuit(2)
        qc.measure_all()
        locations = noise.error_locations(qc)
        assert len([loc for loc in locations if loc.kind == "measure"]) == 2

    def test_has_noise(self):
        assert not NoiseModel().has_noise()
        assert NoiseModel().add_readout_error(0.1).has_noise()

    def test_invalid_readout_probability(self):
        with pytest.raises(ValueError):
            NoiseModel().add_readout_error(1.5)
