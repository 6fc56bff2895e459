"""Tests for gate definitions and their unitary matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits.gates import (CX_MATRIX, Gate, H_MATRIX, S_MATRIX,
                                  T_MATRIX, controlled_on_matrix, gate_arity,
                                  gate_fidelity, is_clifford_angle,
                                  parametric_matrix, rx_matrix,
                                  ry_matrix, rz_matrix, rzz_matrix, u3_matrix,
                                  X_MATRIX, Z_MATRIX)
from repro.circuits.parameters import Parameter


def assert_unitary(matrix):
    dim = matrix.shape[0]
    np.testing.assert_allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-10)


class TestStaticMatrices:
    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "s", "sdg", "t", "tdg",
                                      "sx", "cx", "cz", "swap"])
    def test_all_static_gates_are_unitary(self, name):
        assert_unitary(Gate(name).matrix())

    def test_hadamard_squares_to_identity(self):
        np.testing.assert_allclose(H_MATRIX @ H_MATRIX, np.eye(2), atol=1e-12)

    def test_s_squared_is_z(self):
        np.testing.assert_allclose(S_MATRIX @ S_MATRIX, Z_MATRIX, atol=1e-12)

    def test_t_squared_is_s(self):
        np.testing.assert_allclose(T_MATRIX @ T_MATRIX, S_MATRIX, atol=1e-12)

    def test_cx_little_endian_control_is_bit_zero(self):
        # |control=1, target=0> is index 1; CX maps it to |1,1> = index 3.
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        out = CX_MATRIX @ state
        assert abs(out[3]) == pytest.approx(1.0)

    def test_controlled_on_matrix_matches_cx_for_x(self):
        np.testing.assert_allclose(controlled_on_matrix(X_MATRIX), CX_MATRIX,
                                   atol=1e-12)


class TestRotations:
    @given(theta=st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    def test_rotations_are_unitary(self, theta):
        for build in (rx_matrix, ry_matrix, rz_matrix, rzz_matrix):
            assert_unitary(build(theta))

    def test_rz_pi_equals_z_up_to_phase(self):
        rz = rz_matrix(math.pi)
        phase = rz[0, 0] / Z_MATRIX[0, 0]
        np.testing.assert_allclose(rz, phase * Z_MATRIX, atol=1e-12)

    def test_rx_pi_equals_x_up_to_phase(self):
        rx = rx_matrix(math.pi)
        phase = rx[0, 1] / X_MATRIX[0, 1]
        np.testing.assert_allclose(rx, phase * X_MATRIX, atol=1e-12)

    def test_u3_reduces_to_ry(self):
        np.testing.assert_allclose(u3_matrix(0.7, 0.0, 0.0), ry_matrix(0.7),
                                   atol=1e-12)

    @given(theta=st.floats(-6, 6, allow_nan=False))
    def test_rotation_composition_adds_angles(self, theta):
        np.testing.assert_allclose(rz_matrix(theta) @ rz_matrix(-theta), np.eye(2),
                                   atol=1e-10)


class TestParametricMatrixMemo:
    @pytest.mark.parametrize("name", ["rx", "rz", "rzz"])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_angles_keep_their_own_matrix(self, name, first):
        """0.0 == -0.0, but the memo must not serve one zero's matrix for
        the other: their zero parts differ in sign."""
        build = {"rx": rx_matrix, "rz": rz_matrix, "rzz": rzz_matrix}[name]
        second = -first
        parametric_matrix(name, (first,))
        for angle in (first, second):
            assert parametric_matrix(name, (angle,)).tobytes() == \
                build(angle).tobytes()


class TestGateClassification:
    def test_clifford_angle_detection(self):
        assert is_clifford_angle(0.0)
        assert is_clifford_angle(math.pi / 2)
        assert is_clifford_angle(-3 * math.pi / 2)
        assert not is_clifford_angle(math.pi / 4)

    def test_rz_gate_cliffordness_depends_on_angle(self):
        assert Gate("rz", (math.pi,)).is_clifford
        assert not Gate("rz", (math.pi / 3,)).is_clifford

    def test_t_gate_is_not_clifford(self):
        assert not Gate("t").is_clifford

    def test_parameterized_gate_is_not_clifford(self):
        theta = Parameter("theta")
        assert not Gate("rz", (theta,)).is_clifford
        assert Gate("rz", (theta,)).is_parameterized

    def test_gate_arity(self):
        assert gate_arity("h") == 1
        assert gate_arity("cx") == 2
        with pytest.raises(ValueError):
            gate_arity("toffoli")

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(ValueError):
            Gate("rz", ())
        with pytest.raises(ValueError):
            Gate("h", (1.0,))

    def test_gate_inverse_roundtrip(self):
        for name in ("h", "s", "t", "x", "cx"):
            gate = Gate(name)
            product = gate.inverse().matrix() @ gate.matrix()
            np.testing.assert_allclose(product, np.eye(product.shape[0]), atol=1e-12)

    def test_rotation_inverse_negates_angle(self):
        gate = Gate("rz", (0.3,))
        np.testing.assert_allclose(gate.inverse().matrix() @ gate.matrix(),
                                   np.eye(2), atol=1e-12)

    def test_bind_resolves_symbolic_parameter(self):
        theta = Parameter("theta")
        gate = Gate("rz", (theta,)).bind({theta: math.pi})
        assert gate.is_clifford


class TestGateFidelity:
    def test_identical_unitaries_have_unit_fidelity(self):
        assert gate_fidelity(H_MATRIX, H_MATRIX) == pytest.approx(1.0)

    def test_orthogonal_unitaries_have_low_fidelity(self):
        value = gate_fidelity(X_MATRIX, Z_MATRIX)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            gate_fidelity(H_MATRIX, CX_MATRIX)
