"""Tests for Pauli-string algebra and PauliSum Hamiltonians."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.operators import PauliString, PauliSum

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)
fixed_length_labels = st.text(alphabet="IXYZ", min_size=3, max_size=3)


class TestPauliString:
    def test_label_roundtrip(self):
        pauli = PauliString("XIZY")
        assert pauli.label == "XIZY"
        assert pauli.num_qubits == 4

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_single_and_sparse_constructors(self):
        assert PauliString.single(4, 2, "y").label == "IIYI"
        assert PauliString.from_sparse(4, {0: "X", 3: "Z"}).label == "XIIZ"

    def test_weight_and_support(self):
        pauli = PauliString("XIZY")
        assert pauli.weight() == 3
        assert pauli.support() == (0, 2, 3)

    def test_commutation_rules(self):
        assert PauliString("XX").commutes_with(PauliString("ZZ"))
        assert not PauliString("XI").commutes_with(PauliString("ZI"))
        assert PauliString("XI").commutes_with(PauliString("IZ"))

    def test_qubitwise_commutation(self):
        assert PauliString("XIZ").qubitwise_commutes_with(PauliString("XZI"))
        assert not PauliString("XX").qubitwise_commutes_with(PauliString("ZX"))

    def test_multiplication_phase_xy_is_iz(self):
        product = PauliString("X") * PauliString("Y")
        assert product.label == "Z"
        assert product.phase == pytest.approx(1j)

    def test_matrix_of_zz(self):
        matrix = PauliString("ZZ").to_matrix()
        np.testing.assert_allclose(matrix, np.diag([1, -1, -1, 1]), atol=1e-12)

    def test_matrix_little_endian_ordering(self):
        # "XI" acts with X on qubit 0 (least significant bit).
        matrix = PauliString("XI").to_matrix()
        state = np.zeros(4); state[0] = 1.0
        out = matrix @ state
        assert abs(out[1]) == pytest.approx(1.0)

    def test_expectation_on_plus_state(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert PauliString("X").expectation(plus).real == pytest.approx(1.0)
        assert PauliString("Z").expectation(plus).real == pytest.approx(0.0)


@given(label=pauli_labels)
@settings(max_examples=30, deadline=None)
def test_pauli_is_hermitian_and_self_inverse(label):
    pauli = PauliString(label)
    matrix = pauli.to_matrix()
    np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)
    np.testing.assert_allclose(matrix @ matrix, np.eye(matrix.shape[0]), atol=1e-12)


@given(a=fixed_length_labels, b=fixed_length_labels)
@settings(max_examples=30, deadline=None)
def test_product_matrix_matches_matrix_product(a, b):
    pa, pb = PauliString(a), PauliString(b)
    product = pa * pb
    np.testing.assert_allclose(product.to_matrix(),
                               pa.to_matrix() @ pb.to_matrix(), atol=1e-10)


@given(a=fixed_length_labels, b=fixed_length_labels)
@settings(max_examples=30, deadline=None)
def test_commutation_predicate_matches_matrices(a, b):
    pa, pb = PauliString(a), PauliString(b)
    commutator = pa.to_matrix() @ pb.to_matrix() - pb.to_matrix() @ pa.to_matrix()
    assert pa.commutes_with(pb) == np.allclose(commutator, 0.0, atol=1e-10)


class TestPauliSum:
    def test_from_label_dict_and_term_count(self):
        op = PauliSum.from_label_dict({"XX": 1.0, "ZZ": -0.5})
        assert op.num_terms == 2
        assert op.num_qubits == 2

    def test_duplicate_terms_accumulate(self):
        op = PauliSum(2)
        op.add_label("XX", 0.5).add_label("XX", 0.25)
        assert op.coefficient(PauliString("XX")) == pytest.approx(0.75)

    def test_observable_fingerprint_follows_add_term_and_simplify(self):
        from repro.execution import observable_fingerprint
        op = PauliSum.from_label_dict({"XX": 1.0, "ZZ": -0.5})
        before = observable_fingerprint(op)
        assert observable_fingerprint(op) == before  # memoized
        op.add_label("YY", 1e-15)
        grown = observable_fingerprint(op)
        assert grown != before
        assert grown == observable_fingerprint(PauliSum.from_label_dict(
            {"XX": 1.0, "ZZ": -0.5, "YY": 1e-15}))
        op.simplify()
        assert observable_fingerprint(op) == before

    def test_fingerprint_hashes_terms_in_order(self):
        import hashlib
        op = PauliSum.from_label_dict({"ZI": 0.25, "XY": -1.0 + 0.5j,
                                       "IZ": 2.0})
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(b"2")
        for pauli, coeff in op.terms():
            x_bytes, z_bytes = pauli.key()
            hasher.update(x_bytes)
            hasher.update(z_bytes)
            hasher.update(repr(complex(coeff)).encode())
        assert op.fingerprint() == hasher.hexdigest()

    def test_simplify_drops_tiny_terms(self):
        op = PauliSum(1)
        op.add_label("Z", 1e-15)
        assert op.simplify().num_terms == 0

    def test_addition_and_scalar_multiplication(self):
        a = PauliSum.from_label_dict({"X": 1.0})
        b = PauliSum.from_label_dict({"X": -1.0, "Z": 2.0})
        total = a + b
        assert total.coefficient(PauliString("Z")) == pytest.approx(2.0)
        assert abs(total.coefficient(PauliString("X"))) < 1e-12
        scaled = b * 0.5
        assert scaled.coefficient(PauliString("Z")) == pytest.approx(1.0)

    def test_operator_product_expands_correctly(self):
        a = PauliSum.from_label_dict({"X": 1.0})
        b = PauliSum.from_label_dict({"Y": 1.0})
        product = a @ b
        matrix_expected = a.to_matrix() @ b.to_matrix()
        np.testing.assert_allclose(product.to_matrix(), matrix_expected, atol=1e-12)

    def test_ground_state_energy_of_single_qubit_z(self):
        op = PauliSum.from_label_dict({"Z": 1.0})
        assert op.ground_state_energy() == pytest.approx(-1.0)

    def test_matrix_matches_sum_of_terms(self):
        op = PauliSum.from_label_dict({"XX": 0.3, "ZI": -0.7, "IY": 0.2})
        expected = (0.3 * PauliString("XX").to_matrix()
                    - 0.7 * PauliString("ZI").to_matrix()
                    + 0.2 * PauliString("IY").to_matrix())
        np.testing.assert_allclose(op.to_matrix(), expected, atol=1e-12)

    def test_expectation_matches_matrix_quadratic_form(self):
        op = PauliSum.from_label_dict({"XX": 0.3, "ZZ": -0.7})
        rng = np.random.default_rng(3)
        state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state /= np.linalg.norm(state)
        expected = float(np.real(state.conj() @ op.to_matrix() @ state))
        assert op.expectation(state) == pytest.approx(expected)

    def test_qubitwise_commuting_groups_are_valid(self):
        op = PauliSum.from_label_dict(
            {"XXI": 1.0, "IXX": 1.0, "ZZI": 1.0, "IZZ": 1.0, "XIZ": 0.5})
        groups = op.group_qubitwise_commuting()
        assert sum(len(group) for group in groups) == op.num_terms
        for group in groups:
            for i, (pa, _) in enumerate(group):
                for pb, _ in group[i + 1:]:
                    assert pa.qubitwise_commutes_with(pb)

    def test_mismatched_sizes_raise(self):
        op = PauliSum(2)
        with pytest.raises(ValueError):
            op.add_term(PauliString("XXX"), 1.0)

    def test_one_norm(self):
        op = PauliSum.from_label_dict({"X": 1.5, "Z": -0.5})
        assert op.one_norm() == pytest.approx(2.0)
