"""Tests for the QuantumCircuit IR."""

import math

import pytest

from repro.circuits import Parameter, ParameterVector, QuantumCircuit
from repro.circuits.circuit import Instruction
from repro.circuits.gates import Gate


class TestConstruction:
    def test_gate_helpers_append_instructions(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rz(0.3, 2).measure_all()
        counts = qc.count_ops()
        assert counts == {"h": 1, "cx": 1, "rz": 1, "measure": 3}

    def test_qubit_bounds_checked(self):
        qc = QuantumCircuit(2)
        with pytest.raises(IndexError):
            qc.h(2)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Gate("cx"), (1, 1))

    def test_needs_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_size_excludes_barriers(self):
        qc = QuantumCircuit(2)
        qc.h(0).barrier().cx(0, 1)
        assert qc.size() == 2


class TestStructure:
    def test_depth_of_serial_chain(self):
        qc = QuantumCircuit(1)
        for _ in range(5):
            qc.h(0)
        assert qc.depth() == 5

    def test_depth_of_parallel_gates(self):
        qc = QuantumCircuit(3)
        qc.h(0).h(1).h(2)
        assert qc.depth() == 1

    def test_two_qubit_depth_only_counts_entanglers(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).h(2).cx(1, 2)
        assert qc.two_qubit_depth() == 2

    def test_layers_partition_all_instructions(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).cx(0, 1).cx(2, 3).h(2)
        layers = qc.layers()
        total = sum(len(layer) for layer in layers)
        assert total == qc.size()
        for layer in layers:
            qubits = [q for inst in layer for q in inst.qubits]
            assert len(qubits) == len(set(qubits))

    def test_nonclifford_count(self):
        qc = QuantumCircuit(2)
        qc.h(0).t(0).rz(math.pi / 2, 1).rz(0.3, 1)
        assert qc.num_nonclifford_gates() == 2

    def test_is_clifford(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).s(1)
        assert qc.is_clifford()
        qc.t(0)
        assert not qc.is_clifford()


class TestParameters:
    def test_ordered_parameters_follow_first_appearance(self):
        theta = ParameterVector("t", 3)
        qc = QuantumCircuit(2)
        qc.rz(theta[2], 0).rx(theta[0], 1).rz(theta[1], 0)
        names = [p.name for p in qc.ordered_parameters()]
        assert names == ["t[2]", "t[0]", "t[1]"]

    def test_bind_parameters_by_sequence(self):
        theta = ParameterVector("t", 2)
        qc = QuantumCircuit(1)
        qc.rz(theta[0], 0).rx(theta[1], 0)
        bound = qc.bind_parameters([0.1, 0.2])
        assert bound.num_parameters == 0
        assert bound[0].params[0] == pytest.approx(0.1)

    def test_bind_parameters_length_mismatch_raises(self):
        theta = ParameterVector("t", 2)
        qc = QuantumCircuit(1)
        qc.rz(theta[0], 0).rx(theta[1], 0)
        with pytest.raises(ValueError):
            qc.bind_parameters([0.1])

    def test_binding_expression_parameters(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(1)
        qc.rz(2 * theta, 0)
        bound = qc.bind_parameters({theta: 0.25})
        assert bound[0].params[0] == pytest.approx(0.5)


class TestTransformations:
    def test_compose_appends_on_mapped_qubits(self):
        a = QuantumCircuit(3)
        a.h(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        combined = a.compose(b, qubits=[2, 1])
        assert combined[-1].qubits == (2, 1)

    def test_compose_size_mismatch_raises(self):
        a = QuantumCircuit(1)
        b = QuantumCircuit(3)
        with pytest.raises(ValueError):
            a.compose(b)

    def test_inverse_reverses_and_inverts(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).s(1)
        inv = qc.inverse()
        assert [inst.name for inst in inv] == ["sdg", "cx", "h"]

    def test_inverse_of_measurement_raises(self):
        qc = QuantumCircuit(1)
        qc.measure(0)
        with pytest.raises(ValueError):
            qc.inverse()

    def test_without_measurements(self):
        qc = QuantumCircuit(2)
        qc.h(0).measure_all()
        assert not qc.without_measurements().has_measurements()

    def test_copy_is_independent(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        copy = qc.copy()
        copy.x(0)
        assert qc.size() == 1
        assert copy.size() == 2

    def test_equality(self):
        a = QuantumCircuit(2)
        a.h(0).cx(0, 1)
        b = QuantumCircuit(2)
        b.h(0).cx(0, 1)
        assert a == b
        b.x(1)
        assert a != b

    def test_draw_lists_instructions(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        assert "h" in qc.draw()


class TestFingerprint:
    def test_identical_construction_matches(self):
        a = QuantumCircuit(3)
        a.h(0).cx(0, 1).rz(0.25, 2)
        b = QuantumCircuit(3)
        b.h(0).cx(0, 1).rz(0.25, 2)
        assert a.fingerprint() == b.fingerprint()

    def test_name_and_metadata_do_not_contribute(self):
        a = QuantumCircuit(2, name="first")
        a.h(0)
        b = QuantumCircuit(2, name="second")
        b.h(0)
        b.metadata["ansatz"] = "whatever"
        assert a.fingerprint() == b.fingerprint()

    def test_parameter_value_sensitivity(self):
        a = QuantumCircuit(1)
        a.rz(0.3, 0)
        b = QuantumCircuit(1)
        b.rz(0.3 + 1e-12, 0)
        assert a.fingerprint() != b.fingerprint()

    def test_gate_order_sensitivity(self):
        a = QuantumCircuit(2)
        a.h(0).x(1)
        b = QuantumCircuit(2)
        b.x(1).h(0)
        assert a.fingerprint() != b.fingerprint()

    def test_qubit_index_sensitivity(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0)
        assert a.fingerprint() != b.fingerprint()

    def test_qubit_count_sensitivity(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(3)
        b.h(0)
        assert a.fingerprint() != b.fingerprint()

    def test_gate_name_not_confusable_with_qubit_bytes(self):
        a = QuantumCircuit(2)
        a.h(0).h(1)
        b = QuantumCircuit(2)
        b.h(1).h(0)
        assert a.fingerprint() != b.fingerprint()

    def test_symbolic_parameters_hash_by_expression(self):
        theta = Parameter("theta")
        a = QuantumCircuit(1)
        a.rz(theta, 0)
        b = QuantumCircuit(1)
        b.rz(Parameter("theta"), 0)
        c = QuantumCircuit(1)
        c.rz(Parameter("phi"), 0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_binding_changes_fingerprint(self):
        theta = Parameter("theta")
        template = QuantumCircuit(1)
        template.rz(theta, 0)
        bound_a = template.bind_parameters({theta: 0.1})
        bound_b = template.bind_parameters({theta: 0.2})
        bound_a2 = template.bind_parameters({theta: 0.1})
        assert bound_a.fingerprint() != template.fingerprint()
        assert bound_a.fingerprint() != bound_b.fingerprint()
        assert bound_a.fingerprint() == bound_a2.fingerprint()

    def test_fingerprint_is_stable_hex_string(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        fp = qc.fingerprint()
        assert fp == qc.fingerprint()
        assert isinstance(fp, str) and len(fp) == 32
        int(fp, 16)  # valid hex

    def test_bound_template_matches_directly_built_circuit(self):
        theta = Parameter("theta")
        template = QuantumCircuit(1)
        template.rz(theta, 0)
        direct = QuantumCircuit(1)
        direct.rz(0.375, 0)
        assert template.bind_parameters({theta: 0.375}).fingerprint() \
            == direct.fingerprint()


class TestStructureMemo:
    """Fingerprint, ordered parameters and parametric slots are memoized
    per circuit; every writer of the instruction list drops the memo."""

    @pytest.mark.parametrize("mutate", [
        lambda qc, theta: qc.h(1),
        lambda qc, theta: qc.rz(2 * theta, 1),
        lambda qc, theta: qc.barrier(),
        lambda qc, theta: qc.measure(0),
        lambda qc, theta: qc.append(Gate("cz"), (0, 1)),
        lambda qc, theta: qc.append_instruction(
            Instruction(Gate("rx", (theta,)), (1,))),
    ])
    def test_appending_after_fingerprinting_changes_the_fingerprint(
            self, mutate):
        theta = Parameter("theta")
        qc = QuantumCircuit(2)
        qc.rx(theta, 0)
        before = qc.fingerprint()
        slots = qc.parametric_slots()
        mutate(qc, theta)
        rebuilt = QuantumCircuit(2)
        for inst in qc:
            rebuilt.append_instruction(inst)
        assert qc.fingerprint() != before
        assert qc.fingerprint() == rebuilt.fingerprint()
        assert qc.parametric_slots() == rebuilt.parametric_slots()
        assert len(qc.parametric_slots()) >= len(slots)

    def test_new_parameter_after_ordering_is_listed(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(1)
        qc.rx(a, 0)
        assert qc.ordered_parameters() == [a]
        qc.ry(b, 0)
        assert qc.ordered_parameters() == [a, b]
        # The returned list is the caller's to mutate.
        qc.ordered_parameters().append(a)
        assert qc.ordered_parameters() == [a, b]

    def test_copy_and_derived_circuits_do_not_share_the_memo(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        original = qc.fingerprint()
        copied = qc.copy()
        copied.cx(0, 1)
        composed = qc.compose(copied)
        assert qc.fingerprint() == original
        assert copied.fingerprint() != original
        assert composed.fingerprint() not in (original, copied.fingerprint())

    def test_stripping_nothing_keeps_the_memo(self, monkeypatch):
        calls = []
        original = QuantumCircuit._fingerprint

        def counting(circuit):
            calls.append(1)
            return original(circuit)

        monkeypatch.setattr(QuantumCircuit, "_fingerprint", counting)
        qc = QuantumCircuit(2)
        qc.rx(0.3, 0).cx(0, 1)
        expected = qc.fingerprint()
        stripped = qc.without_measurements()
        assert stripped.fingerprint() == expected
        assert len(calls) == 1
        stripped.h(1)
        assert stripped.fingerprint() != expected
        assert qc.fingerprint() == expected
        measured = qc.copy()
        measured.measure_all()
        measured.fingerprint()
        calls.clear()
        assert measured.without_measurements().fingerprint() == expected
        assert len(calls) == 1

    def test_statevector_evaluation_hashes_its_circuit_once(self,
                                                            monkeypatch):
        from repro.execution import Executor
        from repro.operators import ising_hamiltonian
        calls = []
        original = QuantumCircuit._fingerprint

        def counting(circuit):
            calls.append(1)
            return original(circuit)

        monkeypatch.setattr(QuantumCircuit, "_fingerprint", counting)
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ry(0.4, 2)
        Executor().evaluate_observable(qc, ising_hamiltonian(3, 1.0),
                                       backend="statevector")
        assert len(calls) == 1

    def test_pickled_circuit_carries_no_memo(self):
        import pickle
        theta = Parameter("theta")
        qc = QuantumCircuit(1)
        qc.rz(theta, 0)
        fresh = pickle.dumps(qc)
        qc.fingerprint()
        qc.ordered_parameters()
        assert pickle.dumps(qc) == fresh
        assert "_memo" not in pickle.loads(fresh).__dict__
        assert pickle.loads(fresh).fingerprint() == qc.fingerprint()

    def test_circuit_without_a_memo_attribute_still_fingerprints(self):
        # Circuits pickled before the memo existed unpickle without one.
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        expected = qc.fingerprint()
        restored = QuantumCircuit.__new__(QuantumCircuit)
        restored.__dict__.update({key: value for key, value
                                  in qc.__dict__.items() if key != "_memo"})
        assert "_memo" not in restored.__dict__
        assert restored.fingerprint() == expected
        assert restored.ordered_parameters() == []

    def test_slots_evaluate_to_the_bound_angles(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(2)
        qc.rz(2 * a + math.pi / 2, 0).rzz(b - 0.5 * a, 0, 1)
        qc.u3(a, 0.25, b + a, 1).h(0)
        values = [0.37, -1.91]
        bound = qc.bind_parameters(values)
        from repro.circuits.parameters import evaluate_form
        for index, forms in qc.parametric_slots():
            assert [evaluate_form(form, values) for form in forms] \
                == list(bound[index].gate.bound_params())
