"""Tests for the ansatz families and the Sec. 4.4 gate-count design rules."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ansatz import (ANSATZ_FAMILIES, BlockedAllToAllAnsatz,
                          FullyConnectedAnsatz, LinearAnsatz, UCCSDAnsatz,
                          blocked_cnot_count, blocked_ratio_formula,
                          cnot_to_rz_ratio,
                          fche_cnot_count, k_for_qubits, linear_cnot_count,
                          make_ansatz, pqec_crossover_qubits,
                          regime_preference, rotation_count)
from repro.circuits.transpile import gate_census
from repro.simulators.statevector import StatevectorSimulator


class TestHardwareEfficient:
    def test_linear_counts_match_formulas(self):
        ansatz = LinearAnsatz(6, depth=2)
        assert ansatz.cnot_count() == linear_cnot_count(6, 2)
        assert ansatz.rotation_count() == rotation_count(6, 2)
        assert ansatz.num_parameters() == 2 * 6 * 2

    def test_fche_counts_match_formulas(self):
        ansatz = FullyConnectedAnsatz(8, depth=1)
        assert ansatz.cnot_count() == fche_cnot_count(8, 1) == 28

    def test_built_circuit_matches_counts(self):
        ansatz = FullyConnectedAnsatz(5, depth=2)
        circuit = ansatz.build()
        counts = circuit.count_ops()
        assert counts["cx"] == ansatz.cnot_count()
        assert counts["rx"] + counts["rz"] == ansatz.rotation_count()
        assert circuit.num_parameters == ansatz.num_parameters()

    def test_bound_circuit_has_no_free_parameters(self):
        ansatz = LinearAnsatz(4)
        values = np.linspace(0, 1, ansatz.num_parameters())
        assert ansatz.bound_circuit(values).num_parameters == 0

    def test_macro_schedule_structure(self):
        ansatz = LinearAnsatz(4, depth=1)
        schedule = ansatz.macro_schedule()
        kinds = [op.kind for op in schedule]
        assert kinds[0] == "rotation_layer"
        assert kinds[-1] == "measure_layer"
        assert kinds.count("cnot_cluster") == 4

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            LinearAnsatz(1)

    def test_zero_parameters_prepare_computational_state(self):
        ansatz = FullyConnectedAnsatz(4)
        circuit = ansatz.bound_circuit([0.0] * ansatz.num_parameters())
        state = StatevectorSimulator().run(circuit)
        assert abs(state.data[0]) == pytest.approx(1.0)


class TestBlockedAllToAll:
    def test_requires_4k_plus_4_qubits(self):
        with pytest.raises(ValueError):
            BlockedAllToAllAnsatz(10)
        assert k_for_qubits(20) == 4

    @pytest.mark.parametrize("num_qubits", [8, 12, 16, 20, 40])
    def test_cnot_count_matches_paper_formula(self, num_qubits):
        ansatz = BlockedAllToAllAnsatz(num_qubits)
        assert ansatz.cnot_count() == ansatz.expected_cnot_count_formula()
        assert ansatz.cnot_count() == blocked_cnot_count(num_qubits, 1)

    def test_blocks_partition_the_fast_rows(self):
        ansatz = BlockedAllToAllAnsatz(20)
        assert len(ansatz.block_a) == len(ansatz.block_b) == 8
        assert set(ansatz.block_a).isdisjoint(ansatz.block_b)
        assert len(ansatz.extra_qubits) == 4

    def test_exactly_eight_linking_cnots(self):
        for num_qubits in (12, 20, 40):
            ansatz = BlockedAllToAllAnsatz(num_qubits)
            assert len(ansatz.linking_pairs()) == 8

    def test_built_circuit_census_matches_counts(self):
        ansatz = BlockedAllToAllAnsatz(12, depth=2)
        census = gate_census(ansatz.build().bind_parameters(
            [0.1] * ansatz.num_parameters()))
        assert census.cnot == ansatz.cnot_count()


class TestUCCSD:
    def test_parameter_count(self):
        ansatz = UCCSDAnsatz(6, depth=1)
        assert ansatz.num_parameters() == len(ansatz.single_excitations()) + len(
            ansatz.double_excitations())

    def test_builds_and_binds(self):
        ansatz = UCCSDAnsatz(4, depth=1)
        circuit = ansatz.bound_circuit([0.1] * ansatz.num_parameters())
        assert circuit.num_parameters == 0
        assert circuit.count_ops()["cx"] == ansatz.cnot_count()

    def test_zero_angles_give_identity(self):
        ansatz = UCCSDAnsatz(4, depth=1)
        circuit = ansatz.bound_circuit([0.0] * ansatz.num_parameters())
        state = StatevectorSimulator().run(circuit)
        assert abs(state.data[0]) == pytest.approx(1.0)

    def test_cnot_to_rz_ratio_scales_linearly(self):
        small = UCCSDAnsatz(6).cnot_to_rz_ratio()
        large = UCCSDAnsatz(12).cnot_to_rz_ratio()
        assert large >= small


class TestDesignRules:
    def test_blocked_ratio_closed_form(self):
        for n in (8, 16, 24, 48):
            assert cnot_to_rz_ratio("blocked_all_to_all", n) == pytest.approx(
                blocked_ratio_formula(n), rel=1e-12)

    def test_linear_ratio_is_one_quarter(self):
        assert cnot_to_rz_ratio("linear", 32) == pytest.approx(0.25)

    def test_paper_crossover_near_13_qubits(self):
        # The paper quotes N ≥ 13 (ratio 0.7596 vs the rounded 0.76 threshold);
        # with the exact 23/30 break-even the first integer crossing is 14.
        assert pqec_crossover_qubits("blocked_all_to_all") in (13, 14)
        assert pqec_crossover_qubits("blocked_all_to_all",
                                     break_even=0.7595) == 13

    def test_linear_never_prefers_pqec(self):
        assert pqec_crossover_qubits("linear", max_qubits=500) is None

    def test_fche_prefers_pqec_beyond_small_sizes(self):
        crossover = pqec_crossover_qubits("fully_connected")
        assert crossover is not None and crossover <= 16

    def test_regime_preference_object(self):
        pref = regime_preference("blocked_all_to_all", 16)
        assert pref.prefers_pqec
        pref_small = regime_preference("blocked_all_to_all", 8)
        assert not pref_small.prefers_pqec

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            cnot_to_rz_ratio("star", 10)

    def test_make_ansatz_factory(self):
        assert isinstance(make_ansatz("linear", 6), LinearAnsatz)
        for family, cls in ANSATZ_FAMILIES.items():
            ansatz = make_ansatz(family, 8)  # 8 = 4k + 4 suits every family
            assert type(ansatz) is cls
            assert ansatz.build().num_qubits == 8
        with pytest.raises(ValueError):
            make_ansatz("unknown", 6)


@given(num_qubits=st.sampled_from([8, 12, 16, 20, 24, 28]),
       depth=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_blocked_counts_formula_property(num_qubits, depth):
    ansatz = BlockedAllToAllAnsatz(num_qubits, depth)
    n = num_qubits
    assert ansatz.cnot_count() == int((n * n / 2 - 5 * n + 20) * depth)
    assert ansatz.rotation_count() == 2 * n * depth
