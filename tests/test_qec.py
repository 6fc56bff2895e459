"""Tests for the QEC substrates: surface-code model, factories, cultivation,
Clifford+T synthesis, matching decoder and memory experiments."""

import math

import numpy as np
import pytest

from repro.qec import (CultivationFarm, CultivationUnit, FactoryFarm,
                       LogicalOperationErrorModel, MatchingDecoder,
                       RepetitionMatchingDecoder, SurfaceCodePatch,
                       best_factory_for_budget, get_factory, list_factories,
                       logical_error_rate, manhattan_distance,
                       max_factories_fitting, max_units_fitting,
                       minimum_distance_for_target, patches_fitting_budget,
                       repetition_code_decoder,
                       repetition_code_memory_experiment,
                       sequence_length_for_precision,
                       synthesis_overhead, synthesize_rz, synthesized_circuit,
                       t_count_for_precision)
from repro.circuits.gates import rz_matrix
from repro.simulators.statevector import circuit_unitary


class TestSurfaceCode:
    def test_paper_operating_point_gives_1e7(self):
        assert logical_error_rate(11, 1e-3) == pytest.approx(1e-7, rel=1e-6)

    def test_error_rate_decreases_with_distance(self):
        rates = [logical_error_rate(d, 1e-3) for d in (3, 5, 7, 9, 11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_above_threshold_distance_hurts(self):
        assert logical_error_rate(11, 2e-2) > logical_error_rate(3, 2e-2)

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            logical_error_rate(4, 1e-3)

    def test_minimum_distance_for_target(self):
        d = minimum_distance_for_target(1e-7, 1e-3)
        assert d == 11

    def test_patch_qubit_counts(self):
        patch = SurfaceCodePatch(11)
        assert patch.data_qubits == 121
        assert patch.ancilla_qubits == 120
        assert patch.physical_qubits == 241

    def test_logical_operation_model_at_paper_point(self):
        model = LogicalOperationErrorModel()
        assert model.memory == pytest.approx(1e-7, rel=1e-6)
        assert model.cnot == pytest.approx(4e-7, rel=1e-6)
        assert model.as_dict()["measure"] == pytest.approx(1e-7, rel=1e-6)

    def test_patches_fitting_budget(self):
        assert patches_fitting_budget(10_000, 11) == 41


class TestDistillation:
    def test_catalogue_has_paper_configs(self):
        names = {factory.label for factory in list_factories()}
        assert "(15-to-1)7,3,3" in names
        assert "(15-to-1)17,7,7" in names

    def test_paper_quoted_numbers(self):
        small = get_factory("15-to-1_7,3,3")
        assert small.physical_qubits == 810
        assert small.cycles_per_batch == pytest.approx(22.0)
        assert small.output_error(1e-3) == pytest.approx(5.4e-4)
        large = get_factory("15-to-1_17,7,7")
        assert large.output_error(1e-3) == pytest.approx(4.5e-8)
        assert large.cycles_per_batch == pytest.approx(42.0)

    def test_output_error_scales_cubically(self):
        factory = get_factory("15-to-1_11,5,5")
        assert factory.output_error(1e-4) == pytest.approx(
            factory.output_error(1e-3) / 1000.0)

    def test_farm_throughput_and_stalls(self):
        factory = get_factory("15-to-1_7,3,3")
        farm = FactoryFarm(factory, count=2)
        assert farm.cycles_per_tstate() == pytest.approx(11.0)
        assert farm.stall_cycles_per_tstate(1.0) == pytest.approx(10.0)
        assert farm.stall_cycles_per_tstate(20.0) == 0.0
        assert FactoryFarm(factory, 0).stall_cycles_per_tstate(1.0) == math.inf

    def test_max_factories_fitting(self):
        factory = get_factory("15-to-1_7,3,3")
        assert max_factories_fitting(factory, 10_000) == 12
        assert max_factories_fitting(factory, 100) == 0

    def test_best_factory_prefers_lowest_error_that_fits(self):
        best = best_factory_for_budget(5_000)
        assert best.name == "15-to-1_17,7,7"
        small_budget = best_factory_for_budget(1_000)
        assert small_budget.name == "15-to-1_7,3,3"
        with pytest.raises(ValueError):
            best_factory_for_budget(100)

    def test_unknown_factory_rejected(self):
        with pytest.raises(ValueError):
            get_factory("30-to-1")


class TestCultivation:
    def test_unit_footprint_and_rate(self):
        unit = CultivationUnit()
        assert unit.physical_qubits == math.ceil(1.5 * 241)
        assert unit.expected_cycles_per_tstate() == pytest.approx(
            unit.attempt_cycles / unit.acceptance_probability)

    def test_output_error_scaling(self):
        unit = CultivationUnit()
        assert unit.output_error(1e-3) == pytest.approx(2e-9)
        assert unit.output_error(2e-3) == pytest.approx(8e-9)

    def test_farm_scaling(self):
        unit = CultivationUnit()
        farm = CultivationFarm(unit, 4)
        assert farm.cycles_per_tstate() == pytest.approx(
            unit.expected_cycles_per_tstate() / 4)
        assert CultivationFarm(unit, 0).cycles_per_tstate() == math.inf

    def test_units_fitting(self):
        unit = CultivationUnit()
        assert max_units_fitting(unit, 10 * unit.physical_qubits) == 10


class TestCliffordTSynthesis:
    def test_t_count_grows_logarithmically(self):
        assert t_count_for_precision(1e-3) < t_count_for_precision(1e-6)
        assert t_count_for_precision(1e-6) == pytest.approx(
            3 * math.log2(1e6) + 4, abs=1.0)

    def test_sequence_length_exceeds_t_count(self):
        assert sequence_length_for_precision(1e-6) > t_count_for_precision(1e-6)

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            t_count_for_precision(2.0)

    def test_paper_sec25_overheads_scale(self):
        # 20-qubit depth-1 FCHE: ~40 rotations, ~230 gates, depth ~25.
        overhead = synthesis_overhead(num_rotations=40, original_gate_count=230,
                                      original_depth=25, precision=1e-6)
        assert overhead.gate_count_multiplier > 10
        assert overhead.depth_multiplier > 3
        assert overhead.total_t_count == 40 * overhead.t_count_per_rotation

    def test_synthesize_rz_error_decreases_with_budget(self):
        coarse = synthesize_rz(0.7, max_t_count=1, max_states=2000)
        fine = synthesize_rz(0.7, max_t_count=6, max_states=6000)
        assert fine.error <= coarse.error
        assert fine.t_count <= 6

    def test_synthesize_clifford_angle_is_exact(self):
        result = synthesize_rz(math.pi / 2, max_t_count=2, max_states=2000)
        assert result.error == pytest.approx(0.0, abs=1e-7)

    def test_reported_error_matches_actual_unitary(self):
        result = synthesize_rz(0.9, max_t_count=5, max_states=4000)
        circuit = synthesized_circuit(0.9, 0, 1, max_t_count=5)
        unitary = circuit_unitary(circuit)
        target = rz_matrix(0.9)
        overlap = abs(np.trace(target.conj().T @ unitary)) / 2.0
        actual_error = math.sqrt(max(0.0, 1.0 - min(overlap, 1.0) ** 2))
        assert actual_error == pytest.approx(result.error, abs=1e-6)


class TestDecoderAndMemory:
    def test_manhattan_distance(self):
        assert manhattan_distance((0, 0), (2, 3)) == 5

    def test_two_defects_pair_together(self):
        decoder = MatchingDecoder()
        pairs = decoder.decode([(0.0, 0.0), (1.0, 0.0)])
        assert len(pairs) == 1
        assert not pairs[0].to_boundary

    def test_single_defect_needs_boundary(self):
        with pytest.raises(ValueError):
            MatchingDecoder().decode([(0.0, 0.0)])
        decoder = MatchingDecoder(boundary_fn=lambda d: 1.0)
        pairs = decoder.decode([(0.0, 0.0)])
        assert pairs[0].to_boundary

    def test_repetition_decoder_prefers_cheap_boundary(self):
        decoder = repetition_code_decoder(distance=9)
        # Two far-apart defects each sit next to a boundary: matching to the
        # boundaries (cost 1 + 1) beats matching them together (cost 7).
        pairs = decoder.decode([(0.0, 0.0), (7.0, 0.0)])
        assert all(pair.to_boundary for pair in pairs)

    def test_memory_experiment_logical_rate_decreases_with_distance(self):
        rate_small = repetition_code_memory_experiment(
            3, 0.02, shots=300, decoder_factory=RepetitionMatchingDecoder,
            seed=5).logical_error_rate
        rate_large = repetition_code_memory_experiment(
            9, 0.02, shots=300, decoder_factory=RepetitionMatchingDecoder,
            seed=5).logical_error_rate
        assert rate_large <= rate_small

    def test_memory_experiment_zero_noise_never_fails(self):
        result = repetition_code_memory_experiment(
            5, 0.0, shots=50, decoder_factory=RepetitionMatchingDecoder,
            seed=1)
        assert result.failures == 0
        assert result.logical_error_per_round == 0.0

    def test_memory_experiment_heavy_noise_fails_often(self):
        result = repetition_code_memory_experiment(
            3, 0.4, shots=200, decoder_factory=RepetitionMatchingDecoder,
            seed=2)
        assert result.logical_error_rate > 0.2
