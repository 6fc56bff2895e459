"""Tests for JSON serialization, reports, ASCII plots and the resource
estimator."""

import json
import math

import numpy as np
import pytest

from repro.ansatz import BlockedAllToAllAnsatz, FullyConnectedAnsatz
from repro.architecture.routing import ProposedLayoutGeometry
from repro.circuits.circuit import QuantumCircuit
from repro.core.regimes import (NISQRegime, PQECRegime, QECConventionalRegime,
                                QECCultivationRegime)
from repro.core.resources import EFTDevice
from repro.estimation import (ResourceEstimator, device_capacity_table,
                              format_estimate_table)
from repro.io.reports import ExperimentRecord, ExperimentReport, markdown_table
from repro.io.serialization import (circuit_from_dict, circuit_to_dict,
                                    load_json, pauli_sum_from_dict,
                                    pauli_sum_to_dict, result_to_dict,
                                    save_json)
from repro.operators.hamiltonians import heisenberg_hamiltonian, ising_hamiltonian
from repro.operators.molecules import molecular_hamiltonian
from repro.visualization import (ascii_bar_chart, ascii_heatmap,
                                 ascii_line_plot, draw_circuit, render_layout)


def _sample_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="sample")
    circuit.h(0)
    circuit.rz(math.pi / 4, 0)
    circuit.cx(0, 1)
    circuit.rx(0.37, 1)
    circuit.ry(-1.2, 2)
    circuit.rzz(0.5, 1, 2)
    circuit.s(2)
    circuit.barrier()
    circuit.measure_all()
    return circuit


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_circuit_roundtrip(self):
        circuit = _sample_circuit()
        payload = circuit_to_dict(circuit)
        recovered = circuit_from_dict(payload)
        assert recovered.num_qubits == circuit.num_qubits
        assert recovered.count_ops() == circuit.count_ops()
        # The payload must be JSON-serializable as is.
        json.dumps(payload)

    def test_circuit_with_unbound_parameters_rejected(self):
        with pytest.raises(ValueError):
            circuit_to_dict(FullyConnectedAnsatz(4, 1).build())

    def test_circuit_format_tag_checked(self):
        with pytest.raises(ValueError):
            circuit_from_dict({"format": "something-else"})

    def test_pauli_sum_roundtrip(self):
        hamiltonian = heisenberg_hamiltonian(5, coupling=0.5)
        recovered = pauli_sum_from_dict(pauli_sum_to_dict(hamiltonian))
        assert recovered == hamiltonian

    def test_pauli_sum_format_tag_checked(self):
        with pytest.raises(ValueError):
            pauli_sum_from_dict({"format": "nope"})

    def test_molecular_hamiltonian_roundtrip_preserves_ground_energy(self):
        hamiltonian = molecular_hamiltonian("LiH", 1.0, num_qubits=6,
                                            num_terms=40)
        recovered = pauli_sum_from_dict(pauli_sum_to_dict(hamiltonian))
        assert recovered.ground_state_energy() == pytest.approx(
            hamiltonian.ground_state_energy(), abs=1e-9)

    def test_save_and_load_json(self, tmp_path):
        payload = {"values": np.array([1.0, 2.0]), "name": "x"}
        path = save_json(payload, tmp_path / "nested" / "payload.json")
        assert path.exists()
        assert load_json(path) == {"values": [1.0, 2.0], "name": "x"}

    def test_result_to_dict_uses_summary(self):
        estimator = ResourceEstimator(optimize_qubit_placement=False)
        estimate = estimator.estimate(FullyConnectedAnsatz(8, 1), PQECRegime())
        record = result_to_dict(estimate)
        assert record["regime"] == "pqec"
        json.dumps(record)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReports:
    def test_markdown_table_shape(self):
        table = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert len(lines) == 4

    def test_markdown_table_validation(self):
        with pytest.raises(ValueError):
            markdown_table([], [])
        with pytest.raises(ValueError):
            markdown_table(["a"], [[1, 2]])

    def test_experiment_report_rendering(self, tmp_path):
        report = ExperimentReport(title="EFT-VQA experiments",
                                  preamble="Reproduction of the paper.")
        report.add(ExperimentRecord(
            experiment_id="Fig. 4", title="pQEC vs qec-conventional",
            paper_claim="9.27x average improvement",
            measured="8.1x average improvement",
            bench_target="benchmarks/test_fig04_pqec_vs_conventional.py",
            table_header=["config", "gamma"], table_rows=[["11,5,5", "2.1x"]]))
        markdown = report.to_markdown()
        assert "# EFT-VQA experiments" in markdown
        assert "Fig. 4" in markdown
        assert "| config | gamma |" in markdown
        path = report.write(tmp_path / "EXPERIMENTS.md")
        assert path.read_text() == markdown


# ---------------------------------------------------------------------------
# ASCII visualization
# ---------------------------------------------------------------------------

class TestVisualization:
    def test_bar_chart_scales_to_largest(self):
        chart = ascii_bar_chart({"pqec": 9.27, "nisq": 1.0}, width=20)
        lines = chart.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") >= 1

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({})
        with pytest.raises(ValueError):
            ascii_bar_chart({"a": 1.0}, width=2)

    def test_line_plot_contains_markers_and_legend(self):
        plot = ascii_line_plot([1, 2, 3], {"nisq": [0.9, 0.8, 0.7],
                                           "pqec": [0.95, 0.93, 0.91]})
        assert "legend:" in plot
        assert "*" in plot and "o" in plot

    def test_line_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_line_plot([1, 2], {"x": [1.0]}, height=12, width=30)
        with pytest.raises(ValueError):
            ascii_line_plot([1, 2], {}, height=12, width=30)

    def test_heatmap_renders_extremes(self):
        heatmap = ascii_heatmap([[0.0, 1.0], [0.5, 0.25]],
                                row_labels=["10k", "20k"],
                                column_labels=[10, 20])
        assert "@@" in heatmap
        assert "scale:" in heatmap

    def test_heatmap_validation(self):
        with pytest.raises(ValueError):
            ascii_heatmap([])
        with pytest.raises(ValueError):
            ascii_heatmap([[1.0], [2.0, 3.0]])

    def test_render_layout_shows_every_data_qubit(self):
        geometry = ProposedLayoutGeometry(3)
        text = render_layout(geometry)
        for qubit in range(geometry.num_data_qubits):
            assert f" {qubit} " in text or f" {qubit}\n" in text or \
                text.count(str(qubit)) >= 1
        assert "MM" in text

    def test_draw_circuit_one_line_per_qubit(self):
        drawing = draw_circuit(_sample_circuit())
        lines = drawing.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("q0:")
        assert "●" in drawing and "⊕" in drawing


# ---------------------------------------------------------------------------
# Resource estimator
# ---------------------------------------------------------------------------

class TestResourceEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return ResourceEstimator(optimize_qubit_placement=False)

    def test_estimate_fields(self, estimator):
        estimate = estimator.estimate(FullyConnectedAnsatz(12, 1), PQECRegime(),
                                      ising_hamiltonian(12, 1.0), "ising12")
        assert estimate.workload == "ising12"
        assert estimate.fits_device
        assert 0.0 < estimate.estimated_fidelity <= 1.0
        assert estimate.data_patch_qubits > 0
        assert estimate.magic_state_qubits == 0      # injection needs no farm
        assert 0.0 < estimate.device_utilization <= 1.0

    def test_conventional_regime_reserves_factory_qubits(self, estimator):
        estimate = estimator.estimate(FullyConnectedAnsatz(12, 1),
                                      QECConventionalRegime())
        assert estimate.magic_state_qubits > 0

    def test_cultivation_regime_reserves_unit_qubits(self, estimator):
        estimate = estimator.estimate(FullyConnectedAnsatz(12, 1),
                                      QECCultivationRegime())
        assert estimate.magic_state_qubits > 0

    def test_compare_regimes_recommends_pqec_for_medium_vqa(self, estimator):
        recommendation = estimator.compare_regimes(
            FullyConnectedAnsatz(16, 1), ising_hamiltonian(16, 1.0))
        assert recommendation.recommended_regime == "pqec"
        assert len(recommendation.estimates) == 4
        assert recommendation.estimate_for("nisq").regime == "nisq"
        with pytest.raises(KeyError):
            recommendation.estimate_for("unknown")

    def test_size_sweep_monotone_utilization(self, estimator):
        estimates = estimator.size_sweep(
            lambda n: BlockedAllToAllAnsatz(n, 1), (8, 12, 16), PQECRegime())
        utilizations = [e.device_utilization for e in estimates]
        assert utilizations == sorted(utilizations)

    def test_small_device_infeasible(self):
        estimator = ResourceEstimator(device=EFTDevice(physical_qubits=1500),
                                      optimize_qubit_placement=False)
        estimate = estimator.estimate(FullyConnectedAnsatz(16, 1), PQECRegime())
        assert not estimate.fits_device

    def test_device_capacity_table(self):
        rows = device_capacity_table([10_000, 20_000, 60_000])
        capacities = [row["max_logical_qubits"] for row in rows]
        assert capacities == sorted(capacities)
        assert all(row["qubits_per_patch"] > 0 for row in rows)

    def test_format_estimate_table(self, estimator):
        estimates = [estimator.estimate(FullyConnectedAnsatz(8, 1), regime)
                     for regime in (NISQRegime(), PQECRegime())]
        table = format_estimate_table(estimates)
        assert "workload" in table.splitlines()[0]
        assert len(table.splitlines()) == 2 + len(estimates)
