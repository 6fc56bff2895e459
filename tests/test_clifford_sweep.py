"""Contracts of the compiled Clifford sweep.

A noiseless ``pauli_propagation`` sweep compiles its template once
(:func:`repro.simulators.pauli_propagation.compile_clifford`) and scores
every uncached point in one bit-sliced pass.  It shares the sweep cache,
dedup and stats scaffolding of the statevector sweep, so the same
contracts hold: repeats are cache hits, duplicates are dedup hits, warm
disk caches do zero evolutions, the fan-out mode never changes a value,
and ``auto`` never forks for it.
"""

import math

import numpy as np
import pytest

from repro.ansatz import BlockedAllToAllAnsatz, FullyConnectedAnsatz
from repro.circuits.circuit import QuantumCircuit
from repro.core import PQECRegime
from repro.execution import BackendCapabilityError, Executor
from repro.operators import heisenberg_hamiltonian, ising_hamiltonian
from repro.simulators.program import program_cache_counters
from repro.vqe import (BackendEnergyEvaluator, CliffordVQE, GeneticOptimizer,
                       indices_to_angles)

NUM_QUBITS = 8


@pytest.fixture(scope="module")
def template():
    return BlockedAllToAllAnsatz(NUM_QUBITS, 1).build()


@pytest.fixture(scope="module")
def hamiltonian():
    return ising_hamiltonian(NUM_QUBITS, 1.0)


def population(template, size, seed=0):
    rng = np.random.default_rng(seed)
    width = len(template.ordered_parameters())
    return [list(indices_to_angles(row))
            for row in rng.integers(0, 4, size=(size, width))]


def sweep(executor, template, hamiltonian, points, **kwargs):
    return executor.evaluate_sweep(template, points, hamiltonian,
                                   backend="pauli_propagation", **kwargs)


def test_repeated_population_is_served_from_cache(template, hamiltonian):
    executor = Executor()
    points = population(template, 12)
    first = sweep(executor, template, hamiltonian, points)
    invocations = executor.stats.simulator_invocations
    assert invocations == 12
    assert sweep(executor, template, hamiltonian, points) == first
    assert executor.stats.simulator_invocations == invocations
    assert executor.stats.term_cache_hits \
        == 12 * hamiltonian.num_terms


def test_duplicate_chromosomes_count_as_dedup_hits(template, hamiltonian):
    executor = Executor()
    points = population(template, 5)
    batch = points + points[:3] + [points[0]]
    energies = sweep(executor, template, hamiltonian, batch)
    assert executor.stats.dedup_hits == 4
    assert executor.stats.simulator_invocations == 5
    assert energies[5:] == energies[:3] + [energies[0]]


def test_warm_disk_cache_does_zero_evolutions(template, hamiltonian,
                                              tmp_path):
    points = population(template, 8)
    cold = Executor(cache_dir=tmp_path)
    energies = sweep(cold, template, hamiltonian, points)
    assert cold.stats.simulator_invocations == 8
    warm = Executor(cache_dir=tmp_path)
    assert sweep(warm, template, hamiltonian, points) == energies
    assert warm.stats.simulator_invocations == 0


@pytest.mark.parametrize("parallel,workers", [("auto", None),
                                              ("process", 2),
                                              ("process", 4)])
def test_energies_identical_across_fanout_modes(template, hamiltonian,
                                                parallel, workers):
    points = population(template, 40, seed=3)
    inline = sweep(Executor(use_cache=False), template, hamiltonian, points,
                   parallel="none")
    assert sweep(Executor(use_cache=False), template, hamiltonian, points,
                 parallel=parallel, max_workers=workers) == inline


def test_auto_never_forks(template, hamiltonian):
    executor = Executor(use_cache=False)
    sweep(executor, template, hamiltonian, population(template, 64),
          parallel="auto", max_workers=4)
    assert executor.stats.process_shards == 0


def test_population_scoring_binds_no_circuits(monkeypatch):
    """The GA's generation-level path compiles the template once and never
    builds a circuit per chromosome."""
    hamiltonian = heisenberg_hamiltonian(NUM_QUBITS, 1.0)
    vqe = CliffordVQE(hamiltonian, FullyConnectedAnsatz(NUM_QUBITS, 1),
                      optimizer=GeneticOptimizer(seed=5))
    chromosomes = np.random.default_rng(5).integers(
        0, 4, size=(10, vqe.ansatz.num_parameters()))
    # The reference: bind and canonicalize each chromosome.
    expected = [vqe.energy_from_indices(row) for row in chromosomes]
    binds = []
    original = QuantumCircuit.bind_parameters
    monkeypatch.setattr(QuantumCircuit, "bind_parameters",
                        lambda self, values: binds.append(1)
                        or original(self, values))
    compiled_before, _ = program_cache_counters()
    assert vqe.energy_from_population(chromosomes) == expected
    assert vqe.energy_from_population(chromosomes[::-1]) == expected[::-1]
    assert binds == []
    assert program_cache_counters()[0] - compiled_before <= 1


def test_noisy_population_still_binds_per_point():
    """Noisy sweeps keep per-point circuits (a merged Rz(0) drops its
    injection channel and changes the idle layering)."""
    hamiltonian = ising_hamiltonian(4, 1.0)
    template = FullyConnectedAnsatz(4, 1).build()
    points = population(template, 4, seed=9)
    evaluator = BackendEnergyEvaluator.clifford(
        hamiltonian, PQECRegime().noise_model())
    swept = evaluator.evaluate_sweep(template, points)
    assert swept == [evaluator(template.bind_parameters(point))
                     for point in points]


def test_wrong_length_point_is_a_value_error(template, hamiltonian):
    evaluator = BackendEnergyEvaluator.clifford(hamiltonian)
    with pytest.raises(ValueError):
        evaluator.evaluate_sweep(template, [[0.0]])


def test_non_clifford_template_gate_is_a_capability_error(hamiltonian):
    template = QuantumCircuit(NUM_QUBITS)
    template.t(0)
    with pytest.raises(BackendCapabilityError):
        Executor().evaluate_sweep(template, [[]], hamiltonian,
                                  backend="pauli_propagation")


def test_clifford_angles_only_depend_on_the_quarter_turn(template,
                                                         hamiltonian):
    points = population(template, 6, seed=1)
    shifted = [[angle + 2 * math.pi for angle in point] for point in points]
    executor = Executor(use_cache=False)
    assert sweep(executor, template, hamiltonian, shifted) \
        == sweep(executor, template, hamiltonian, points)
