"""Grouped-observable engine: correctness, caching and single-evolution tests.

The contract under test: for any many-term Hamiltonian,
``Executor.evaluate_observable`` / ``term_expectations`` must reproduce the
legacy per-term submission path (one single-term ``ExecutionTask`` per Pauli
term through ``execute()``) to 1e-10 on every backend, while
evolving each unique circuit exactly once and serving overlapping
Hamiltonians from the per-(circuit, term) cache.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.execution import (Backend, BackendCapabilities, ExecutionPolicy,
                             ExecutionTask, Executor, evaluate_observable,
                             term_expectations)
from repro.operators.grouping import group_commuting
from repro.operators.pauli import PauliString, PauliSum
from repro.simulators import kernels
from repro.simulators.kernels import (density_matrix_term_expectations,
                                      observable_bit_matrices,
                                      statevector_term_expectations)
from repro.simulators.noise import (NoiseModel, depolarizing_channel)
from repro.simulators.statevector import StatevectorSimulator


def random_hamiltonian(num_qubits, num_terms, seed, include_identity=True):
    rng = np.random.default_rng(seed)
    hamiltonian = PauliSum(num_qubits)
    if include_identity:
        hamiltonian.add_term(PauliString.identity(num_qubits), rng.normal())
    while hamiltonian.num_terms < num_terms:
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        hamiltonian.add_label(label, rng.normal())
    return hamiltonian


def random_rotation_circuit(num_qubits, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.ry(float(rng.uniform(0, np.pi)), qubit)
        circuit.rz(float(rng.uniform(0, np.pi)), qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(num_qubits):
        circuit.rx(float(rng.uniform(0, np.pi)), qubit)
    return circuit


def random_clifford_circuit(num_qubits, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(3 * num_qubits):
        choice = rng.integers(0, 5)
        qubit = int(rng.integers(0, num_qubits))
        if choice == 0:
            circuit.h(qubit)
        elif choice == 1:
            circuit.s(qubit)
        elif choice == 2:
            circuit.rz(float(rng.integers(0, 4)) * np.pi / 2.0, qubit)
        elif choice == 3:
            circuit.x(qubit)
        else:
            other = int(rng.integers(0, num_qubits))
            if other != qubit:
                circuit.cx(qubit, other)
    return circuit


def per_term_energy(executor, circuit, hamiltonian, backend,
                    noise_model=None):
    """The legacy path: one single-term ExecutionTask per Pauli term."""
    task = ExecutionTask(circuit, observable=hamiltonian,
                         noise_model=noise_model)
    results = executor.run(task.split_terms(), backend=backend)
    coefficients = [float(np.real(c)) for _, c in hamiltonian.terms()]
    return sum(c * r.value for c, r in zip(coefficients, results))


def pauli_noise_model(readout=0.02):
    noise = NoiseModel("test")
    noise.add_gate_error(depolarizing_channel(0.01, 1), ["h", "s", "x", "rz"])
    noise.add_gate_error(depolarizing_channel(0.02, 2), ["cx"])
    noise.add_readout_error(readout)
    return noise


class TestKernels:
    def test_statevector_kernel_matches_matrix_reference(self):
        hamiltonian = random_hamiltonian(4, 12, seed=1)
        rng = np.random.default_rng(2)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        values = statevector_term_expectations(state, observable=hamiltonian)
        reference = [np.real(np.vdot(state, pauli.to_matrix() @ state))
                     for pauli, _ in hamiltonian.terms()]
        assert np.allclose(values, reference, atol=1e-12)

    def test_density_matrix_kernel_matches_matrix_reference(self):
        hamiltonian = random_hamiltonian(3, 10, seed=3)
        rng = np.random.default_rng(4)
        # A random valid density matrix (mixture of two pure states).
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(phi, phi.conj())
        values = density_matrix_term_expectations(rho, observable=hamiltonian)
        reference = [np.real(np.trace(rho @ pauli.to_matrix()))
                     for pauli, _ in hamiltonian.terms()]
        assert np.allclose(values, reference, atol=1e-12)

    def test_bit_matrices_roundtrip(self):
        hamiltonian = random_hamiltonian(4, 8, seed=5)
        coefficients, x_bits, z_bits = observable_bit_matrices(hamiltonian)
        for index, (pauli, coeff) in enumerate(hamiltonian.terms()):
            assert np.array_equal(x_bits[index], pauli.x)
            assert np.array_equal(z_bits[index], pauli.z)
            assert coefficients[index] == complex(coeff)

    def test_pauli_sum_expectation_uses_kernel_consistently(self):
        hamiltonian = random_hamiltonian(4, 10, seed=6)
        rng = np.random.default_rng(7)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        dense = np.real(np.vdot(state, hamiltonian.to_matrix() @ state))
        assert abs(hamiltonian.expectation(state) - dense) < 1e-10


class TestReadoutPlanMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        kernels._READOUT_PLANS.clear()
        yield
        kernels._READOUT_PLANS.clear()

    def test_one_plan_per_term_set_shared_by_all_three_kernels(self):
        hamiltonian = random_hamiltonian(4, 8, seed=8)
        _, x_bits, z_bits = observable_bit_matrices(hamiltonian)
        rng = np.random.default_rng(9)
        states = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        statevector_term_expectations(states[0], x_bits, z_bits)
        plans = kernels._READOUT_PLANS
        assert len(plans) == 1
        plan = kernels._readout_plan(x_bits, z_bits)
        kernels.statevector_term_expectations_batch(states, x_bits, z_bits)
        density_matrix_term_expectations(np.eye(16) / 16, x_bits, z_bits)
        assert len(plans) == 1
        assert kernels._readout_plan(x_bits, z_bits) is plan
        assert plans.nbytes == plan.nbytes == 16 * 8 * (1 + 2 * 8)
        # The same terms in another order are another term set.
        statevector_term_expectations(states[0], x_bits[::-1], z_bits[::-1])
        assert len(plans) == 2

    def test_a_plan_over_the_ceiling_is_used_but_not_kept(self, monkeypatch):
        hamiltonian = random_hamiltonian(5, 6, seed=10)
        _, x_bits, z_bits = observable_bit_matrices(hamiltonian)
        rng = np.random.default_rng(11)
        state = rng.normal(size=32) + 1j * rng.normal(size=32)
        kept = statevector_term_expectations(state, x_bits, z_bits)
        plan_bytes = kernels._READOUT_PLANS.nbytes
        kernels._READOUT_PLANS.clear()
        monkeypatch.setattr(kernels._READOUT_PLANS, "max_bytes",
                            plan_bytes - 1)
        values = statevector_term_expectations(state, x_bits, z_bits)
        assert values.tobytes() == kept.tobytes()
        assert len(kernels._READOUT_PLANS) == 0
        assert kernels._READOUT_PLANS.nbytes == 0
        # An over-ceiling plan derives its terms per read: it holds no
        # per-term vectors of its own.
        assert kernels._readout_plan(x_bits, z_bits)._terms is None


class TestGroupedVersusPerTerm:
    """Grouped and term-by-term energies agree to 1e-10 on every backend."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_statevector(self, seed):
        hamiltonian = random_hamiltonian(4, 10, seed=seed)
        circuit = random_rotation_circuit(4, seed=seed + 100)
        executor = Executor()
        grouped = executor.evaluate_observable(circuit, hamiltonian,
                                               backend="statevector")[0]
        reference = per_term_energy(executor, circuit, hamiltonian,
                                    "statevector")
        assert abs(grouped - reference) < 1e-10

    @pytest.mark.parametrize("seed", [21, 22])
    def test_density_matrix(self, seed):
        hamiltonian = random_hamiltonian(3, 8, seed=seed)
        circuit = random_rotation_circuit(3, seed=seed + 100)
        noise = pauli_noise_model()
        executor = Executor()
        grouped = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=noise,
            backend="density_matrix")[0]
        reference = per_term_energy(executor, circuit, hamiltonian,
                                    "density_matrix", noise_model=noise)
        assert abs(grouped - reference) < 1e-10

    @pytest.mark.parametrize("seed", [31, 32])
    def test_pauli_propagation_noiseless(self, seed):
        hamiltonian = random_hamiltonian(4, 10, seed=seed)
        circuit = random_clifford_circuit(4, seed=seed + 100)
        executor = Executor()
        grouped = executor.evaluate_observable(
            circuit, hamiltonian, backend="pauli_propagation")[0]
        reference = per_term_energy(executor, circuit, hamiltonian,
                                    "pauli_propagation")
        assert abs(grouped - reference) < 1e-10

    @pytest.mark.parametrize("seed", [41, 42])
    def test_pauli_propagation_noisy(self, seed):
        hamiltonian = random_hamiltonian(4, 10, seed=seed)
        circuit = random_clifford_circuit(4, seed=seed + 100)
        noise = pauli_noise_model(readout=0.0)
        executor = Executor()
        grouped = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=noise,
            backend="pauli_propagation")[0]
        reference = per_term_energy(executor, circuit, hamiltonian,
                                    "pauli_propagation", noise_model=noise)
        assert abs(grouped - reference) < 1e-10

    def test_auto_routing_matches_per_term(self):
        hamiltonian = random_hamiltonian(4, 10, seed=51)
        circuit = random_rotation_circuit(4, seed=151)
        executor = Executor()
        grouped = executor.evaluate_observable(circuit, hamiltonian)[0]
        reference = per_term_energy(executor, circuit, hamiltonian, "auto")
        assert abs(grouped - reference) < 1e-10

    def test_grouped_matches_whole_observable_execute(self):
        hamiltonian = random_hamiltonian(4, 12, seed=61)
        circuit = random_rotation_circuit(4, seed=161)
        executor = Executor()
        grouped = executor.evaluate_observable(circuit, hamiltonian,
                                               backend="statevector")[0]
        whole = executor.run(ExecutionTask(circuit, observable=hamiltonian),
                             backend="statevector")[0].value
        assert abs(grouped - whole) < 1e-10


class TestQubitwiseGrouping:
    def test_groups_cover_all_terms_once(self):
        hamiltonian = random_hamiltonian(4, 12, seed=81,
                                         include_identity=False)
        groups = group_commuting(hamiltonian, qubitwise=True)
        seen = [pauli.key() for group in groups for pauli, _ in group.terms]
        expected = [pauli.key() for pauli, _ in hamiltonian.terms()]
        assert sorted(seen) == sorted(expected)


class TestSingleEvolutionAndCaching:
    def test_one_evolution_per_unique_circuit(self):
        hamiltonian = random_hamiltonian(4, 10, seed=101)
        circuits = [random_rotation_circuit(4, seed=s) for s in (1, 2, 3)]
        executor = Executor()
        executor.evaluate_observable(circuits + [circuits[0]], hamiltonian,
                                     backend="statevector")
        # Three unique circuits, four task slots: exactly three evolutions.
        assert executor.stats.simulator_invocations == 3
        assert executor.stats.grouped_tasks == 4

    def test_repeat_evaluation_is_fully_cached(self):
        hamiltonian = random_hamiltonian(4, 10, seed=111)
        circuit = random_rotation_circuit(4, seed=211)
        executor = Executor()
        first = executor.evaluate_observable(circuit, hamiltonian,
                                             backend="statevector")[0]
        assert executor.stats.simulator_invocations == 1
        second = executor.evaluate_observable(circuit, hamiltonian,
                                              backend="statevector")[0]
        assert executor.stats.simulator_invocations == 1  # no new evolution
        assert executor.stats.term_cache_hits == hamiltonian.num_terms
        assert first == second

    def test_overlapping_hamiltonian_hits_term_cache(self):
        full = random_hamiltonian(4, 12, seed=121)
        circuit = random_rotation_circuit(4, seed=221)
        subset = PauliSum(4)
        for pauli, coeff in list(full.terms())[:5]:
            subset.add_term(pauli, coeff)
        executor = Executor()
        executor.evaluate_observable(circuit, full, backend="statevector")
        invocations = executor.stats.simulator_invocations
        energy = executor.evaluate_observable(circuit, subset,
                                              backend="statevector")[0]
        # Every subset term was already cached: no new evolution at all.
        assert executor.stats.simulator_invocations == invocations
        assert executor.stats.term_cache_hits == subset.num_terms
        reference = per_term_energy(executor, circuit, subset, "statevector")
        assert abs(energy - reference) < 1e-10

    def test_partial_overlap_runs_one_more_evolution(self):
        base = random_hamiltonian(4, 8, seed=131)
        extended = base + random_hamiltonian(4, 4, seed=132)
        circuit = random_rotation_circuit(4, seed=231)
        executor = Executor()
        executor.evaluate_observable(circuit, base, backend="statevector")
        executor.evaluate_observable(circuit, extended,
                                     backend="statevector")
        # The second call may only re-evolve once for the genuinely new terms.
        assert executor.stats.simulator_invocations == 2
        assert executor.stats.term_cache_hits > 0

    def test_use_cache_false_skips_cache(self):
        hamiltonian = random_hamiltonian(4, 8, seed=141)
        circuit = random_rotation_circuit(4, seed=241)
        executor = Executor()
        executor.evaluate_observable(circuit, hamiltonian,
                                     backend="statevector", use_cache=False)
        executor.evaluate_observable(circuit, hamiltonian,
                                     backend="statevector", use_cache=False)
        assert executor.stats.simulator_invocations == 2
        assert executor.stats.term_cache_hits == 0

    def test_threaded_matches_sequential(self):
        hamiltonian = random_hamiltonian(4, 10, seed=161)
        circuits = [random_rotation_circuit(4, seed=s)
                    for s in range(10)]
        sequential = Executor().evaluate_observable(
            circuits, hamiltonian, backend="statevector",
            policy=ExecutionPolicy(max_workers=1))
        threaded = Executor().evaluate_observable(
            circuits, hamiltonian, backend="statevector",
            policy=ExecutionPolicy(max_workers=4))
        assert np.allclose(sequential, threaded, atol=1e-12)


class TestTermExpectations:
    def test_values_align_with_terms_order(self):
        hamiltonian = random_hamiltonian(4, 10, seed=171)
        circuit = random_rotation_circuit(4, seed=271)
        executor = Executor()
        values = executor.term_expectations(circuit, hamiltonian,
                                            backend="statevector")
        state = StatevectorSimulator().run(circuit)
        for (pauli, _), value in zip(hamiltonian.terms(), values):
            single = PauliSum(4, [(pauli, 1.0)])
            assert abs(value - state.expectation(single)) < 1e-10

    def test_identity_term_reports_one(self):
        hamiltonian = PauliSum(3)
        hamiltonian.add_term(PauliString.identity(3), 2.5)
        hamiltonian.add_label("ZZI", 1.0)
        circuit = random_clifford_circuit(3, seed=281)
        for backend in ("statevector", "pauli_propagation"):
            values = term_expectations(circuit, hamiltonian, backend=backend)
            assert abs(values[0] - 1.0) < 1e-12

    def test_module_level_entry_points_share_default_executor(self):
        hamiltonian = random_hamiltonian(4, 8, seed=181)
        circuit = random_rotation_circuit(4, seed=281)
        values = term_expectations(circuit, hamiltonian,
                                   backend="statevector")
        [energy] = evaluate_observable(circuit, hamiltonian,
                                       backend="statevector")
        coefficients = np.array([float(np.real(c))
                                 for _, c in hamiltonian.terms()])
        assert abs(energy - float(np.dot(coefficients, values))) < 1e-10


class TestCustomBackendFallback:
    def test_default_term_expectations_splits_terms(self):
        class MinimalBackend(Backend):
            """A backend that only knows single-task execution."""

            def capabilities(self):
                return BackendCapabilities(name="minimal",
                                           supports_noise=False)

            def _run_task(self, task):
                simulator = StatevectorSimulator()
                if task.is_expectation:
                    return simulator.expectation(task.circuit,
                                                 task.observable)
                return simulator.sample(task.circuit, task.shots)

        hamiltonian = random_hamiltonian(3, 6, seed=191)
        circuit = random_rotation_circuit(3, seed=291)
        backend = MinimalBackend()
        task = ExecutionTask(circuit, observable=hamiltonian)
        values = backend.term_expectations(task)
        # The fallback spends one invocation per term (what adapters avoid).
        assert backend.invocations == hamiltonian.num_terms
        reference = Executor().term_expectations(circuit, hamiltonian,
                                                 backend="statevector")
        assert np.allclose(values, reference, atol=1e-10)

    def test_custom_backend_through_grouped_engine(self):
        class MinimalBackend(Backend):
            def capabilities(self):
                return BackendCapabilities(name="minimal",
                                           supports_noise=False)

            def _run_task(self, task):
                return StatevectorSimulator().expectation(task.circuit,
                                                          task.observable)

        hamiltonian = random_hamiltonian(3, 6, seed=201)
        circuit = random_rotation_circuit(3, seed=301)
        executor = Executor()
        grouped = executor.evaluate_observable(circuit, hamiltonian,
                                               backend=MinimalBackend())[0]
        # The fallback spends one evolution per term and the executor's
        # accounting must say so (adapters with overrides report 1).
        assert (executor.stats.backend_invocations["minimal"]
                == hamiltonian.num_terms)
        reference = per_term_energy(executor, circuit, hamiltonian,
                                    "statevector")
        assert abs(grouped - reference) < 1e-10
