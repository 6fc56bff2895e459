"""Tests for the unified execution-backend API (repro.execution)."""

import math

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.circuits import QuantumCircuit
from repro.execution import (Backend, BackendCapabilities,
                             BackendCapabilityError, BackendRegistry,
                             DensityMatrixBackend, ExecutionError,
                             ExecutionPolicy, ExecutionTask, Executor,
                             ExpectationCache,
                             MAX_DENSITY_MATRIX_QUBITS,
                             MAX_STATEVECTOR_QUBITS,
                             PauliPropagationBackend, RoutingError,
                             StatevectorBackend,
                             UnknownBackendError, available_backends, execute,
                             get_backend, noise_token, observable_fingerprint,
                             route_task)
from repro.operators import PauliSum, ising_hamiltonian
from repro.simulators import (DensityMatrixSimulator, NoiseModel,
                              StatevectorSimulator, depolarizing_channel,
                              expectation_value)


def clifford_circuit(num_qubits=4):
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    return qc


def nonclifford_circuit(num_qubits=3):
    qc = clifford_circuit(num_qubits)
    qc.rz(0.37, 0)
    qc.ry(1.1, num_qubits - 1)
    return qc


def cx_noise():
    return NoiseModel().add_gate_error(depolarizing_channel(0.02, 2), ["cx"])


def cx_readout_noise():
    return NoiseModel().add_gate_error(depolarizing_channel(0.05, 2),
                                       ["cx", "cnot"]).add_readout_error(0.01)


def fresh_executor(**kwargs):
    return Executor(**kwargs)


class TestTask:
    def test_needs_observable_xor_shots(self):
        qc = clifford_circuit(2)
        with pytest.raises(ExecutionError):
            ExecutionTask(qc)
        with pytest.raises(ExecutionError):
            ExecutionTask(qc, observable=ising_hamiltonian(2, 1.0), shots=10)

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionTask(clifford_circuit(3),
                          observable=ising_hamiltonian(4, 1.0))

    def test_cache_key_ignores_metadata(self):
        hamiltonian = ising_hamiltonian(2, 1.0)
        a = ExecutionTask(clifford_circuit(2), observable=hamiltonian,
                          metadata={"tag": "a"})
        b = ExecutionTask(clifford_circuit(2), observable=hamiltonian,
                          metadata={"tag": "b"})
        assert a.cache_key("statevector") == b.cache_key("statevector")

    def test_cache_key_separates_backends_and_noise(self):
        hamiltonian = ising_hamiltonian(2, 1.0)
        task = ExecutionTask(clifford_circuit(2), observable=hamiltonian)
        noisy = ExecutionTask(clifford_circuit(2), observable=hamiltonian,
                              noise_model=cx_noise())
        assert task.cache_key("statevector") \
            != task.cache_key("pauli_propagation")
        assert task.cache_key("pauli_propagation") \
            != noisy.cache_key("pauli_propagation")

    def test_observable_fingerprint_follows_term_order(self):
        # Energies sum terms in terms() order, so a permutation can move
        # the last ulp: it is a different observable to every cache key.
        a = PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5})
        b = PauliSum.from_label_dict({"XI": 0.5, "ZZ": 1.0})
        c = PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.6})
        assert observable_fingerprint(a) != observable_fingerprint(b)
        assert observable_fingerprint(a) != observable_fingerprint(c)
        assert observable_fingerprint(a) == observable_fingerprint(
            PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5}))


class TestRegistry:
    def test_all_three_simulators_reachable(self):
        assert set(available_backends()) >= {"statevector", "density_matrix",
                                             "pauli_propagation"}
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, Backend)
            assert backend.capabilities().name == name

    def test_aliases_resolve_to_shared_instance(self):
        assert get_backend("sv") is get_backend("statevector")
        assert get_backend("dm") is get_backend("density_matrix")
        assert get_backend("pp") is get_backend("pauli_propagation")

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("quantum_teleporter")
        message = str(excinfo.value)
        assert "quantum_teleporter" in message
        assert "statevector" in message

    @pytest.mark.parametrize("name", ["stabilizer", "chp"])
    def test_retired_tableau_names_are_unknown(self, name):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend(name)
        assert excinfo.value.available == (
            "density_matrix", "pauli_propagation", "statevector")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        registry.register("custom", StatevectorBackend)
        with pytest.raises(ExecutionError):
            registry.register("custom", StatevectorBackend)
        registry.register("custom", DensityMatrixBackend, overwrite=True)
        assert registry.get("custom").name == "density_matrix"

    def test_create_returns_fresh_instances(self):
        registry = BackendRegistry()
        registry.register("statevector", StatevectorBackend)
        assert registry.create("statevector") is not registry.get("statevector")


class TestRouting:
    @pytest.mark.parametrize("num_qubits", [4, 60])
    def test_clifford_noiseless_goes_to_pauli_propagation(self, num_qubits):
        task = ExecutionTask(clifford_circuit(num_qubits),
                             observable=ising_hamiltonian(num_qubits, 1.0))
        assert route_task(task) == "pauli_propagation"

    def test_clifford_noisy_goes_to_pauli_propagation(self):
        task = ExecutionTask(clifford_circuit(4),
                             observable=ising_hamiltonian(4, 1.0),
                             noise_model=cx_noise())
        assert route_task(task) == "pauli_propagation"

    def test_nonclifford_noiseless_goes_to_statevector(self):
        task = ExecutionTask(nonclifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0))
        assert route_task(task) == "statevector"

    def test_small_noisy_nonclifford_goes_to_density_matrix(self):
        task = ExecutionTask(nonclifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0),
                             noise_model=cx_noise())
        assert route_task(task) == "density_matrix"

    def test_large_noisy_nonclifford_is_unroutable(self):
        n = MAX_DENSITY_MATRIX_QUBITS + 1
        task = ExecutionTask(nonclifford_circuit(n),
                             observable=ising_hamiltonian(n, 1.0),
                             noise_model=cx_noise())
        with pytest.raises(RoutingError):
            route_task(task)

    def test_task_backend_overrides_routing(self):
        task = ExecutionTask(clifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0),
                             backend="sv")
        assert route_task(task) == "statevector"

    @pytest.mark.parametrize("num_qubits,noise,expected", [
        (20, None, "statevector"),
        (6, cx_noise(), "density_matrix"),
    ], ids=["noiseless-20", "noisy-6"])
    def test_clifford_sampling_routes_like_any_sampling(self, num_qubits,
                                                        noise, expected):
        task = ExecutionTask(clifford_circuit(num_qubits), shots=10,
                             noise_model=noise)
        assert route_task(task) == expected

    @pytest.mark.parametrize("num_qubits,noise,limit", [
        (30, None, MAX_STATEVECTOR_QUBITS),
        (20, cx_noise(), MAX_DENSITY_MATRIX_QUBITS),
    ], ids=["noiseless-30", "noisy-20"])
    def test_wide_clifford_sampling_is_unroutable(self, num_qubits, noise,
                                                  limit):
        task = ExecutionTask(clifford_circuit(num_qubits), shots=10,
                             noise_model=noise)
        with pytest.raises(RoutingError, match=f"tops out at {limit} qubits"):
            route_task(task)

    def test_trivial_noise_model_counts_as_noiseless(self):
        task = ExecutionTask(nonclifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0),
                             noise_model=NoiseModel())
        assert route_task(task) == "statevector"


class TestBackendCapabilities:
    def test_statevector_rejects_noisy_tasks(self):
        backend = StatevectorBackend()
        task = ExecutionTask(clifford_circuit(2),
                             observable=ising_hamiltonian(2, 1.0),
                             noise_model=cx_noise())
        assert not backend.supports(task)
        with pytest.raises(BackendCapabilityError):
            backend.run_batch([task])

    def test_clifford_backends_reject_nonclifford_circuits(self):
        task = ExecutionTask(nonclifford_circuit(2),
                             observable=ising_hamiltonian(2, 1.0))
        assert not PauliPropagationBackend().supports(task)

    def test_pauli_propagation_cannot_sample(self):
        task = ExecutionTask(clifford_circuit(2), shots=16)
        assert not PauliPropagationBackend().supports(task)

    def test_density_matrix_qubit_ceiling(self):
        n = MAX_DENSITY_MATRIX_QUBITS + 1
        task = ExecutionTask(clifford_circuit(n),
                             observable=ising_hamiltonian(n, 1.0))
        assert not DensityMatrixBackend().supports(task)


class TestCorrectness:
    def test_backends_agree_with_direct_simulators(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        noise = cx_noise()
        clifford = clifford_circuit(3)
        smooth = nonclifford_circuit(3)

        executor = fresh_executor()
        sv = executor.run(ExecutionTask(smooth, observable=hamiltonian),
                          backend="statevector")[0]
        assert sv.value == pytest.approx(
            StatevectorSimulator().expectation(smooth, hamiltonian))

        dm = executor.run(ExecutionTask(smooth, observable=hamiltonian,
                                        noise_model=noise),
                          backend="density_matrix")[0]
        assert dm.value == pytest.approx(
            DensityMatrixSimulator(noise).expectation(smooth, hamiltonian))

        pp = executor.run(ExecutionTask(clifford, observable=hamiltonian,
                                        noise_model=noise),
                          backend="pauli_propagation")[0]
        assert pp.value == pytest.approx(
            expectation_value(clifford, hamiltonian, noise))

        noiseless = executor.run(ExecutionTask(clifford,
                                               observable=hamiltonian),
                                 backend="pauli_propagation")[0]
        assert noiseless.value == pytest.approx(
            StatevectorSimulator().expectation(clifford, hamiltonian))

    def test_auto_routing_executes_end_to_end(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        results = execute([
            ExecutionTask(clifford_circuit(3), observable=hamiltonian),
            ExecutionTask(clifford_circuit(3), observable=hamiltonian,
                          noise_model=cx_noise()),
            ExecutionTask(nonclifford_circuit(3), observable=hamiltonian),
        ])
        assert [r.backend_name for r in results] == \
            ["pauli_propagation", "pauli_propagation", "statevector"]
        for result in results:
            assert math.isfinite(result.value)

    def test_sampling_task_returns_counts(self):
        executor = fresh_executor()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = executor.run(ExecutionTask(qc, shots=64),
                              backend="statevector")[0]
        assert result.counts is not None and result.value is None
        assert sum(result.counts.values()) == 64
        assert set(result.counts) <= {"00", "11"}


class TestDedupAndCache:
    def test_duplicates_collapse_to_one_invocation(self):
        """Acceptance: batched execute() with duplicates beats the naive loop."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        executor = fresh_executor()
        backend = StatevectorBackend()
        tasks = [ExecutionTask(nonclifford_circuit(4), observable=hamiltonian)
                 for _ in range(8)]
        results = executor.run(tasks, backend=backend)
        assert backend.invocations == 1  # naive loop would spend 8
        assert len({r.value for r in results}) == 1
        assert [r.source for r in results] == ["backend"] + ["dedup"] * 7
        assert executor.stats.dedup_hits == 7

    def test_cache_hits_across_calls(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        executor = fresh_executor()
        backend = StatevectorBackend()
        task = ExecutionTask(nonclifford_circuit(3), observable=hamiltonian)
        first = executor.run(task, backend=backend)[0]
        second = executor.run(ExecutionTask(nonclifford_circuit(3),
                                            observable=hamiltonian),
                              backend=backend)[0]
        assert backend.invocations == 1
        assert second.source == "cache"
        assert second.value == first.value
        assert executor.cache_stats.hits == 1

    def test_use_cache_false_still_dedups_within_call(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        executor = fresh_executor(use_cache=False)
        backend = StatevectorBackend()
        tasks = [ExecutionTask(clifford_circuit(3), observable=hamiltonian)
                 for _ in range(4)]
        executor.run(tasks, backend=backend)
        assert backend.invocations == 1
        # A second call re-runs the simulator: nothing was cached.
        executor.run(tasks, backend=backend)
        assert backend.invocations == 2

    def test_stochastic_tasks_are_never_shared(self):
        # Sampling draws fresh shots: identical sampling tasks each run.
        executor = fresh_executor()
        backend = StatevectorBackend()
        tasks = [ExecutionTask(clifford_circuit(3), shots=16)
                 for _ in range(3)]
        results = executor.run(tasks, backend=backend)
        assert backend.invocations == 3
        assert all(r.source == "backend" for r in results)

    def test_different_observables_do_not_collide(self):
        executor = fresh_executor()
        circuit = clifford_circuit(2)
        za = executor.run(ExecutionTask(
            circuit, observable=PauliSum.from_label_dict({"ZZ": 1.0})),
            backend="statevector")[0]
        xa = executor.run(ExecutionTask(
            circuit, observable=PauliSum.from_label_dict({"XX": 1.0})),
            backend="statevector")[0]
        assert za.value != pytest.approx(xa.value)

    def test_permuted_observable_sweeps_keep_their_own_energies(self):
        hamiltonian = ising_hamiltonian(4, 1.0)
        reversed_terms = PauliSum(4, reversed(list(hamiltonian.terms())))
        template = FullyConnectedAnsatz(4, 1).build()
        rng = np.random.default_rng(0)
        points = rng.uniform(-math.pi, math.pi, size=(
            32, len(template.ordered_parameters()))).tolist()

        def cold(observable):
            return fresh_executor(use_cache=False).evaluate_sweep(
                template, points, observable, backend="statevector")

        forward, backward = cold(hamiltonian), cold(reversed_terms)
        assert forward != backward  # the orders differ in the last ulp
        shared = fresh_executor()
        for observable, expected in ((hamiltonian, forward),
                                     (reversed_terms, backward)):
            assert shared.evaluate_sweep(template, points, observable,
                                         backend="statevector") == expected

    def test_lru_eviction(self):
        cache = ExpectationCache(max_size=2)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)
        assert cache.get(("a",)) == 1.0  # refresh 'a'
        cache.put(("c",), 3.0)  # evicts 'b'
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1.0
        assert cache.stats.evictions == 1


class TestNoiseTokens:
    def test_token_is_content_addressed(self):
        a = cx_readout_noise()
        b = cx_readout_noise()
        assert a is not b
        assert noise_token(a) == noise_token(b)  # equal content, equal token
        b.add_readout_error(0.2)
        assert noise_token(a) != noise_token(b)

    def test_token_stable_under_equal_readdition(self):
        model = cx_readout_noise()
        before = noise_token(model)
        version_before = model.version
        model.add_readout_error(0.01)  # same value re-set: content unchanged
        assert model.version > version_before  # version still bumps
        assert noise_token(model) == before  # but entries remain valid

    def test_equal_content_models_share_cache_entries(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        circuit = clifford_circuit(3)
        executor = Executor(policy=ExecutionPolicy(parallel="none"))
        first = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=cx_readout_noise(),
            backend="pauli_propagation")[0]
        invocations = executor.stats.simulator_invocations
        second = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=cx_readout_noise(),  # a fresh object
            backend="pauli_propagation")[0]
        assert second == first
        assert executor.stats.simulator_invocations == invocations


class TestExecutorDispatch:
    def test_threaded_matches_sequential(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        rng = np.random.default_rng(5)
        circuits = []
        for _ in range(12):
            qc = clifford_circuit(3)
            qc.rz(float(rng.uniform(0, math.pi)), 0)
            circuits.append(qc)
        tasks = [ExecutionTask(qc, observable=hamiltonian) for qc in circuits]
        sequential = fresh_executor().run(tasks, backend="statevector",
                                          policy=ExecutionPolicy(max_workers=1))
        threaded = fresh_executor().run(tasks, backend="statevector",
                                        policy=ExecutionPolicy(max_workers=4))
        assert [r.value for r in threaded] == \
            pytest.approx([r.value for r in sequential])

    def test_results_align_with_input_order_across_backends(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        tasks = [
            ExecutionTask(nonclifford_circuit(3), observable=hamiltonian),
            ExecutionTask(clifford_circuit(3), observable=hamiltonian,
                          noise_model=cx_noise()),
            ExecutionTask(clifford_circuit(3), observable=hamiltonian),
        ]
        results = fresh_executor().run(tasks)
        assert [r.backend_name for r in results] == \
            ["statevector", "pauli_propagation", "pauli_propagation"]
        assert results[0].task is tasks[0]

    def test_empty_task_list(self):
        assert fresh_executor().run([]) == []

    def test_worker_exception_propagates(self):
        hamiltonian = ising_hamiltonian(2, 1.0)
        task = ExecutionTask(nonclifford_circuit(2), observable=hamiltonian,
                             noise_model=cx_noise())
        with pytest.raises(BackendCapabilityError):
            fresh_executor().run(task, backend="statevector")

    def test_custom_backend_through_registry(self):
        calls = []

        class RecordingBackend(Backend):
            def capabilities(self):
                return BackendCapabilities(name="recording",
                                           supports_noise=False)

            def _run_task(self, task):
                calls.append(task)
                return 42.0

        registry = BackendRegistry()
        registry.register("recording", RecordingBackend)
        executor = Executor(registry=registry)
        result = executor.run(ExecutionTask(
            clifford_circuit(2),
            observable=ising_hamiltonian(2, 1.0)), backend="recording")[0]
        assert result.value == 42.0
        assert len(calls) == 1


class TestEvaluatorIntegration:
    def test_all_four_evaluators_match_seed_semantics(self):
        from repro.vqe.energy import BackendEnergyEvaluator
        from repro.circuits.transpile import (decompose_to_clifford_rz,
                                              merge_rz_runs)
        hamiltonian = ising_hamiltonian(3, 1.0)
        noise = cx_noise()
        circuit = clifford_circuit(3)

        exact = BackendEnergyEvaluator.exact(hamiltonian)
        assert exact(circuit) == pytest.approx(
            StatevectorSimulator().expectation(circuit, hamiltonian))
        assert exact.num_evaluations == 1

        canonical = merge_rz_runs(decompose_to_clifford_rz(circuit))
        dm = BackendEnergyEvaluator.density_matrix(hamiltonian, noise)
        assert dm(circuit) == pytest.approx(
            DensityMatrixSimulator(noise).expectation(canonical, hamiltonian))

        clifford = BackendEnergyEvaluator.clifford(hamiltonian, noise)
        assert clifford(circuit) == pytest.approx(
            expectation_value(canonical, hamiltonian, noise))

    def test_legacy_evaluator_shims_are_gone(self):
        """The deprecated constructor shims were removed after their one
        release of grace (PR 9 migrated every call site to the
        BackendEnergyEvaluator classmethod presets); importing them must
        fail so stale call sites surface as ImportError, not behavior."""
        import repro.vqe
        import repro.vqe.energy
        for name in ("ExactEnergyEvaluator", "DensityMatrixEnergyEvaluator",
                     "CliffordEnergyEvaluator",
                     "MonteCarloStabilizerEvaluator"):
            assert not hasattr(repro.vqe, name), name
            assert not hasattr(repro.vqe.energy, name), name
            assert name not in repro.vqe.__all__


class TestReviewRegressions:
    def test_mutated_noise_model_invalidates_cache(self):
        """In-place add_* edits must not serve stale cached expectations."""
        hamiltonian = PauliSum.from_label_dict({"ZZ": 1.0})
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        noise = NoiseModel().add_gate_error(depolarizing_channel(0.05, 2),
                                            ["cx"])
        executor = fresh_executor()
        first = executor.run(ExecutionTask(qc, observable=hamiltonian,
                                           noise_model=noise),
                             backend="pauli_propagation")[0]
        noise.add_gate_error(depolarizing_channel(0.4, 2), ["cx"])
        second = executor.run(ExecutionTask(qc, observable=hamiltonian,
                                            noise_model=noise),
                              backend="pauli_propagation")[0]
        assert second.source == "backend"
        assert second.value != pytest.approx(first.value)
        assert second.value == pytest.approx(
            expectation_value(qc, hamiltonian, noise))

    def test_explicit_backend_may_exceed_advisory_qubit_cap(self):
        """Naming a backend bypasses max_qubits, like calling the simulator."""

        class TinyBackend(Backend):
            def capabilities(self):
                return BackendCapabilities(name="tiny", supports_noise=False,
                                           max_qubits=2)

            def _run_task(self, task):
                return 0.5

        backend = TinyBackend()
        task = ExecutionTask(clifford_circuit(3),
                             observable=ising_hamiltonian(3, 1.0))
        # Advisory: supports() (used by routing) still says no ...
        assert not backend.supports(task)
        # ... but explicit dispatch runs, both via instance and via name.
        assert fresh_executor().run(task, backend=backend)[0].value == 0.5
        registry = BackendRegistry()
        registry.register("tiny", lambda: backend)
        assert Executor(registry=registry).run(
            task, backend="tiny")[0].value == 0.5
