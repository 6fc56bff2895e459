"""Tests for the circuit-compile layer and batched parameter-sweep execution.

Covers the compile/bind/batch pipeline of :mod:`repro.simulators.program`:
compiled-vs-interpreted equality on randomized circuits (including barriers,
measurements, resets and the diagonal/permutation fast paths), fused-vs-
unfused equality, batch-vs-loop equality, program-cache keying (fingerprint +
``NoiseModel.version``), the ``evaluate_sweep`` pipeline and its cache/stats
accounting, the batched-objective optimizer protocol, and the satellite
perf fixes (``Gate.matrix`` caching, vectorized ``sample_counts``).
"""

import math
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.qml import VariationalClassifier, make_blobs_dataset
from repro.algorithms.vqd import VQD
from repro.ansatz import FullyConnectedAnsatz, LinearAnsatz, UCCSDAnsatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.parameters import Parameter
from repro.execution import Executor
from repro.operators import heisenberg_hamiltonian, ising_hamiltonian
from repro.simulators.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.simulators.kernels import (statevector_term_expectations,
                                      statevector_term_expectations_batch)
from repro.simulators.noise import (NoiseModel, RESET_CHANNEL,
                                    amplitude_damping_channel,
                                    depolarizing_channel)
from repro.simulators import program as program_module
from repro.simulators.program import (OP_CHANNEL, OP_DIAG, OP_PERM, OP_RESET,
                                      OP_UNITARY, clear_program_cache,
                                      compile_circuit, program_cache_counters,
                                      run_batch, run_interpreted)
from repro.simulators.statevector import (StatevectorSimulator, Statevector,
                                          circuit_unitary,
                                          counts_from_outcomes)
from repro.vqe.clifford_vqe import CliffordVQE
from repro.vqe.energy import BackendEnergyEvaluator
from repro.vqe.optimizers import GeneticOptimizer, SPSAOptimizer
from repro.vqe.runner import VQE

from reference.density_matrix import naive_density_matrix_run


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_GATE_POOL = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx",
              "rx", "ry", "rz", "u3", "cx", "cz", "swap", "rzz",
              "barrier", "measure"]


def random_circuit(num_qubits, depth, rng, pool=_GATE_POOL):
    """A random circuit over the full gate pool (no resets)."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        name = pool[int(rng.integers(len(pool)))]
        if name == "barrier":
            circuit.barrier()
            continue
        if name == "measure":
            circuit.measure(int(rng.integers(num_qubits)))
            continue
        if name in ("cx", "cz", "swap", "rzz"):
            a, b = rng.choice(num_qubits, size=2, replace=False)
            if name == "rzz":
                circuit.rzz(float(rng.uniform(-np.pi, np.pi)), int(a), int(b))
            else:
                getattr(circuit, name)(int(a), int(b))
            continue
        qubit = int(rng.integers(num_qubits))
        if name in ("rx", "ry", "rz"):
            getattr(circuit, name)(float(rng.uniform(-np.pi, np.pi)), qubit)
        elif name == "u3":
            circuit.u3(*(float(v) for v in rng.uniform(-np.pi, np.pi, 3)),
                       qubit)
        else:
            getattr(circuit, name)(qubit)
    return circuit


def make_noise_model():
    noise = NoiseModel()
    noise.add_gate_error(depolarizing_channel(0.01, 2), ["cx", "cz", "swap"])
    noise.add_gate_error(depolarizing_channel(0.003), ["h", "x", "rz", "rx"])
    noise.add_idle_error(amplitude_damping_channel(0.01))
    noise.add_readout_error(0.02)
    return noise


# ---------------------------------------------------------------------------
# Compiled-vs-interpreted equality
# ---------------------------------------------------------------------------

class TestCompiledStatevector:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_match_interpreter(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(4, 40, rng)
        compiled = compile_circuit(circuit).run_statevector()
        reference = run_interpreted(circuit)
        np.testing.assert_allclose(compiled, reference, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_fused_matches_unfused(self, seed):
        rng = np.random.default_rng(100 + seed)
        circuit = random_circuit(4, 40, rng)
        fused = compile_circuit(circuit, fuse=True).run_statevector()
        unfused = compile_circuit(circuit, fuse=False).run_statevector()
        np.testing.assert_allclose(fused, unfused, atol=1e-12)

    def test_diagonal_fast_path(self):
        circuit = QuantumCircuit(3)
        for qubit in range(3):
            circuit.h(qubit)
        circuit.rz(0.7, 0).t(1).s(2).z(0)
        circuit.cz(0, 1).rzz(-1.3, 1, 2).sdg(0).tdg(2)
        program = compile_circuit(circuit, fuse=False)
        kinds = {op.kind for op in program.ops}
        assert OP_DIAG in kinds  # rz/cz/rzz/z/s/t lowered to phase vectors
        np.testing.assert_allclose(program.run_statevector(),
                                   run_interpreted(circuit), atol=1e-12)

    def test_permutation_fast_path_collapses_cnot_ladder(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        for a in range(4):
            for b in range(a + 1, 4):
                circuit.cx(a, b)
        circuit.x(2).y(3).swap(0, 1)
        program = compile_circuit(circuit)
        perm_ops = [op for op in program.ops if op.kind == OP_PERM]
        # The whole monomial-gate run fuses into a single gather op.
        assert len(perm_ops) == 1
        np.testing.assert_allclose(program.run_statevector(),
                                   run_interpreted(circuit), atol=1e-12)

    def test_adjacent_1q_gates_fuse(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).rx(0.3, 0).ry(0.2, 0)
        circuit.h(1)
        program = compile_circuit(circuit)
        gate_ops = [op for op in program.ops
                    if op.kind in (OP_UNITARY, OP_DIAG, OP_PERM)]
        assert len(gate_ops) == 2  # one fused op per qubit
        np.testing.assert_allclose(program.run_statevector(),
                                   run_interpreted(circuit), atol=1e-12)

    def test_deterministic_reset(self):
        circuit = QuantumCircuit(2)
        circuit.x(0).reset(0).h(1)
        state = StatevectorSimulator(seed=1).run(circuit)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[2] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.data, expected, atol=1e-12)

    def test_initial_state_and_measure_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).measure(0).cx(0, 1)
        initial = Statevector.from_bitstring([0, 1])
        out = StatevectorSimulator().run(circuit, initial).data
        reference = run_interpreted(circuit, initial_state=initial.data)
        np.testing.assert_allclose(out, reference, atol=1e-12)

    def test_circuit_unitary_matches_interpreted_columns(self):
        rng = np.random.default_rng(7)
        circuit = random_circuit(3, 20, rng,
                                 pool=[g for g in _GATE_POOL
                                       if g != "measure"])
        unitary = circuit_unitary(circuit)
        for basis in range(8):
            data = np.zeros(8, dtype=complex)
            data[basis] = 1.0
            column = run_interpreted(circuit.without_measurements(),
                                     initial_state=data)
            np.testing.assert_allclose(unitary[:, basis], column, atol=1e-12)


class TestCompiledDensityMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_run_matches_naive_loop(self, seed):
        rng = np.random.default_rng(200 + seed)
        circuit = random_circuit(3, 25, rng)
        circuit.reset(int(rng.integers(3)))
        circuit.measure_all()
        simulator = DensityMatrixSimulator(make_noise_model())
        for apply_measure_noise in (False, True):
            compiled = simulator.run(
                circuit, apply_measure_noise=apply_measure_noise).data
            reference = naive_density_matrix_run(
                simulator.noise_model, circuit,
                apply_measure_noise=apply_measure_noise)
            np.testing.assert_allclose(compiled, reference, atol=1e-12)

    def test_noiseless_run_matches_statevector(self):
        rng = np.random.default_rng(11)
        circuit = random_circuit(3, 25, rng,
                                 pool=[g for g in _GATE_POOL
                                       if g != "measure"])
        rho = DensityMatrixSimulator().run(circuit).data
        state = run_interpreted(circuit)
        np.testing.assert_allclose(rho, np.outer(state, state.conj()),
                                   atol=1e-12)

    def test_reset_channel_constant(self):
        # The hoisted module constant is the projective-reset channel.
        rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        out = RESET_CHANNEL.apply_to_density_matrix(rho)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_channel_ops_share_the_channel_superoperator(self):
        noise = make_noise_model()
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 2).reset(1)
        program = compile_circuit(circuit, noise_model=noise, use_cache=False)
        idle = noise.idle_channel.superoperator()
        idle_ops = [op for op in program.ops
                    if op.kind == OP_CHANNEL and op.data is idle]
        assert idle_ops, "idle slots must carry the idle channel's array"
        resets = [op for op in program.ops if op.kind == OP_RESET]
        assert [op.data for op in resets] == [RESET_CHANNEL.superoperator()]
        assert resets[0].data is RESET_CHANNEL.superoperator()
        for op in program.ops:
            if op.kind == OP_CHANNEL:
                assert op.data.shape == (4 ** len(op.qubits),) * 2
                assert not op.data.flags.writeable


# ---------------------------------------------------------------------------
# Memoized static lowering
# ---------------------------------------------------------------------------

class TestStaticLoweringMemo:
    def _lowered(self, build):
        circuit = QuantumCircuit(1)
        build(circuit)
        program = compile_circuit(circuit, use_cache=False)
        assert len(program.ops) == 1
        for basis in range(2):
            state = np.zeros(2, dtype=complex)
            state[basis] = 1.0
            np.testing.assert_allclose(
                program.run_statevector(state),
                list(circuit)[0].gate.matrix()[:, basis], atol=1e-15)
        return program.ops[0]

    def test_gate_name_alone_does_not_key_the_lowering(self):
        # A memo keyed by gate name would lower rx(0.3) like rx(π) (or the
        # other way round) and ry(0) like any other ry.
        x = self._lowered(lambda c: c.x(0))
        rx_pi = self._lowered(lambda c: c.rx(math.pi, 0))
        rx_small = self._lowered(lambda c: c.rx(0.3, 0))
        ry_zero = self._lowered(lambda c: c.ry(0.0, 0))
        assert x.kind == OP_PERM
        np.testing.assert_array_equal(x.data[0], [1, 0])
        assert x.data[1] is None
        assert rx_pi.kind == OP_PERM
        np.testing.assert_array_equal(rx_pi.data[0], [1, 0])
        np.testing.assert_allclose(rx_pi.data[1], [-1j, -1j], atol=1e-15)
        assert rx_small.kind == OP_UNITARY
        assert ry_zero.kind == OP_PERM
        np.testing.assert_array_equal(ry_zero.data[0], [0, 1])
        assert ry_zero.data[1] is None

    def test_static_gates_share_their_lowered_form(self):
        first = self._lowered(lambda c: c.x(0))
        second = self._lowered(lambda c: c.x(0))
        assert first.data is second.data
        assert not first.data[0].flags.writeable

    def test_bound_circuit_compiles_bitwise_identically(self):
        template = FullyConnectedAnsatz(5, 2).build()
        rng = np.random.default_rng(3)
        bound = template.bind_parameters(dict(zip(
            template.ordered_parameters(),
            rng.uniform(-np.pi, np.pi, len(template.ordered_parameters())))))
        first = compile_circuit(bound, use_cache=False)
        second = compile_circuit(bound, use_cache=False)
        assert first is not second
        np.testing.assert_array_equal(first.run_statevector(),
                                      second.run_statevector())
        assert any(op.kind == OP_PERM for op in first.ops)
        for a, b in zip(first.ops, second.ops):
            if a.kind == OP_PERM:
                # Gather tables are shared read-only between programs.
                assert a.full_indices(5) is b.full_indices(5)
                assert not a.full_indices(5)[0].flags.writeable

    def test_gather_table_memo_stays_under_its_byte_cap(self):
        clear_program_cache()
        n = 20
        cap = program_module._PERM_TABLE_MAX_BYTES
        try:
            for target in range(1, 11):
                circuit = QuantumCircuit(n)
                circuit.cx(0, target).cx(target, n - 1).y(target)
                program = compile_circuit(circuit, use_cache=False)
                assert [op.kind for op in program.ops] == [OP_PERM]
                assert 0 < program_module._PERM_TABLE_BYTES <= cap
            tables = program_module._PERM_TABLES
            assert 0 < len(tables) < 10  # the oldest tables were evicted
            assert program_module._PERM_TABLE_BYTES == sum(
                nbytes for _, nbytes in tables.values())
        finally:
            clear_program_cache()
        assert program_module._PERM_TABLE_BYTES == 0

    def test_gather_table_memo_accounting_under_concurrent_compiles(
            self, monkeypatch):
        # Threads insert and evict concurrently; a lost update would leave
        # the byte count disagreeing with the entries, or over the cap.
        n = 12
        table_bytes = (1 << n) * 8
        monkeypatch.setattr(program_module, "_PERM_TABLE_MAX_BYTES",
                            3 * table_bytes)
        clear_program_cache()
        errors = []

        def compile_ladders(offset):
            try:
                for step in range(40):
                    a = (offset + step) % n
                    b = (a + 1 + step % (n - 1)) % n
                    circuit = QuantumCircuit(n)
                    circuit.cx(a, b).swap(b, (b + 1) % n)
                    compile_circuit(circuit, use_cache=False)
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_ladders, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        tables = program_module._PERM_TABLES
        assert program_module._PERM_TABLE_BYTES == sum(
            nbytes for _, nbytes in tables.values())
        assert program_module._PERM_TABLE_BYTES <= 3 * table_bytes
        clear_program_cache()


# ---------------------------------------------------------------------------
# Binding and batching
# ---------------------------------------------------------------------------

class TestBindAndBatch:
    def test_bind_refreshes_only_parametric_ops(self):
        theta = [Parameter(f"t{i}") for i in range(2)]
        circuit = QuantumCircuit(2)
        circuit.h(0).rx(theta[0], 0).cx(0, 1).rz(theta[1], 1)
        template = compile_circuit(circuit)
        assert template.is_parametric and not template.is_bound
        bound_a = template.bind([0.3, -0.4])
        bound_b = template.bind([0.1, 0.2])
        static_indices = [index for index, op in enumerate(template.ops)
                          if not op.is_parametric]
        for index in static_indices:
            assert bound_a.ops[index] is template.ops[index]
            assert bound_b.ops[index] is template.ops[index]
        reference = circuit.bind_parameters({theta[0]: 0.3, theta[1]: -0.4})
        np.testing.assert_allclose(bound_a.run_statevector(),
                                   run_interpreted(reference), atol=1e-12)

    @pytest.mark.parametrize("num_qubits,depth", [(3, 1), (5, 2)])
    def test_batch_matches_loop(self, num_qubits, depth):
        rng = np.random.default_rng(31)
        template = LinearAnsatz(num_qubits, depth=depth).build()
        program = compile_circuit(template)
        sweep = rng.standard_normal((6, len(template.ordered_parameters())))
        states = run_batch([program.bind(point) for point in sweep])
        assert states.shape == (6, 2 ** num_qubits)
        for row, point in enumerate(sweep):
            reference = run_interpreted(template.bind_parameters(list(point)))
            np.testing.assert_allclose(states[row], reference, atol=1e-12)

    def test_run_sweep_convenience(self):
        template = LinearAnsatz(3, depth=1).build()
        program = compile_circuit(template)
        sweep = [[0.1] * 6, [0.2] * 6]
        states = program.run_sweep(sweep)
        np.testing.assert_allclose(
            states[1],
            program.bind(sweep[1]).run_statevector(), atol=1e-12)

    def test_mixed_origin_batch_with_distinct_monomials(self):
        # Two structure-compatible programs whose PERM ops differ (cx vs
        # swap) must each apply their *own* gather, not the lead's.
        circuit_a = QuantumCircuit(2)
        circuit_a.h(0).cx(0, 1)
        circuit_b = QuantumCircuit(2)
        circuit_b.h(0).swap(0, 1)
        program_a = compile_circuit(circuit_a)
        program_b = compile_circuit(circuit_b)
        assert program_a.structure_key() == program_b.structure_key()
        states = run_batch([program_a, program_b])
        np.testing.assert_allclose(states[0], run_interpreted(circuit_a),
                                   atol=1e-12)
        np.testing.assert_allclose(states[1], run_interpreted(circuit_b),
                                   atol=1e-12)

    def test_batch_rejects_mixed_structures(self):
        circuit_a = QuantumCircuit(2)
        circuit_a.h(0)
        circuit_b = QuantumCircuit(2)
        circuit_b.cx(0, 1)
        with pytest.raises(ValueError, match="structure"):
            run_batch([compile_circuit(circuit_a),
                       compile_circuit(circuit_b)])

    def test_batch_rejects_resets_and_noise(self):
        circuit = QuantumCircuit(2)
        circuit.x(0).reset(0)
        with pytest.raises(ValueError, match="reset"):
            run_batch([compile_circuit(circuit)])
        noisy = compile_circuit(QuantumCircuit(2).h(0),
                                noise_model=make_noise_model())
        with pytest.raises(ValueError, match="nois"):
            run_batch([noisy])

    def test_batch_kernel_matches_single(self):
        rng = np.random.default_rng(17)
        hamiltonian = heisenberg_hamiltonian(4)
        states = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        batch = statevector_term_expectations_batch(states,
                                                    observable=hamiltonian)
        for row in range(5):
            single = statevector_term_expectations(states[row],
                                                   observable=hamiltonian)
            np.testing.assert_allclose(batch[row], single, atol=1e-12)


# ---------------------------------------------------------------------------
# Stacked sweep binding
# ---------------------------------------------------------------------------

def _mixed_template():
    """Fused parametric ops of every shape: dense and diagonal factors,
    static factors before, between and after parametric ones, u3, rzz,
    affine forms and parameters shared across ops."""
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    circuit = QuantumCircuit(4)
    circuit.h(0).rz(2 * a + math.pi / 2, 0).rx(b, 0).t(0).s(0)
    circuit.rz(a, 1).t(1).rz(-b + 0.3, 1)
    circuit.rzz(a - 0.5 * c, 1, 2).cz(1, 2).rzz(0.4, 1, 2)
    circuit.u3(c, 0.1, b + a, 2).ry(3 * b, 2).h(2)
    circuit.cx(0, 1).ry(a, 0).rzz(c, 3, 0)
    circuit.sx(3).rx(c - a, 3).tdg(3)
    return circuit


_SWEEP_TEMPLATES = {
    "fche": lambda: FullyConnectedAnsatz(5, 2).build(),
    "hardware_efficient": lambda: LinearAnsatz(4, 2).build(),
    "uccsd": lambda: UCCSDAnsatz(4, 1).build(),
    "mixed": _mixed_template,
}


class TestStackedSweepBind:
    @pytest.mark.parametrize("name", sorted(_SWEEP_TEMPLATES))
    @pytest.mark.parametrize("points", [1, 2, 7, 16])
    def test_run_sweep_is_bitwise_the_per_point_bind(self, name, points):
        template = _SWEEP_TEMPLATES[name]()
        program = compile_circuit(template)
        assert program._parametric_indices
        rng = np.random.default_rng(points)
        sweep = rng.uniform(-7.0, 7.0,
                            (points, len(template.ordered_parameters())))
        # Clifford angles and signed zeros hit the exact-value corners.
        sweep[0, ::2] = np.pi / 2
        sweep[-1, 1::3] = -0.0
        stacked = program.run_sweep(sweep)
        assert np.array_equal(
            stacked, run_batch([program.bind(point) for point in sweep]))
        assert np.array_equal(program.run_sweep(sweep.tolist()), stacked)

    def test_template_covers_every_fused_op_shape(self):
        program = compile_circuit(_mixed_template())
        shapes = set()
        for op in program.ops:
            if op.is_parametric:
                shapes.add((op.kind, tuple(
                    ("param" if factor.is_parametric else "static",
                     factor.diag) for factor in op.factors)))
        kinds = {kind for kind, _ in shapes}
        assert kinds == {OP_UNITARY, OP_DIAG}
        factors = {factor for _, shape in shapes for factor in shape}
        assert factors == {("param", True), ("param", False),
                           ("static", True), ("static", False)}

    def test_shared_parameters_stack_per_slot(self):
        template = UCCSDAnsatz(4, 1).build()
        program = compile_circuit(template)
        forms = [form for index in program._parametric_indices
                 for factor in program.ops[index].factors
                 if factor.is_parametric for form in factor.forms]
        positions = [position for _, terms in forms
                     for position, _ in terms]
        assert len(positions) > len(set(positions))  # parameters reused
        assert any(coeff != 1.0 for _, terms in forms for _, coeff in terms)

    def test_process_point_blocks_bind_stacked_in_workers(self):
        # 32 unique points shard into 16 two-point blocks; each worker
        # binds its block stacked, bitwise like per-point binds of the same
        # block read out together.
        template = FullyConnectedAnsatz(5, 1).build()
        hamiltonian = ising_hamiltonian(5)
        rng = np.random.default_rng(11)
        sweep = rng.uniform(-3.0, 3.0,
                            (32, len(template.ordered_parameters())))
        executor = Executor(use_cache=False)
        energies = executor.evaluate_sweep(template, sweep, hamiltonian,
                                           backend="statevector",
                                           parallel="process", max_workers=2)
        assert executor.stats.process_shards == 16
        program = compile_circuit(template)
        coefficients = np.array([float(np.real(coeff))
                                 for _, coeff in hamiltonian.terms()])
        expected = []
        for start in range(0, 32, 2):
            states = run_batch([program.bind(point)
                                for point in sweep[start:start + 2]])
            values = statevector_term_expectations_batch(
                states, observable=hamiltonian)
            expected.extend(float(np.dot(coefficients, row))
                            for row in values)
        assert energies == expected

    def test_run_sweep_validates_shapes(self):
        program = compile_circuit(LinearAnsatz(3, 1).build())
        assert program.run_sweep([]).shape == (0, 0)
        with pytest.raises(ValueError, match="parameter values"):
            program.run_sweep([[0.1, 0.2]])
        noisy = compile_circuit(_mixed_template(),
                                noise_model=make_noise_model())
        with pytest.raises(ValueError, match="nois"):
            noisy.run_sweep([[0.1, 0.2, 0.3]])


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

class TestProgramCache:
    def test_repeat_compile_hits(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        first = compile_circuit(circuit)
        compiled_before, hits_before = program_cache_counters()
        again = compile_circuit(circuit)
        compiled_after, hits_after = program_cache_counters()
        assert again is first
        assert hits_after == hits_before + 1
        assert compiled_after == compiled_before

    def test_equal_circuits_share_programs(self):
        def build():
            circuit = QuantumCircuit(2)
            return circuit.h(0).rz(0.25, 1)
        assert compile_circuit(build()) is compile_circuit(build())

    def test_noise_version_bump_invalidates(self):
        noise = make_noise_model()
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        first = compile_circuit(circuit, noise_model=noise)
        assert compile_circuit(circuit, noise_model=noise) is first
        noise.add_readout_error(0.05)  # bumps NoiseModel.version
        recompiled = compile_circuit(circuit, noise_model=noise)
        assert recompiled is not first
        compiled_before, _ = program_cache_counters()
        assert compile_circuit(circuit, noise_model=noise) is recompiled
        assert program_cache_counters()[0] == compiled_before

    def test_noiseless_and_noisy_programs_are_distinct(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        noiseless = compile_circuit(circuit)
        noisy = compile_circuit(circuit, noise_model=make_noise_model())
        assert noiseless is not noisy
        assert noisy.has_channels and not noiseless.has_channels

    def test_equal_templates_with_distinct_parameters_bind_by_mapping(self):
        # Structurally identical templates built from distinct Parameter
        # objects share a fingerprint, but each must get a program holding
        # its *own* Parameter identities so mapping-based bind() works.
        def build():
            theta = Parameter("θ")
            circuit = QuantumCircuit(1)
            circuit.h(0).rx(theta, 0)
            return circuit, theta
        circuit_a, theta_a = build()
        circuit_b, theta_b = build()
        assert circuit_a.fingerprint() == circuit_b.fingerprint()
        program_a = compile_circuit(circuit_a)
        program_b = compile_circuit(circuit_b)
        assert program_a is not program_b
        np.testing.assert_allclose(
            program_b.bind({theta_b: 0.7}).run_statevector(),
            run_interpreted(circuit_b.bind_parameters({theta_b: 0.7})),
            atol=1e-12)
        assert compile_circuit(circuit_a) is program_a  # identity-keyed hit

    def test_equal_templates_share_one_lowering(self):
        clear_program_cache()
        circuit_a = FullyConnectedAnsatz(4, 1).build()
        circuit_b = FullyConnectedAnsatz(4, 1).build()
        assert set(circuit_a.ordered_parameters()).isdisjoint(
            circuit_b.ordered_parameters())
        program_a = compile_circuit(circuit_a)
        assert program_cache_counters() == (1, 0)
        program_b = compile_circuit(circuit_b)
        # The second template costs no lowering: a program-cache hit that
        # hands back a view over the same ops with its own parameters.
        assert program_cache_counters() == (1, 1)
        assert program_b is not program_a
        assert program_b.ops is program_a.ops
        assert program_b.parameters == circuit_b.ordered_parameters()
        assert compile_circuit(circuit_b) is program_b
        assert program_cache_counters() == (1, 2)
        values = np.linspace(-1.0, 1.0, len(program_a.parameters))
        bound_b = program_b.bind(dict(zip(circuit_b.ordered_parameters(),
                                          values)))
        assert np.array_equal(bound_b.run_statevector(),
                              program_a.bind(values).run_statevector())
        with pytest.raises(ValueError, match="unbound"):
            program_b.bind(dict(zip(circuit_a.ordered_parameters(), values)))

    def test_views_stay_off_the_shared_cache_limits(self):
        from repro.simulators import program as program_module
        clear_program_cache()
        templates = [FullyConnectedAnsatz(3, 1).build()
                     for _ in range(program_module._MAX_VIEWS + 4)]
        lowering = compile_circuit(templates[0])
        views = [compile_circuit(template) for template in templates[1:]]
        # One shared-cache entry charged once, however many identities.
        assert len(program_module._PROGRAM_CACHE) == 1
        assert program_module._CACHE_BYTES == \
            program_module._program_nbytes(lowering)
        assert all(view.ops is lowering.ops for view in views)
        assert len(lowering._views) == program_module._MAX_VIEWS
        # The newest views are kept; an evicted identity gets a fresh view.
        assert compile_circuit(templates[-1]) is views[-1]
        assert compile_circuit(templates[1]) is not views[0]
        assert program_cache_counters() == (1, len(templates) + 1)

    def test_term_order_keys_its_own_lowering(self):
        # Same fingerprint, different term order inside one expression: the
        # bound angle is a different float sum, so the lowerings differ.
        def build(swap):
            a, b = Parameter("a"), Parameter("b")
            circuit = QuantumCircuit(1)
            circuit.rx(a, 0).ry(b, 0)
            circuit.rz(((b + a) if swap else (a + b)) + 0.3, 0)
            return circuit
        plain, swapped = build(False), build(True)
        assert plain.fingerprint() == swapped.fingerprint()
        assert compile_circuit(plain).ops is not compile_circuit(swapped).ops
        values = [0.1, 0.2]  # (0.3 + 0.1) + 0.2 != (0.3 + 0.2) + 0.1
        for circuit in (plain, swapped):
            assert np.array_equal(
                compile_circuit(circuit).bind(values).run_statevector(),
                compile_circuit(circuit.bind_parameters(values))
                .run_statevector())

    def test_shared_vs_distinct_parameters_never_collide(self):
        # One θ reused twice and two distinct θs of the same name are
        # different templates; the fingerprint-keyed program cache must not
        # hand one the other's binding pattern.
        shared = Parameter("θ")
        reused = QuantumCircuit(2)
        reused.rx(shared, 0).rx(shared, 1)
        distinct = QuantumCircuit(2)
        distinct.rx(Parameter("θ"), 0).rx(Parameter("θ"), 1)
        assert reused.fingerprint() != distinct.fingerprint()
        program_reused = compile_circuit(reused)
        program_distinct = compile_circuit(distinct)
        assert program_reused is not program_distinct
        np.testing.assert_allclose(
            program_reused.bind([0.3]).run_statevector(),
            run_interpreted(reused.bind_parameters([0.3])), atol=1e-12)
        np.testing.assert_allclose(
            program_distinct.bind([0.3, -0.8]).run_statevector(),
            run_interpreted(distinct.bind_parameters([0.3, -0.8])),
            atol=1e-12)

    def test_rebinding_reuses_cached_template(self):
        theta = Parameter("θ")
        circuit = QuantumCircuit(1)
        circuit.h(0).rx(theta, 0)
        template = compile_circuit(circuit)
        _, hits_before = program_cache_counters()
        template_again = compile_circuit(circuit)
        assert template_again is template
        assert program_cache_counters()[1] == hits_before + 1
        bound = template.bind([0.4])
        assert bound is not template and bound.is_bound
        # Binding alone never recompiles the structure.
        compiled_now, _ = program_cache_counters()
        template.bind([0.8])
        assert program_cache_counters()[0] == compiled_now


# ---------------------------------------------------------------------------
# evaluate_sweep pipeline
# ---------------------------------------------------------------------------

class TestEvaluateSweep:
    def setup_method(self):
        self.hamiltonian = ising_hamiltonian(5, coupling=1.0)
        self.template = FullyConnectedAnsatz(5, depth=1).build()
        rng = np.random.default_rng(23)
        self.sweep = rng.standard_normal(
            (6, len(self.template.ordered_parameters())))

    def test_matches_grouped_per_circuit_path(self):
        executor = Executor()
        energies = executor.evaluate_sweep(self.template, self.sweep,
                                           self.hamiltonian,
                                           backend="statevector")
        reference = Executor().evaluate_observable(
            [self.template.bind_parameters(list(point))
             for point in self.sweep],
            self.hamiltonian, backend="statevector")
        np.testing.assert_allclose(energies, reference, atol=1e-10)
        assert executor.stats.backend_invocations["statevector"] == 6

    def test_second_sweep_is_cache_served(self):
        # Earlier tests lowered this template's structure; start cold so the
        # first sweep's one lowering is a compile.
        clear_program_cache()
        executor = Executor()
        first = executor.evaluate_sweep(self.template, self.sweep,
                                        self.hamiltonian,
                                        backend="statevector")
        invocations = executor.stats.simulator_invocations
        second = executor.evaluate_sweep(self.template, self.sweep,
                                         self.hamiltonian,
                                         backend="statevector")
        assert second == first
        assert executor.stats.simulator_invocations == invocations
        # The fully cached repeat sweep never reaches the compile layer:
        # no new lowering, no program-cache probe — term values come
        # straight from the expectation cache.
        assert executor.stats.programs_compiled == 1
        assert executor.stats.program_cache_hits == 0
        assert executor.stats.term_cache_hits \
            >= len(self.sweep) * self.hamiltonian.num_terms

    def test_duplicate_points_dedup(self):
        executor = Executor()
        duplicated = [list(self.sweep[0])] * 3 + [list(self.sweep[1])]
        executor.evaluate_sweep(self.template, duplicated, self.hamiltonian,
                                backend="statevector")
        assert executor.stats.backend_invocations["statevector"] == 2
        assert executor.stats.dedup_hits == 2

    def test_noisy_sweep_falls_back_to_grouped(self):
        noise = make_noise_model()
        executor = Executor()
        energies = executor.evaluate_sweep(
            self.template, self.sweep[:2], self.hamiltonian,
            noise_model=noise, backend="density_matrix")
        evaluator = BackendEnergyEvaluator.density_matrix(self.hamiltonian, noise,
                                                 canonicalize=False)
        for point, energy in zip(self.sweep[:2], energies):
            circuit = self.template.bind_parameters(list(point))
            assert abs(evaluator(circuit) - energy) < 1e-10

    def test_auto_routing_clifford_points_fall_back(self):
        # All-zero angles make the ansatz Clifford: auto routing sends the
        # sweep to the stabilizer engine rather than the batched kets.
        executor = Executor()
        zeros = [[0.0] * len(self.template.ordered_parameters())]
        energies = executor.evaluate_sweep(self.template, zeros,
                                           self.hamiltonian, backend="auto")
        assert "statevector" not in executor.stats.backend_invocations
        reference = Executor().evaluate_sweep(self.template, zeros,
                                              self.hamiltonian,
                                              backend="statevector")
        np.testing.assert_allclose(energies, reference, atol=1e-10)

    def test_chunked_batches_match_single_batch(self, monkeypatch):
        # A tiny amplitude budget forces several stacked sub-batches; the
        # energies must not change.
        from repro.execution import executor as executor_module
        monkeypatch.setattr(executor_module, "_SWEEP_BATCH_AMPLITUDES",
                            2 ** self.template.num_qubits * 2)
        chunked = Executor().evaluate_sweep(self.template, self.sweep,
                                            self.hamiltonian,
                                            backend="statevector")
        reference = Executor().evaluate_observable(
            [self.template.bind_parameters(list(point))
             for point in self.sweep],
            self.hamiltonian, backend="statevector")
        np.testing.assert_allclose(chunked, reference, atol=1e-10)

    def test_parameter_count_validation(self):
        from repro.execution.errors import ExecutionError
        with pytest.raises(ExecutionError, match="free parameters"):
            Executor().evaluate_sweep(self.template, [[0.1, 0.2]],
                                      self.hamiltonian)

    def test_evaluator_evaluate_sweep(self):
        evaluator = BackendEnergyEvaluator.exact(self.hamiltonian)
        energies = evaluator.evaluate_sweep(self.template, self.sweep)
        assert evaluator.num_evaluations == len(self.sweep)
        for point, energy in zip(self.sweep, energies):
            circuit = self.template.bind_parameters(list(point))
            assert abs(BackendEnergyEvaluator.exact(self.hamiltonian)(circuit)
                       - energy) < 1e-10

    def test_evaluator_presets_match_shims(self):
        exact = BackendEnergyEvaluator.exact(self.hamiltonian)
        assert exact.backend == "statevector"
        noise = make_noise_model()
        density = BackendEnergyEvaluator.density_matrix(self.hamiltonian,
                                                        noise)
        assert density.backend == "density_matrix"
        assert density.canonicalize and density.noise_model is noise
        clifford = BackendEnergyEvaluator.clifford(self.hamiltonian)
        assert clifford.backend == "pauli_propagation"
        monte_carlo = BackendEnergyEvaluator.monte_carlo_stabilizer(
            self.hamiltonian, trajectories=64, seed=3)
        # Seeded ensembles are deterministic (per-trajectory seed spawning),
        # so the seeded preset caches; the unseeded one draws fresh
        # randomness every call and must not.
        assert monte_carlo.trajectories == 64 and monte_carlo.use_cache
        unseeded = BackendEnergyEvaluator.monte_carlo_stabilizer(
            self.hamiltonian, trajectories=64)
        assert not unseeded.use_cache


# ---------------------------------------------------------------------------
# Optimizer batching protocol
# ---------------------------------------------------------------------------

class _CountingObjective:
    """Quadratic objective counting scalar vs batched evaluations."""

    def __init__(self):
        self.single_calls = 0
        self.batch_calls = 0

    def __call__(self, parameters):
        self.single_calls += 1
        return float(np.sum(np.asarray(parameters) ** 2))

    def evaluate_batch(self, parameter_sets):
        self.batch_calls += 1
        return [float(np.sum(np.asarray(p) ** 2)) for p in parameter_sets]


class TestOptimizerBatching:
    def test_spsa_uses_batches_and_matches_scalar_path(self):
        objective = _CountingObjective()
        result = SPSAOptimizer(max_iterations=10, seed=5).minimize(
            objective, [0.5, -0.3])
        assert objective.batch_calls == 10
        assert objective.single_calls == 2  # initial + final tracking
        scalar = SPSAOptimizer(max_iterations=10, seed=5).minimize(
            lambda p: float(np.sum(np.asarray(p) ** 2)), [0.5, -0.3])
        np.testing.assert_allclose(result.best_parameters,
                                   scalar.best_parameters, atol=1e-12)
        assert result.history == scalar.history

    def test_genetic_uses_batches_and_matches_scalar_path(self):
        objective = _CountingObjective()
        ga = GeneticOptimizer(population_size=8, generations=4, seed=9)
        result = ga.minimize(objective, 3)
        assert objective.batch_calls == 5  # initial + one per generation
        assert objective.single_calls == 0
        scalar = GeneticOptimizer(population_size=8, generations=4,
                                  seed=9).minimize(
            lambda p: float(np.sum(np.asarray(p) ** 2)), 3)
        assert result.best_value == scalar.best_value
        np.testing.assert_array_equal(result.best_parameters,
                                      scalar.best_parameters)

    def test_vqe_spsa_batched_run(self):
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        vqe = VQE(hamiltonian, LinearAnsatz(3, depth=1),
                  BackendEnergyEvaluator.exact(hamiltonian),
                  SPSAOptimizer(max_iterations=12, seed=2))
        result = vqe.run(seed=2)
        assert result.best_energy <= vqe.energy(
            np.zeros(vqe.ansatz.num_parameters())) + 1e-9

    def test_vqe_energy_sweep_matches_energy(self):
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        vqe = VQE(hamiltonian, LinearAnsatz(3, depth=1),
                  BackendEnergyEvaluator.exact(hamiltonian))
        rng = np.random.default_rng(4)
        sweep = rng.standard_normal((4, vqe.ansatz.num_parameters()))
        energies = vqe.energy_sweep(sweep)
        for point, energy in zip(sweep, energies):
            assert abs(vqe.energy(point) - energy) < 1e-10

    def test_clifford_vqe_population_batch(self):
        hamiltonian = ising_hamiltonian(4, coupling=1.0)
        vqe = CliffordVQE(hamiltonian, LinearAnsatz(4, depth=1),
                          optimizer=GeneticOptimizer(population_size=6,
                                                     generations=2, seed=1))
        result = vqe.run()
        rescored = vqe.energy_from_indices(result.parameter_indices)
        assert abs(rescored - result.best_energy) < 1e-9
        batch = vqe.energy_from_population([result.parameter_indices] * 2)
        np.testing.assert_allclose(batch, [rescored, rescored], atol=1e-9)


# ---------------------------------------------------------------------------
# Algorithm consumers
# ---------------------------------------------------------------------------

class TestAlgorithmConsumers:
    def test_classifier_batch_matches_per_sample_circuits(self):
        from repro.execution import evaluate_observable
        dataset = make_blobs_dataset(num_samples=10, seed=3)
        classifier = VariationalClassifier(num_qubits=3, num_layers=1)
        rng = np.random.default_rng(6)
        weights = 0.3 * rng.standard_normal(classifier.num_parameters())
        scores = classifier.decision_scores(dataset.features, weights)
        circuits = [classifier.model_circuit(sample, weights)
                    for sample in dataset.features]
        reference = evaluate_observable(circuits, classifier._observable,
                                        backend="statevector")
        np.testing.assert_allclose(scores, reference, atol=1e-10)

    def test_vqd_evaluate_levels_batched(self):
        hamiltonian = ising_hamiltonian(3, coupling=1.0)
        vqd = VQD(hamiltonian, LinearAnsatz(3, depth=1), num_states=2)
        result = vqd.run(seed=11)
        rescored = vqd.evaluate_levels(result, backend="statevector")
        np.testing.assert_allclose(rescored, result.energies, atol=1e-6)


# ---------------------------------------------------------------------------
# Satellite perf fixes
# ---------------------------------------------------------------------------

class TestSatellites:
    def test_static_gate_matrices_are_cached_and_read_only(self):
        first = Gate("h").matrix()
        second = Gate("h").matrix()
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0

    def test_parametric_gate_matrices_are_memoized(self):
        first = Gate("rx", (0.375,)).matrix()
        second = Gate("rx", (0.375,)).matrix()
        assert first is second
        assert not first.flags.writeable
        other = Gate("rx", (0.5,)).matrix()
        assert other is not first

    def test_counts_from_outcomes_matches_bitstring_loop(self):
        rng = np.random.default_rng(13)
        outcomes = rng.integers(0, 16, size=200)
        expected = {}
        for outcome in outcomes:
            bits = "".join(str((outcome >> q) & 1) for q in range(4))
            expected[bits] = expected.get(bits, 0) + 1
        assert counts_from_outcomes(outcomes, 4) == expected

    def test_sample_counts_distribution(self):
        state = Statevector.from_bitstring([1, 0, 1])
        counts = state.sample_counts(50, np.random.default_rng(0))
        assert counts == {"101": 50}
        rho = DensityMatrix.from_statevector(state)
        assert rho.sample_counts(50, np.random.default_rng(0)) == {"101": 50}

    def test_statevector_sampling_statistics(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        counts = StatevectorSimulator(seed=5).sample(circuit, 4000)
        assert set(counts) == {"0", "1"}
        assert abs(counts["0"] - 2000) < 200
