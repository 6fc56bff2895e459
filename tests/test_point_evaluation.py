"""Per-step energies served from the compiled template.

``VQE.energy`` hands each optimizer step to
:meth:`repro.execution.Executor.evaluate_point`, which binds the cached
template program at the step's values instead of binding, hashing and
compiling a circuit.  These tests hold that path to the bound-circuit path
bitwise, layer by layer:

* the fingerprint derived from the template equals the bound circuit's
  (random, ±0.0 and k·π/2 values; affine expressions; a reused parameter);
* the point program equals ``compile_circuit(bound)`` op for op — kinds,
  qubits, data and gather tables — on the paper's ansätze at random,
  all-Clifford and mixed points, where monomial ops re-lower;
* the grouped bind equals binding each op on its own
  (``tests/reference/bind.py``) at one point and over a block of points;
* energies, term-cache entries and whole OPR flows are ``==`` either way,
  and a COBYLA run compiles the template once and binds no circuit; a warm
  step reads no Pauli key and scans no template instruction.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ansatz import (BlockedAllToAllAnsatz, FullyConnectedAnsatz,
                          LinearAnsatz, UCCSDAnsatz)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter, ParameterVector
from repro.core import NISQRegime, PQECRegime
from repro.execution import Executor, reset_default_executor
from repro.execution.errors import SweepShapeError
from repro.operators import heisenberg_hamiltonian, ising_hamiltonian
from repro.operators.pauli import PauliString
from repro.simulators import program as program_module
from repro.simulators.program import (OP_DIAG, OP_PERM, OP_UNITARY,
                                      _broadcast_diag, clear_program_cache,
                                      compile_circuit,
                                      program_cache_counters, run_batch)
from repro.vqe import (VQE, BackendEnergyEvaluator, CobylaOptimizer,
                       compare_regimes_opr)

from reference import bind as reference_bind

_QUARTER = math.pi / 2

generic_angles = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)
quarter_turns = st.integers(-4, 4).map(lambda k: k * _QUARTER)
half_turns = st.integers(-3, 3).map(lambda k: k * math.pi)
signed_zeros = st.sampled_from([0.0, -0.0])
any_angles = st.one_of(generic_angles, quarter_turns, signed_zeros)


def fused_diagonal_template():
    """Static and parametric diagonals fused ahead of a rotation on one
    qubit (``rz(a)·t·ry(b)``): the fusion order the bound circuit's
    compile-time products fix."""
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    circuit = QuantumCircuit(2)
    circuit.rz(a, 0).t(0).ry(b, 0)
    circuit.s(1).t(1).rx(2 * c + 0.3, 1)
    circuit.cx(0, 1).rz(a - c, 1).h(1).ry(-b, 0)
    return circuit


def shared_parameter_template():
    """One parameter in two slots of one op group, with coefficients and
    an offset (``rx(2a+0.1)``, ``rx(-1.5a)``), beside slots of its own and
    two-term forms in groups of their own."""
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    circuit = QuantumCircuit(3)
    circuit.rx(2 * a + 0.1, 0).rx(-1.5 * a, 1).rx(b, 2)
    circuit.cx(0, 1).cx(1, 2)
    circuit.ry(c - 0.5 * a, 0).ry(a + c, 1).ry(0.25 * b, 2)
    circuit.u3(a, 0.25, -b, 1)
    return circuit


def diagonal_groups_template():
    """Groups of diagonal ops: ``rzz`` on neighbouring pairs (one with a
    two-term angle), and on every qubit ``rz`` fused ahead of a static
    ``t``, between layers of Hadamards."""
    theta, phi = ParameterVector("theta", 3), ParameterVector("phi", 4)
    circuit = QuantumCircuit(4)
    for qubit in range(4):
        circuit.h(qubit)
    for qubit in range(3):
        circuit.rzz(theta[qubit], qubit, qubit + 1)
    circuit.rzz(2 * theta[0] - theta[2], 0, 3)
    for qubit in range(4):
        circuit.rz(phi[qubit], qubit).t(qubit)
    circuit.cz(1, 2)
    for qubit in range(4):
        circuit.h(qubit)
    return circuit


TEMPLATES = {
    "linear": lambda: LinearAnsatz(4, 2).build(),
    "fche": lambda: FullyConnectedAnsatz(4, 2).build(),
    "blocked": lambda: BlockedAllToAllAnsatz(8, 1).build(),
    "uccsd": lambda: UCCSDAnsatz(6, 1).build(),
    "fused_diagonal": fused_diagonal_template,
    "shared_parameter": shared_parameter_template,
    "diagonal_groups": diagonal_groups_template,
}

ANGLES = [generic_angles, quarter_turns, half_turns,
          st.one_of(generic_angles, quarter_turns)]
ANGLE_IDS = ["random", "clifford", "half", "mixed"]


def _bits(data):
    """Bit-exact identity of an op's data (arrays by dtype, shape, bytes)."""
    if data is None:
        return None
    if isinstance(data, tuple):
        return tuple(_bits(part) for part in data)
    return data.dtype.str, data.shape, data.tobytes()


def assert_same_program(point, bound):
    num_qubits = bound.num_qubits
    assert [(op.kind, op.qubits) for op in point.ops] == \
        [(op.kind, op.qubits) for op in bound.ops]
    for left, right in zip(point.ops, bound.ops):
        assert _bits(left.data) == _bits(right.data)
        if left.kind == OP_PERM:
            assert _bits(left.full_indices(num_qubits)) == \
                _bits(right.full_indices(num_qubits))


def count_binds(monkeypatch):
    """A list that grows by one per ``QuantumCircuit.bind_parameters`` call."""
    calls = []
    original = QuantumCircuit.bind_parameters

    def counting(circuit, bindings):
        calls.append(1)
        return original(circuit, bindings)

    monkeypatch.setattr(QuantumCircuit, "bind_parameters", counting)
    return calls


def _fresh_default_executor():
    reset_default_executor()
    clear_program_cache()


class TestBoundFingerprint:
    @staticmethod
    @st.composite
    def templates(draw):
        """Affine expressions (coefficients, offsets, two parameters in
        one expression) over rotations and ``u3``, between static gates;
        θ is always used at least twice."""
        theta, phi = Parameter("theta"), Parameter("phi")
        circuit = QuantumCircuit(3)
        circuit.rz(theta, 0)
        for _ in range(draw(st.integers(0, 6))):
            qubit = draw(st.integers(0, 2))
            if draw(st.booleans()):
                getattr(circuit, draw(st.sampled_from(["h", "t", "sdg"])))(
                    qubit)
                circuit.cx(qubit, (qubit + 1) % 3)
                continue
            coeff = draw(st.sampled_from([1.0, -1.0, 2.0, 0.5]))
            offset = draw(st.sampled_from([0.0, -0.0, _QUARTER, -0.3]))
            first, second = draw(st.sampled_from(
                [(theta, None), (phi, None), (theta, phi), (phi, theta)]))
            angle = coeff * first + offset
            if second is not None:
                angle = angle - second
            gate = draw(st.sampled_from(["rx", "ry", "rz", "rzz", "u3"]))
            if gate == "rzz":
                circuit.rzz(angle, qubit, (qubit + 1) % 3)
            elif gate == "u3":
                circuit.u3(angle, 0.25, -angle, qubit)
            else:
                getattr(circuit, gate)(angle, qubit)
        circuit.ry(phi, 1).rz(theta, 2)
        return circuit

    @given(template=templates(), values=st.lists(any_angles, min_size=2,
                                                 max_size=2))
    def test_matches_bound_circuit_fingerprint(self, template, values):
        assert template.bound_fingerprint(values) == \
            template.bind_parameters(values).fingerprint()

    def test_signed_zeros_hash_apart(self):
        # -θ keeps the offset -0.0 that negation gives it, so θ = ±0.0
        # binds the angles ∓0.0: two bound circuits, two fingerprints.
        theta = Parameter("theta")
        template = QuantumCircuit(2).rz(-theta, 0).rx(theta + 0.5, 1)
        positive = template.bound_fingerprint([0.0])
        negative = template.bound_fingerprint([-0.0])
        assert positive == template.bind_parameters([0.0]).fingerprint()
        assert negative == template.bind_parameters([-0.0]).fingerprint()
        assert positive != negative

    def test_parameter_free_template_is_its_own_fingerprint(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1)
        assert circuit.bound_fingerprint([]) == circuit.fingerprint()

    def test_wrong_length_raises(self):
        template = QuantumCircuit(1).rz(Parameter("theta"), 0)
        with pytest.raises(ValueError):
            template.bound_fingerprint([0.1, 0.2])


class TestPointProgram:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @pytest.mark.parametrize("angles", ANGLES, ids=ANGLE_IDS)
    @given(data=st.data())
    def test_matches_bound_circuit_lowering(self, name, angles, data):
        template = TEMPLATES[name]()
        count = len(template.ordered_parameters())
        values = data.draw(st.lists(angles, min_size=count, max_size=count))
        point = compile_circuit(template).point_program(values)
        bound = compile_circuit(template.bind_parameters(values))
        assert_same_program(point, bound)
        assert point.run_statevector().tobytes() == \
            bound.run_statevector().tobytes()

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @pytest.mark.parametrize("angles", ANGLES, ids=ANGLE_IDS)
    @given(data=st.data())
    def test_grouped_bind_matches_per_op_reference(self, name, angles, data):
        """The grouped kernel against each op bound on its own, bitwise:
        the bind at one point, every op's rows over a block of points, the
        sweep's states, and the point energy against the bound path."""
        template = TEMPLATES[name]()
        program = compile_circuit(template)
        count = len(template.ordered_parameters())
        points = np.array(data.draw(st.lists(
            st.lists(angles, min_size=count, max_size=count),
            min_size=2, max_size=4)))
        n = template.num_qubits
        assert_same_program(program.bind(points[0]),
                            reference_bind.bind(program, points[0]))
        groups = program._bind_blocks(points)
        assert sorted(index for group, _ in groups
                      for index in group.indices) == \
            program._parametric_indices
        for group, block in groups:
            assert group.kind in (OP_UNITARY, OP_DIAG)
            for op, rows in zip(group.ops, block):
                if group.kind == OP_DIAG:
                    rows = _broadcast_diag(rows, op.qubits, n)
                assert _bits(rows) == _bits(
                    reference_bind.stacked_data(op, points, n))
        assert program.run_sweep(points).tobytes() == run_batch(
            [reference_bind.bind(program, point)
             for point in points]).tobytes()
        hamiltonian = ising_hamiltonian(n, 1.0)
        assert Executor().evaluate_point(
            template, points[-1], hamiltonian, backend="statevector",
            use_cache=False) == Executor().evaluate_observable(
                template.bind_parameters(points[-1]), hamiltonian,
                backend="statevector", use_cache=False)[0]

    def test_monomial_point_relowers(self):
        """At quarter turns fused rotations come out monomial: the point
        program gathers them (fewer ops than the structural bind)."""
        template = FullyConnectedAnsatz(4, 1).build()
        program = compile_circuit(template)
        values = [0.0] * len(template.ordered_parameters())
        point = program.point_program(values)
        assert len(point.ops) < len(program.bind(values).ops)
        assert_same_program(point,
                            compile_circuit(template.bind_parameters(values)))

    def test_fused_diagonal_sweep_still_stacks_bitwise(self):
        """The fusion-order product also serves the stacked bind: a sweep
        stays bitwise the batch of per-point binds."""
        program = compile_circuit(fused_diagonal_template())
        points = np.random.default_rng(3).uniform(-3, 3, (5, 3))
        assert program.run_sweep(points).tobytes() == run_batch(
            [program.bind(point) for point in points]).tobytes()

    def test_only_templates_keep_the_pregather_list(self):
        """Parameter-free lowerings drop the pre-gather ops; a template's
        are charged to the program cache for the gathers they keep apart
        from the fused runs."""
        template = FullyConnectedAnsatz(4, 1).build()
        values = [0.0] * len(template.ordered_parameters())
        assert compile_circuit(template.bind_parameters(values),
                               use_cache=False)._pregather is None
        program = compile_circuit(template, use_cache=False)
        replaced = [op for op in program._pregather
                    if all(op is not kept for kept in program.ops)]
        assert replaced
        charged = program_module._program_nbytes(program)
        program._pregather = None
        assert charged == program_module._program_nbytes(program) + sum(
            program_module._array_bytes(op.data) for op in replaced)

    def test_generic_point_is_the_structural_bind(self):
        template = FullyConnectedAnsatz(4, 1).build()
        program = compile_circuit(template)
        values = list(np.linspace(0.1, 1.3, len(template.ordered_parameters())))
        point = program.point_program(values)
        assert [_bits(op.data) for op in point.ops] == \
            [_bits(op.data) for op in program.bind(values).ops]


class TestEvaluatePoint:
    def setup_method(self):
        self.hamiltonian = ising_hamiltonian(4, 1.0)
        self.template = FullyConnectedAnsatz(4, 1).build()
        rng = np.random.default_rng(5)
        self.values = list(rng.uniform(-3, 3, len(
            self.template.ordered_parameters())))

    @pytest.mark.parametrize("backend", ["statevector", "auto"])
    def test_equals_bound_circuit_and_binds_nothing(self, backend,
                                                    monkeypatch):
        binds = count_binds(monkeypatch)
        executor = Executor()
        energy = executor.evaluate_point(self.template, self.values,
                                         self.hamiltonian, backend=backend)
        assert binds == []
        assert executor.stats.backend_invocations == {"statevector": 1}
        bound = self.template.bind_parameters(self.values)
        assert energy == Executor().evaluate_observable(
            bound, self.hamiltonian, backend=backend)[0]

    def test_point_and_bound_paths_serve_each_other(self):
        executor = Executor()
        terms = len(list(self.hamiltonian.terms()))
        evaluator = BackendEnergyEvaluator(self.hamiltonian,
                                           backend="statevector",
                                           executor=executor)
        first = evaluator.evaluate_point(self.template, self.values)
        second = evaluator(self.template.bind_parameters(self.values))
        assert first == second
        assert executor.stats.term_cache_hits == terms
        other = [value + 0.25 for value in self.values]
        third = evaluator(self.template.bind_parameters(other))
        fourth = evaluator.evaluate_point(self.template, other)
        assert third == fourth
        assert executor.stats.term_cache_hits == 2 * terms
        assert executor.stats.backend_invocations == {"statevector": 2}
        assert evaluator.num_evaluations == 4

    def test_clifford_point_under_auto_binds_and_routes(self, monkeypatch):
        binds = count_binds(monkeypatch)
        executor = Executor()
        values = [_QUARTER] * len(self.values)
        energy = executor.evaluate_point(self.template, values,
                                         self.hamiltonian, backend="auto")
        assert binds == [1]
        assert "pauli_propagation" in executor.stats.backend_invocations
        assert energy == Executor().evaluate_observable(
            self.template.bind_parameters(values), self.hamiltonian)[0]

    def test_noisy_point_binds_a_circuit(self, monkeypatch):
        binds = count_binds(monkeypatch)
        noise = PQECRegime().noise_model()
        energy = Executor().evaluate_point(
            self.template, self.values, self.hamiltonian, noise_model=noise,
            backend="density_matrix")
        assert binds == [1]
        assert energy == Executor().evaluate_observable(
            self.template.bind_parameters(self.values), self.hamiltonian,
            noise_model=noise, backend="density_matrix")[0]

    def test_template_with_measurements_binds_a_circuit(self, monkeypatch):
        template = FullyConnectedAnsatz(4, 1).build(include_measurement=True)
        binds = count_binds(monkeypatch)
        energy = Executor().evaluate_point(template, self.values,
                                           self.hamiltonian,
                                           backend="statevector")
        assert binds == [1]
        assert energy == Executor().evaluate_point(
            self.template, self.values, self.hamiltonian,
            backend="statevector")

    def test_wrong_length_raises(self):
        with pytest.raises(SweepShapeError):
            Executor().evaluate_point(self.template, self.values[:-1],
                                      self.hamiltonian)

    @pytest.mark.parametrize("backend", ["statevector", "auto"])
    def test_books_like_the_bound_path(self, backend):
        """Cold, warm and partly overlapping queries: the same energies
        and the same task, term-hit and evolution counters either way."""
        overlap = heisenberg_hamiltonian(4, 1.0)
        bound = self.template.bind_parameters(self.values)
        point_executor, bound_executor = Executor(), Executor()
        for observable in (self.hamiltonian, self.hamiltonian, overlap):
            assert point_executor.evaluate_point(
                self.template, self.values, observable,
                backend=backend) == bound_executor.evaluate_observable(
                    bound, observable, backend=backend)[0]
            for field in ("tasks_submitted", "grouped_tasks",
                          "term_cache_hits", "backend_invocations"):
                assert getattr(point_executor.stats, field) == \
                    getattr(bound_executor.stats, field), field
        assert point_executor.stats.term_cache_hits > \
            len(list(self.hamiltonian.terms()))


class TestOptimizerSteps:
    def test_cobyla_compiles_the_template_once_and_binds_nothing(
            self, monkeypatch):
        """50 COBYLA steps from a quarter-turn start (the CAFQA bootstrap
        shape): one compile, no circuit bound — not even at the monomial
        points, which re-lower the template's ops instead.  A warm step
        then reads no Pauli key, scans no template instruction and tests
        only the ops that pass the monomial screen; an edited Hamiltonian
        is read afresh on the next step."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        ansatz = FullyConnectedAnsatz(4, 1)
        evaluator = BackendEnergyEvaluator(hamiltonian,
                                           backend="statevector",
                                           executor=Executor())
        vqe = VQE(hamiltonian, ansatz, evaluator,
                  CobylaOptimizer(max_iterations=50))
        start = np.array([(index % 4) * _QUARTER
                          for index in range(ansatz.num_parameters())])
        binds = count_binds(monkeypatch)
        relowered = []
        fuse = program_module._fuse_perm_runs

        def counting_fuse(ops, num_qubits):
            relowered.append(1)
            return fuse(ops, num_qubits)

        monkeypatch.setattr(program_module, "_fuse_perm_runs", counting_fuse)
        clear_program_cache()
        result = vqe.run(initial_parameters=start)
        compiled, hits = program_cache_counters()
        assert result.num_evaluations == 50
        assert compiled <= 2
        assert binds == []
        # One fusion pass compiled the template; every other one is a
        # monomial point re-lowered without a bound circuit.
        assert len(relowered) - compiled >= 1

        template = vqe._template
        program = compile_circuit(template)
        generic = list(np.linspace(0.1, 1.3, len(start)))
        turns = [(index % 3) * _QUARTER for index in range(len(start))]
        # The ops the monomial screen passes at the quarter turns: the
        # bound unitaries with one nonzero per row, each bound on its own.
        reference = reference_bind.bind(program, turns)
        monomial = sum(
            reference.ops[index].kind == OP_UNITARY
            and program_module._monomial_form(
                reference.ops[index].data) is not None
            for index in program._parametric_indices)
        assert monomial > 0
        counts = {}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PauliString, "key",
                            counted("key", PauliString.key))
        monkeypatch.setattr(QuantumCircuit, "__iter__",
                            counted("iter", QuantumCircuit.__iter__))
        monkeypatch.setattr(program_module, "_monomial_form", counted(
            "monomial", program_module._monomial_form))
        for values, screened in ((generic, 0), (turns, monomial)):
            counts.update(key=0, iter=0, monomial=0)
            energy = evaluator.evaluate_point(template, values)
            assert counts == {"key": 0, "iter": 0, "monomial": screened}
            assert energy == Executor().evaluate_observable(
                template.bind_parameters(values), hamiltonian,
                backend="statevector")[0]

        before = evaluator.evaluate_point(template, generic)
        hamiltonian.add_term(PauliString("ZIII"), 0.5)
        edited = evaluator.evaluate_point(template, generic)
        assert edited == Executor().evaluate_observable(
            template.bind_parameters(generic), hamiltonian,
            backend="statevector")[0]
        assert edited != before

    def test_opr_flow_from_cafqa_is_unchanged(self, monkeypatch):
        """A 4-qubit OPR flow started from CAFQA: its noiseless COBYLA
        steps cross monomial points, and every energy is ``==`` to the
        bound-circuit path's."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        reference = hamiltonian.ground_state_energy()

        def flow():
            _fresh_default_executor()
            outcome = compare_regimes_opr(
                hamiltonian, FullyConnectedAnsatz(4, 1), PQECRegime(),
                NISQRegime(), reference,
                optimizer=CobylaOptimizer(max_iterations=60), seed=11)
            comparison = outcome["comparison"]
            return (outcome["noiseless"].history,
                    outcome["noiseless"].best_energy, comparison.energy_a,
                    comparison.energy_b, comparison.gamma)

        point = flow()
        monkeypatch.setattr(BackendEnergyEvaluator, "evaluate_point", None)
        bound = flow()
        _fresh_default_executor()
        assert point == bound
