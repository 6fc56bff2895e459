"""Property-based differential harness for every bitwise-equivalence contract.

The repo's core invariant is that every fast path is *bitwise* identical to
its reference path.  PRs 3–6 asserted this with hand-picked spot checks;
this module turns each contract into a hypothesis property so shrinking
finds minimal counterexamples and CI (``--hypothesis-profile=ci``, see
``conftest.py``) explores ≥200 examples per contract deterministically.

Contracts covered, one test class per contract family:

* pack/unpack round-trips and popcount native-vs-LUT
  (:mod:`repro.qec.bitops`)
* packed mod-2 matmul / matvec / gather-plan vs dense integer matmul
* auto-routed noiseless Clifford expectations (Pauli propagation) vs the
  statevector (≤ 1e-12)
* ``decode_batch`` vs per-shot ``decode`` — and ``decode_batch_packed`` vs
  ``decode_batch`` — for all five decoder configurations
* packed vs dense vs streaming Monte-Carlo memory sampling
* compiled vs interpreted statevector programs (≤ 1e-12), and the grouped
  parametric bind vs binding each op on its own (bitwise, one point and a
  block of points), with the point energy ``==`` the bound path's
* superoperator vs Kraus-loop density-matrix channels and noisy programs,
  with trace and hermiticity preserved (≤ 1e-12)
* grouped vs per-term observable readout (≤ 1e-12)
* the planned tensor contraction vs ``tensordot`` + ``moveaxis``, and the
  plan-based readout kernels vs per-call readout, cold and warm (both
  bitwise)
* packed Pauli propagation vs the numpy-column reference propagator under
  random Pauli-twirled noise, and compiled Clifford sweeps vs per-point
  bound evaluation (both bitwise)

Everything numeric that is *discrete* is compared exactly; only genuinely
floating-point contracts get the 1e-12 tolerance.
"""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._bitops import _POPCOUNT_LUT, _WORD_BYTES
from repro.circuits.circuit import QuantumCircuit
from repro.operators.pauli import PauliSum
from repro.qec.bitops import (Mod2GatherPlan, mod2_matmul_packed,
                              mod2_matvec_packed, pack_rows, packed_words,
                              parity, popcount, popcount_words, unpack_rows)
from repro.qec.decoders import (CliquePredecoder, LookupDecoder, MWPMDecoder,
                                UnionFindDecoder, batch_decode,
                                batch_decode_packed)
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.rare_event import (_conditional_include_table,
                                  _sample_fixed_weight,
                                  stratum_probabilities)
from repro.qec.sampling import (packed_syndromes_and_flips, sample_errors,
                                sampling_arrays)
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.circuits.parameters import ParameterVector
from repro.circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from repro.execution import (BackendCapabilityError, ExecutionTask, Executor,
                             route_task)
from repro.simulators.noise import (NoiseModel, PauliChannel, QuantumChannel,
                                    depolarizing_channel,
                                    thermal_relaxation_channel,
                                    two_qubit_tensor_channel)
from repro.simulators.pauli_propagation import (compile_clifford,
                                                expectation_value, propagate)
from repro.simulators import kernels
from repro.simulators.program import (OP_DIAG, _broadcast_diag, _contract,
                                      _contraction_plan, _dm_apply_channel,
                                      compile_circuit, run_batch)
from repro.simulators.statevector import StatevectorSimulator

from reference import bind as reference_bind
from reference.density_matrix import apply_channel, naive_density_matrix_run
from reference import readout as reference_readout
from reference.pauli_propagation import reference_propagate
from reference.qec import run_memory_sampling_reference, syndromes_and_flips
from reference.stabilizer import DenseStabilizerState
from reference.statevector import run_interpreted


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def bit_matrices(max_rows: int = 12, max_cols: int = 200):
    """Random 0/1 uint8 matrices spanning word-boundary edge cases."""
    # Sprinkle exact word-boundary widths in with the uniform draw: off-by-
    # one bugs live at 63/64/65, not at random widths.
    cols = st.one_of(st.integers(1, max_cols),
                     st.sampled_from([1, 7, 8, 63, 64, 65, 127, 128, 129]))
    return st.tuples(st.integers(1, max_rows), cols, st.integers(0, 2**31)) \
        .map(lambda args: np.random.default_rng(args[2])
             .integers(0, 2, size=(args[0], args[1]), dtype=np.uint8))


@st.composite
def statevector_circuits(draw, max_qubits: int = 4, max_ops: int = 20):
    """Random (non-Clifford) circuits for the compiled-vs-interpreted contract."""
    n = draw(st.integers(1, max_qubits))
    circuit = QuantumCircuit(n)
    count = draw(st.integers(0, max_ops))
    for _ in range(count):
        kind = draw(st.sampled_from(["h", "x", "s", "t", "rz", "rx", "ry",
                                     "cx", "cz", "rzz"]))
        q = draw(st.integers(0, n - 1))
        if kind in ("rz", "rx", "ry"):
            angle = draw(st.floats(-2 * math.pi, 2 * math.pi,
                                   allow_nan=False, allow_infinity=False))
            getattr(circuit, kind)(angle, q)
        elif kind in ("cx", "cz", "rzz"):
            q2 = draw(st.integers(0, n - 1))
            if q2 == q:
                continue
            if kind == "rzz":
                angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
                circuit.rzz(angle, q, q2)
            else:
                getattr(circuit, kind)(q, q2)
        else:
            getattr(circuit, kind)(q)
    return circuit


@st.composite
def cptp_channels(draw, num_qubits: int):
    """Random CPTP channels on ``num_qubits`` ∈ {1, 2} qubits.

    Either a Haar-ish random isometry cut into Kraus blocks (rank 1 to
    ``4^k``), or depolarizing ∘ thermal relaxation as the NISQ regime
    merges them per gate (16 Kraus operators on one qubit, 256 on two).
    """
    dim = 2 ** num_qubits
    if draw(st.booleans()):
        p = draw(st.floats(0.0, 0.2, allow_nan=False))
        gate_time = draw(st.floats(1e-8, 2e-6, allow_nan=False))
        relax = thermal_relaxation_channel(1.2e-3, 1.0e-3, gate_time)
        if num_qubits == 2:
            relax = two_qubit_tensor_channel(relax, relax)
        return depolarizing_channel(p, num_qubits).compose(relax)
    rank = draw(st.integers(1, dim * dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    gaussian = (rng.standard_normal((rank * dim, dim))
                + 1j * rng.standard_normal((rank * dim, dim)))
    isometry, _ = np.linalg.qr(gaussian)     # V†V = I  ⇒  Σ K†K = I
    return QuantumChannel(isometry.reshape(rank, dim, dim), name="random")


def random_density_matrix(rng, num_qubits):
    """A full-rank random mixed state (trace 1, Hermitian, PSD)."""
    dim = 2 ** num_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@st.composite
def noisy_circuits(draw, max_ops: int = 6):
    """``(noise_model, circuit)`` over n ∈ 3..7 with random channels.

    Two-qubit gates land on any ordered pair (reversed and non-adjacent
    included); resets and measurements exercise the reset and readout ops.
    """
    n = draw(st.integers(3, 7))
    noise = NoiseModel()
    noise.add_gate_error(draw(cptp_channels(2)), ["cx", "cz", "swap"])
    noise.add_gate_error(draw(cptp_channels(1)), ["h", "rx", "ry"])
    if draw(st.booleans()):
        noise.add_idle_error(draw(cptp_channels(1)))
    noise.add_readout_error(draw(st.floats(0.0, 0.1, allow_nan=False)))
    circuit = QuantumCircuit(n)
    for qubit in range(n):
        circuit.ry(draw(st.floats(-math.pi, math.pi, allow_nan=False)), qubit)
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(["h", "rx", "rz", "cx", "cz", "swap",
                                     "reset", "measure"]))
        pair = draw(st.permutations(range(n)))[:2]
        if kind in ("cx", "cz", "swap"):
            getattr(circuit, kind)(*pair)
        elif kind in ("rx", "rz"):
            getattr(circuit, kind)(
                draw(st.floats(-math.pi, math.pi, allow_nan=False)), pair[0])
        else:
            getattr(circuit, kind)(pair[0])
    circuit.measure_all()
    return noise, circuit


@st.composite
def pauli_sums(draw, max_qubits: int = 5, max_terms: int = 6,
               num_qubits: Optional[int] = None):
    """Random Hermitian Pauli sums with real coefficients (on
    ``num_qubits`` qubits when given)."""
    n = num_qubits or draw(st.integers(1, max_qubits))
    observable = PauliSum(n)
    for _ in range(draw(st.integers(1, max_terms))):
        label = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
        observable.add_label(label, coeff)
    return observable


_CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]
_CLIFFORD_2Q = ["cx", "cz", "swap"]


@st.composite
def noisy_clifford_setups(draw, max_qubits: int = 5, max_ops: int = 24):
    """``(circuit, noise_model, observable, include_idle)`` for propagation.

    Clifford gates (rotations at k·π/2 included) and measurements under a
    random mix of 1q/2q depolarizing, Pauli-twirled thermal relaxation, a
    biased ``PauliChannel`` on the rotations, idle and readout noise.
    """
    n = draw(st.integers(1, max_qubits))
    circuit = QuantumCircuit(n)
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(_CLIFFORD_1Q + _CLIFFORD_2Q
                                    + ["rx", "ry", "rz", "measure"]))
        pair = draw(st.permutations(range(n)))[:2]
        if kind in _CLIFFORD_2Q:
            if n > 1:
                getattr(circuit, kind)(*pair)
        elif kind in ("rx", "ry", "rz"):
            turns = draw(st.integers(-4, 4))
            getattr(circuit, kind)(turns * math.pi / 2, pair[0])
        else:
            getattr(circuit, kind)(pair[0])
    noise = NoiseModel()
    rate = st.floats(0.0, 0.3, allow_nan=False)
    relax = thermal_relaxation_channel(
        1.2e-3, 1.0e-3, draw(st.floats(1e-8, 2e-4, allow_nan=False)))
    one_qubit = draw(st.sampled_from(["depolarizing", "relaxation", None]))
    if one_qubit == "depolarizing":
        noise.add_gate_error(depolarizing_channel(draw(rate), 1),
                             draw(st.lists(st.sampled_from(_CLIFFORD_1Q),
                                           min_size=1, unique=True)))
    elif one_qubit == "relaxation":
        noise.add_gate_error(relax, _CLIFFORD_1Q)
    if draw(st.booleans()):
        noise.add_gate_error(depolarizing_channel(draw(rate), 2),
                             _CLIFFORD_2Q)
    if draw(st.booleans()):
        noise.add_gate_error(two_qubit_tensor_channel(relax, relax), ["cx"])
    if draw(st.booleans()):
        weights = {label: draw(rate) / 3 for label in "XYZ"}
        weights["Z"] += 1e-3  # a PauliChannel needs one nonzero error
        noise.add_gate_error(PauliChannel(weights, name="injection"),
                             ["rz", "rx", "ry"])
    idle = draw(st.sampled_from(["depolarizing", "relaxation", None]))
    if idle == "depolarizing":
        noise.add_idle_error(depolarizing_channel(draw(rate), 1))
    elif idle == "relaxation":
        noise.add_idle_error(relax)
    if draw(st.booleans()):
        noise.add_readout_error(draw(st.floats(0.0, 0.2, allow_nan=False)))
    observable = draw(pauli_sums(num_qubits=n))
    return circuit, noise, observable, draw(st.booleans())


@st.composite
def parametric_templates(draw, max_qubits: int = 4, max_ops: int = 14):
    """``(template, points)``: rotations (``rx``/``ry``/``rz``/``rzz``/
    ``u3``) whose angles are affine forms of zero to two shared parameters
    with float coefficients and offsets, between static gates, and one to
    four points mixing generic angles with multiples of π/2 and π."""
    n = draw(st.integers(1, max_qubits))
    theta = ParameterVector("t", draw(st.integers(1, 4)))
    template = QuantumCircuit(n)
    template.rx(theta[0], 0)
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(["h", "s", "t", "cx", "cz", "rx", "ry",
                                     "rz", "rzz", "u3"]))
        pair = draw(st.permutations(range(n)))[:2]

        def angle():
            form = draw(st.sampled_from([0.0, -0.3, math.pi / 2]))
            for parameter in draw(st.lists(st.sampled_from(theta.params),
                                           max_size=2)):
                form = form + draw(st.sampled_from(
                    [-2.0, -1.0, 0.5, 1.0, 1.5])) * parameter
            return form

        if kind in ("cx", "cz", "rzz"):
            if n == 1:
                continue
            if kind == "rzz":
                template.rzz(angle(), *pair)
            else:
                getattr(template, kind)(*pair)
        elif kind == "u3":
            template.u3(angle(), angle(), angle(), pair[0])
        elif kind in ("rx", "ry", "rz"):
            getattr(template, kind)(angle(), pair[0])
        else:
            getattr(template, kind)(pair[0])
    width = len(template.ordered_parameters())
    values = st.one_of(
        st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False),
        st.integers(-4, 4).map(lambda k: k * math.pi / 2),
        st.integers(-2, 2).map(lambda k: k * math.pi))
    points = draw(st.lists(st.lists(values, min_size=width, max_size=width),
                           min_size=1, max_size=4))
    return template, np.array(points)


@st.composite
def clifford_templates(draw, max_qubits: int = 4, max_ops: int = 16):
    """``(template, observable, points)``: a parametric Clifford+rotation
    template whose angles are affine forms with integer coefficients, and
    sweep points at multiples of π/2 (so every point is Clifford)."""
    n = draw(st.integers(1, max_qubits))
    theta = ParameterVector("t", draw(st.integers(1, 4)))
    template = QuantumCircuit(n)
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(_CLIFFORD_1Q + _CLIFFORD_2Q
                                    + ["rx", "ry", "rz", "rzz", "u3"]))
        pair = draw(st.permutations(range(n)))[:2]

        def angle():
            form = draw(st.integers(-4, 4)) * math.pi / 2
            for parameter in draw(st.lists(st.sampled_from(theta.params),
                                           max_size=2)):
                form = form + draw(st.sampled_from([-2, -1, 1, 2])) * parameter
            return form

        if kind in _CLIFFORD_2Q or kind == "rzz":
            if n == 1:
                continue
            if kind == "rzz":
                template.rzz(angle(), *pair)
            else:
                getattr(template, kind)(*pair)
        elif kind == "u3":
            template.u3(angle(), angle(), angle(), pair[0])
        elif kind in ("rx", "ry", "rz"):
            getattr(template, kind)(angle(), pair[0])
        else:
            getattr(template, kind)(pair[0])
    if draw(st.booleans()):
        template.measure_all()
    width = len(template.ordered_parameters())
    points = draw(st.lists(st.lists(st.integers(0, 3), min_size=width,
                                    max_size=width),
                           min_size=1, max_size=6))
    points = [[k * math.pi / 2 for k in point] for point in points]
    return template, draw(pauli_sums(num_qubits=n)), points


@st.composite
def decoding_setups(draw):
    """``(graph, syndromes)`` with decodable syndrome batches.

    Syndromes are generated from random error subsets of the graph's edges,
    so every row is reachable by a physical error pattern (what the
    decoders' contracts are defined over).  Surface-code graphs at d=3
    hold syndromes whose minimum-weight matchings tie in logical parity,
    and at d=5 rows with more defects than the MWPM subset-DP cap, so both
    of the batched MWPM path's hand-offs to networkx are exercised.
    """
    distance = draw(st.sampled_from([3, 5]))
    rounds = draw(st.integers(1, 3))
    if draw(st.booleans()):
        graph = rotated_surface_code_graph(distance, rounds, 0.05)
    else:
        graph = repetition_code_graph(distance, rounds, 0.05)
    arrays = sampling_arrays(graph)
    shots = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    errors = (rng.random((shots, arrays.num_edges)) < 0.08).astype(np.uint8)
    syndromes, _ = syndromes_and_flips(arrays, errors)
    return graph, syndromes


def _decoder_suite(graph):
    """The five in-repo decoder configurations under contract."""
    return [
        MWPMDecoder(graph),
        UnionFindDecoder(graph),
        LookupDecoder(graph, max_error_weight=1),
        LookupDecoder(graph, max_error_weight=2),
        CliquePredecoder(graph, MWPMDecoder(graph)),
    ]


# ---------------------------------------------------------------------------
# bitops: packing, popcount, parity
# ---------------------------------------------------------------------------

class TestBitopsProperties:
    @given(rows=bit_matrices())
    def test_pack_unpack_roundtrip(self, rows):
        words = pack_rows(rows)
        assert words.dtype == np.uint64
        assert words.shape == (rows.shape[0], packed_words(rows.shape[1]))
        assert np.array_equal(unpack_rows(words, rows.shape[1]), rows)

    @given(rows=bit_matrices())
    def test_packed_tail_bits_are_zero(self, rows):
        words = pack_rows(rows)
        tail = rows.shape[1] % 64
        if tail:
            assert not np.any(words[:, -1] >> np.uint64(tail))

    @given(rows=bit_matrices())
    def test_popcount_matches_dense_sum(self, rows):
        words = pack_rows(rows)
        assert np.array_equal(popcount_words(words).sum(axis=1),
                              rows.sum(axis=1, dtype=np.int64))
        assert popcount(words) == int(rows.sum())

    @given(rows=bit_matrices())
    def test_popcount_native_equals_lut(self, rows):
        words = pack_rows(rows)
        native = popcount_words(words)
        byte_view = np.ascontiguousarray(words).view(np.uint8)
        lut = _POPCOUNT_LUT[byte_view] \
            .reshape(words.shape + (_WORD_BYTES,)).sum(axis=-1, dtype=np.uint8)
        assert np.array_equal(native, lut)

    @given(rows=bit_matrices())
    def test_parity_matches_mod2_sum(self, rows):
        words = pack_rows(rows)
        assert np.array_equal(parity(words),
                              (rows.sum(axis=1) % 2).astype(np.uint8))
        # axis=0 folds the shot rows first: word w's parity is the mod-2
        # sum of ALL bits landing in columns [64w, 64w+64).
        n_words = words.shape[1]
        padded = np.zeros(n_words * 64, dtype=np.int64)
        padded[:rows.shape[1]] = rows.sum(axis=0)
        expected = (padded.reshape(n_words, 64).sum(axis=1) % 2)
        assert np.array_equal(parity(words, axis=0),
                              expected.astype(np.uint8))


# ---------------------------------------------------------------------------
# bitops: mod-2 matmul contracts
# ---------------------------------------------------------------------------

class TestMod2MatmulProperties:
    @given(data=st.data())
    def test_matmul_packed_vs_dense(self, data):
        left = data.draw(bit_matrices(max_rows=8, max_cols=150), label="left")
        n_cols = left.shape[1]
        seed = data.draw(st.integers(0, 2**31), label="seed")
        right = np.random.default_rng(seed).integers(
            0, 2, size=(data.draw(st.integers(1, 8), label="rb"), n_cols),
            dtype=np.uint8)
        expected = (left.astype(np.int64) @ right.T.astype(np.int64)) % 2
        got = mod2_matmul_packed(pack_rows(left), pack_rows(right))
        assert np.array_equal(got, expected.astype(np.uint8))

    @given(data=st.data())
    def test_matvec_packed_vs_dense(self, data):
        rows = data.draw(bit_matrices(max_rows=10, max_cols=150))
        seed = data.draw(st.integers(0, 2**31))
        vector = np.random.default_rng(seed).integers(
            0, 2, size=rows.shape[1], dtype=np.uint8)
        expected = ((rows.astype(np.int64) @ vector.astype(np.int64)) % 2)
        got = mod2_matvec_packed(pack_rows(rows), pack_rows(vector))
        assert np.array_equal(got, expected.astype(np.uint8))

    @given(data=st.data())
    def test_gather_plan_vs_dense(self, data):
        rows = data.draw(bit_matrices(max_rows=10, max_cols=100))
        seed = data.draw(st.integers(0, 2**31))
        n_out = data.draw(st.integers(1, 100))
        matrix = np.random.default_rng(seed).integers(
            0, 2, size=(rows.shape[1], n_out), dtype=np.uint8)
        expected = ((rows.astype(np.int64) @ matrix.astype(np.int64)) % 2)
        plan = Mod2GatherPlan(matrix)
        packed_out = plan.matmul_rows(rows)
        assert np.array_equal(unpack_rows(packed_out, n_out),
                              expected.astype(np.uint8))
        assert np.array_equal(plan.matmul_packed(pack_rows(rows)), packed_out)


# ---------------------------------------------------------------------------
# Tableau: the reference tableau's fresh state
# ---------------------------------------------------------------------------

class TestTableauProperties:
    @given(st.integers(1, 80))
    def test_fresh_tableau_matches(self, n):
        # |0…0⟩: destabilizers X_i, stabilizers +Z_i.
        tableau = DenseStabilizerState(n)
        identity = np.eye(n, dtype=np.uint8)
        zeros = np.zeros((n, n), dtype=np.uint8)
        assert np.array_equal(tableau.x, np.vstack([identity, zeros]))
        assert np.array_equal(tableau.z, np.vstack([zeros, identity]))
        assert not tableau.r.any()


# ---------------------------------------------------------------------------
# Routing: auto-routed Clifford expectations vs the statevector
# ---------------------------------------------------------------------------

class TestAutoRoutingProperties:
    @given(setup=noisy_clifford_setups(max_qubits=8, max_ops=30))
    def test_auto_clifford_expectation_matches_statevector(self, setup):
        circuit, _, observable, _ = setup
        task = ExecutionTask(circuit, observable=observable)
        assert route_task(task) == "pauli_propagation"
        [value] = Executor(use_cache=False).evaluate_observable(
            circuit, observable, backend="auto")
        exact = StatevectorSimulator().expectation(circuit, observable)
        assert abs(value - exact) <= 1e-12


# ---------------------------------------------------------------------------
# Decoders: batch vs per-shot, packed vs dense
# ---------------------------------------------------------------------------

class TestDecoderProperties:
    @given(setup=decoding_setups())
    @settings(max_examples=20)
    def test_decode_batch_vs_decode_all_decoders(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        for decoder in _decoder_suite(graph):
            batched = decoder.decode_batch(syndromes, detectors)
            for row in range(syndromes.shape[0]):
                defects = [detectors[col]
                           for col in np.flatnonzero(syndromes[row])]
                single = bool(decoder.decode(defects).flips_logical)
                assert bool(batched[row]) == single, type(decoder).__name__

    @given(setup=decoding_setups())
    @settings(max_examples=20)
    def test_decode_batch_packed_vs_dense_all_decoders(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        words = pack_rows(syndromes, len(detectors))
        for decoder in _decoder_suite(graph):
            dense_flips = decoder.decode_batch(syndromes, detectors)
            packed_flips = decoder.decode_batch_packed(words, detectors)
            assert np.array_equal(dense_flips, packed_flips), \
                type(decoder).__name__

    @given(setup=decoding_setups())
    @settings(max_examples=15)
    def test_non_contiguous_syndromes_decode_identically(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        baseline = batch_decode(decoder, syndromes, detectors)
        # A Fortran-ordered copy and a doubled-then-strided view exercise
        # the one-normalization contract in _prepare_syndromes.
        fortran = np.asfortranarray(syndromes)
        strided = np.repeat(syndromes, 2, axis=0)[::2]
        assert not strided.flags.c_contiguous or syndromes.shape[0] == 1
        assert np.array_equal(batch_decode(decoder, fortran, detectors),
                              baseline)
        assert np.array_equal(batch_decode(decoder, strided, detectors),
                              baseline)

    @given(setup=decoding_setups())
    @settings(max_examples=15)
    def test_module_level_packed_shell_matches(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()

        class PlainDecoder:
            """decode()-only decoder: exercises the generic packed shell."""

            def __init__(self):
                self._inner = MWPMDecoder(graph)

            def decode(self, defects):
                return self._inner.decode(defects)

        words = pack_rows(syndromes, len(detectors))
        dense_flips = batch_decode(PlainDecoder(), syndromes, detectors)
        packed_flips = batch_decode_packed(PlainDecoder(), words, detectors)
        assert np.array_equal(dense_flips, packed_flips)


# ---------------------------------------------------------------------------
# Sampling: packed vs dense reference vs streamed
# ---------------------------------------------------------------------------

class TestSamplingKernelProperties:
    @given(seed=st.integers(0, 2**31), shots=st.integers(1, 64),
           distance=st.sampled_from([3, 5]), rounds=st.integers(1, 3))
    def test_packed_syndromes_match_dense(self, seed, shots, distance, rounds):
        graph = repetition_code_graph(distance, rounds, 0.02)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, shots, np.random.default_rng(seed))
        dense_syndromes, dense_flips = syndromes_and_flips(arrays, errors)
        words, packed_flips = packed_syndromes_and_flips(arrays, errors)
        assert np.array_equal(unpack_rows(words, arrays.num_detectors),
                              dense_syndromes)
        assert np.array_equal(packed_flips, dense_flips)

    @given(seed=st.integers(0, 2**31), shots=st.integers(1, 700))
    @settings(max_examples=15)
    def test_run_memory_sampling_kernel_equivalence(self, seed, shots):
        from repro.execution.executor import Executor
        from repro.qec.sampling import (run_memory_sampling,
                                        stream_memory_sampling)
        graph = repetition_code_graph(3, 2, 0.05)
        executor = Executor(use_cache=False)
        *_, streamed = stream_memory_sampling(graph, MWPMDecoder(graph),
                                              shots, seed=seed,
                                              executor=executor)
        results = [
            # dense float32 GEMM syndromes, per-shot decode
            run_memory_sampling_reference(graph, MWPMDecoder(graph), shots,
                                          seed=seed),
            run_memory_sampling(graph, MWPMDecoder(graph), shots, seed=seed,
                                executor=executor),
            streamed,
        ]
        failures = {r.failures for r in results}
        defects = {r.total_defects for r in results}
        assert len(failures) == 1 and len(defects) == 1


# ---------------------------------------------------------------------------
# Programs: compiled vs interpreted
# ---------------------------------------------------------------------------

class TestProgramProperties:
    @given(circuit=statevector_circuits())
    def test_compiled_matches_interpreted(self, circuit):
        compiled_state = compile_circuit(circuit).run_statevector()
        interpreted_state = run_interpreted(circuit)
        np.testing.assert_allclose(compiled_state, interpreted_state,
                                   atol=1e-12, rtol=0)

    @given(setup=parametric_templates(), data=st.data())
    def test_grouped_bind_matches_per_op_reference(self, setup, data):
        template, points = setup
        program = compile_circuit(template)
        n = template.num_qubits

        def bits(op):
            parts = op.data if isinstance(op.data, tuple) else (op.data,)
            return [None if part is None else part.tobytes()
                    for part in parts]

        assert [bits(op) for op in program.bind(points[0]).ops] == \
            [bits(op) for op in reference_bind.bind(program, points[0]).ops]
        for group, block in program._bind_blocks(points):
            for op, rows in zip(group.ops, block):
                if group.kind == OP_DIAG:
                    rows = _broadcast_diag(rows, op.qubits, n)
                assert rows.tobytes() == reference_bind.stacked_data(
                    op, points, n).tobytes()
        assert program.run_sweep(points).tobytes() == run_batch(
            [reference_bind.bind(program, point)
             for point in points]).tobytes()
        point = points[-1]
        bound = template.bind_parameters(point)
        assert program.point_program(point).run_statevector().tobytes() == \
            compile_circuit(bound).run_statevector().tobytes()
        observable = data.draw(pauli_sums(num_qubits=n))
        assert Executor().evaluate_point(
            template, point, observable, backend="statevector",
            use_cache=False) == Executor().evaluate_observable(
                bound, observable, backend="statevector",
                use_cache=False)[0]


# ---------------------------------------------------------------------------
# Density matrices: superoperator channels vs the Kraus loop
# ---------------------------------------------------------------------------

def _assert_physical(rho):
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12, rtol=0)


class TestDensityMatrixChannelProperties:
    @given(data=st.data())
    def test_superoperator_matches_kraus_loop(self, data):
        k = data.draw(st.sampled_from([1, 2]))
        channel = data.draw(cptp_channels(k))
        n = data.draw(st.integers(3, 7))
        qubits = tuple(data.draw(st.permutations(range(n)))[:k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rho = random_density_matrix(rng, n)
        out = _dm_apply_channel(rho, channel.superoperator(), qubits, n)
        reference = apply_channel(rho, channel, qubits, n)
        np.testing.assert_allclose(out, reference, atol=1e-12, rtol=0)
        _assert_physical(out)

    @given(setup=noisy_circuits(), apply_measure_noise=st.booleans())
    def test_noisy_program_matches_kraus_loop(self, setup,
                                              apply_measure_noise):
        noise, circuit = setup
        compiled = DensityMatrixSimulator(noise).run(
            circuit, apply_measure_noise=apply_measure_noise).data
        reference = naive_density_matrix_run(
            noise, circuit, apply_measure_noise=apply_measure_noise)
        np.testing.assert_allclose(compiled, reference, atol=1e-12, rtol=0)
        _assert_physical(compiled)


# ---------------------------------------------------------------------------
# Observables: grouped vs per-term readout
# ---------------------------------------------------------------------------

class TestGroupedReadoutProperties:
    @given(data=st.data())
    def test_statevector_grouped_vs_per_term(self, data):
        observable = data.draw(pauli_sums())
        circuit = data.draw(statevector_circuits(
            max_qubits=observable.num_qubits, max_ops=12))
        assume(circuit.num_qubits == observable.num_qubits)
        simulator = StatevectorSimulator()
        grouped = simulator.expectation_many(circuit, observable)
        state = simulator.run(circuit)
        for index, (pauli, _) in enumerate(observable.terms()):
            single = PauliSum(observable.num_qubits).add_term(pauli, 1.0)
            assert abs(grouped[index] - state.expectation(single)) <= 1e-12


# ---------------------------------------------------------------------------
# Planned contractions and readout plans vs their per-call derivations
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPlannedKernelProperties:
    @given(data=st.data())
    def test_contract_matches_tensordot_bitwise(self, data):
        kind = data.draw(st.sampled_from(["ket", "rows", "cols",
                                          "superoperator"]))
        if kind == "ket":
            ndim = data.draw(st.integers(1, 8))
            k = data.draw(st.integers(1, min(3, ndim)))
            axes = tuple(data.draw(st.permutations(range(ndim)))[:k])
        else:
            n = data.draw(st.integers(1, 4))
            ndim = 2 * n
            k = data.draw(st.integers(1, min(2, n)))
            qubits = data.draw(st.permutations(range(n)))[:k]
            rows = tuple(n - 1 - q for q in reversed(qubits))
            cols = tuple(n + axis for axis in rows)
            axes = {"rows": rows, "cols": cols,
                    "superoperator": rows + cols}[kind]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        side = 1 << len(axes)
        tensor = (rng.standard_normal((2,) * ndim)
                  + 1j * rng.standard_normal((2,) * ndim))
        if data.draw(st.booleans()):  # a transposed view, as gates leave
            order = data.draw(st.permutations(range(ndim)))
            tensor = tensor.transpose(order)
        matrix = (rng.standard_normal((side, side))
                  + 1j * rng.standard_normal((side, side)))
        if data.draw(st.booleans()):
            matrix = matrix.T
        k = len(axes)
        expected = np.moveaxis(
            np.tensordot(matrix.reshape([2] * (2 * k)), tensor,
                         axes=(list(range(k, 2 * k)), list(axes))),
            list(range(k)), list(axes))
        _contraction_plan.cache_clear()
        for _ in ("cold", "warm"):
            out = _contract(tensor, matrix, axes)
            assert _same_bits(out, expected)
            assert out.strides == expected.strides

    @given(data=st.data())
    def test_readout_plans_match_per_call_readout_bitwise(self, data):
        n = data.draw(st.integers(1, 6))
        terms = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        x_bits = rng.integers(0, 2, (terms, n), dtype=np.uint8)
        z_bits = rng.integers(0, 2, (terms, n), dtype=np.uint8)
        if data.draw(st.booleans()):
            x_bits[rng.random(terms) < 0.5] = 0  # diagonal terms
        dim = 1 << n
        states = (rng.standard_normal((3, dim))
                  + 1j * rng.standard_normal((3, dim)))
        rho = random_density_matrix(rng, n)
        over_ceiling = data.draw(st.booleans())
        plans = kernels._READOUT_PLANS
        ceiling = plans.max_bytes
        plans.clear()
        try:
            if over_ceiling:  # every plan is derived per read, not kept
                plans.max_bytes = 0
            for _ in ("cold", "warm"):
                assert _same_bits(
                    kernels.statevector_term_expectations(
                        states[0], x_bits, z_bits),
                    reference_readout.statevector_term_expectations(
                        states[0], x_bits, z_bits))
                assert _same_bits(
                    kernels.statevector_term_expectations_batch(
                        states, x_bits, z_bits),
                    reference_readout.statevector_term_expectations_batch(
                        states, x_bits, z_bits))
                assert _same_bits(
                    kernels.density_matrix_term_expectations(
                        rho, x_bits, z_bits),
                    reference_readout.density_matrix_term_expectations(
                        rho, x_bits, z_bits))
            assert len(plans) == (0 if over_ceiling else 1)
        finally:
            plans.max_bytes = ceiling
            plans.clear()


# ---------------------------------------------------------------------------
# Pauli propagation: packed kernel vs reference, compiled sweeps vs bound
# ---------------------------------------------------------------------------

def _bound_canonical(template, point):
    return merge_rz_runs(decompose_to_clifford_rz(
        template.bind_parameters(point)))


class TestPauliPropagationProperties:
    @given(setup=noisy_clifford_setups())
    def test_packed_kernel_matches_reference(self, setup):
        circuit, noise, observable, include_idle = setup
        values = propagate(circuit, observable, noise,
                           include_idle=include_idle)
        reference = reference_propagate(circuit, observable, noise,
                                        include_idle=include_idle)
        assert values.tobytes() == reference.term_values().tobytes()
        assert expectation_value(circuit, observable, noise,
                                 include_idle=include_idle) \
            == reference.expectation_on_zero_state()

    @given(setup=clifford_templates())
    def test_compiled_sweep_matches_bound_points(self, setup):
        template, observable, points = setup
        bound = [_bound_canonical(template, point) for point in points]
        reference = np.array([reference_propagate(circuit, observable)
                              .term_values() for circuit in bound])
        values = propagate(compile_clifford(template), observable,
                           points=points)
        assert values.tobytes() == reference.tobytes()
        swept = Executor(use_cache=False).evaluate_sweep(
            template, points, observable, backend="pauli_propagation")
        per_point = Executor(use_cache=False).evaluate_observable(
            bound, observable, backend="pauli_propagation")
        assert swept == per_point

    @given(setup=clifford_templates())
    def test_bad_points_still_raise(self, setup):
        template, observable, points = setup
        executor = Executor(use_cache=False)
        with pytest.raises(ValueError):
            executor.evaluate_sweep(template, [points[0] + [0.0]],
                                    observable, backend="pauli_propagation")
        program = compile_clifford(template)
        assume(program.num_parameters and program.coefficients[:, 0].any())
        # 0.3 times any small integer coefficient is off every k·π/2.
        point = [0.3] + points[0][1:]
        with pytest.raises(BackendCapabilityError):
            executor.evaluate_sweep(template, [point], observable,
                                    backend="pauli_propagation")


class TestRareEventProperties:
    """Contracts of the weight-stratified rare-event estimator: the
    Poisson-binomial stratum math is exact and conditional samples carry
    exactly their stratum's weight."""

    @given(data=st.data())
    def test_stratum_probabilities_normalize(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        max_weight = data.draw(st.integers(min_value=0, max_value=n))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        p = np.random.default_rng(seed).uniform(1e-8, 0.5, size=n)
        dist, tail = stratum_probabilities(p, max_weight)
        assert dist.shape == (max_weight + 1,)
        assert np.all(dist >= 0.0) and tail >= 0.0
        assert math.fsum(dist.tolist()) + tail == pytest.approx(1.0,
                                                                abs=1e-12)
        # truncation is exact for the kept bins: widening the window must
        # not change them (probability only ever flows upward in weight)
        wider, _ = stratum_probabilities(p, min(n, max_weight + 3))
        assert np.array_equal(dist, wider[:max_weight + 1])

    @given(data=st.data())
    def test_homogeneous_strata_match_binomial(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        rate = data.draw(st.floats(min_value=1e-6, max_value=0.5))
        dist, _ = stratum_probabilities(np.full(n, rate), n)
        for w in range(n + 1):
            exact = math.comb(n, w) * rate ** w * (1 - rate) ** (n - w)
            assert dist[w] == pytest.approx(exact, rel=1e-9, abs=1e-300)

    @given(data=st.data())
    @settings(deadline=None)
    def test_conditional_samples_carry_exact_weight(self, data):
        n = data.draw(st.integers(min_value=2, max_value=24))
        weight = data.draw(st.integers(min_value=1, max_value=n))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        p = rng.uniform(1e-6, 0.5, size=n)
        include = _conditional_include_table(p, weight)
        assert np.all((include >= 0.0) & (include <= 1.0))
        graph = repetition_code_graph(3, 2, 0.1)
        arrays = sampling_arrays(graph)
        table = _conditional_include_table(arrays.probabilities,
                                           min(weight, arrays.num_edges))
        errors = _sample_fixed_weight(arrays, min(weight, arrays.num_edges),
                                      32, rng, table)
        assert np.all(errors.sum(axis=1) == min(weight, arrays.num_edges))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
