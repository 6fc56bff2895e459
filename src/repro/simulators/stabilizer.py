"""Aaronson–Gottesman (CHP) stabilizer-tableau simulator.

This is the from-scratch substitute for Stim used by the paper for

* Clifford-state ("stabilizer proxy") evaluation of 16–100 qubit VQAs
  (Sec. 5.2.2), and
* deriving error-corrected operation error rates by simulating surface-code
  circuits (Sec. 5.2.1) — see :mod:`repro.qec.surface_memory`.

The tableau stores ``2n`` rows (n destabilizers followed by n stabilizers)
with X/Z bit matrices and a sign bit per row.  Since PR 7 the row bits live
**bit-packed** in ``uint64`` words (:mod:`repro.qec.bitops` layout: bit
``q`` of a row in word ``q // 64`` at position ``q % 64``): gates are O(1)
column-mask updates, and the rowsum — the measurement hot loop that was a
per-qubit Python loop — is a handful of word-wise boolean identities whose
±i phase tallies come from two popcounts.  The byte-per-bit implementation
it replaced is the test suite's differential reference
(``tests/reference/stabilizer.py``; ``tests/test_properties.py`` holds the
two bit-for-bit equal, including the measurement draw stream).

Supported Clifford gates: H, S, Sdg, SX, SXdg, X, Y, Z, CX, CZ, SWAP, plus
``rz``/``rx``/``ry`` at multiples of π/2.  Pauli errors can be injected
directly (used by Monte-Carlo noisy trajectories), and expectation values
of Pauli observables are computed exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import is_clifford_angle
from ..operators.pauli import PauliString, PauliSum
from .._bitops import pack_rows, packed_words, popcount, row_parity, \
    unpack_rows
from .noise import NoiseModel, PauliChannel, pauli_twirl


class _StabilizerOps:
    """Clifford conveniences derived from a tableau's primitive gates.

    Everything here is defined in terms of the primitive gate/measure
    methods a concrete tableau provides, so the packed state and the dense
    test reference built on this mixin cannot drift apart on derived
    operations.
    """

    def apply_sdg(self, qubit: int) -> None:
        # Sdg = Z · S
        self.apply_z(qubit)
        self.apply_s(qubit)

    def apply_sx(self, qubit: int) -> None:
        # SX = H · S · H (up to global phase)
        self.apply_h(qubit)
        self.apply_s(qubit)
        self.apply_h(qubit)

    def apply_sxdg(self, qubit: int) -> None:
        self.apply_h(qubit)
        self.apply_sdg(qubit)
        self.apply_h(qubit)

    def apply_cz(self, qubit_a: int, qubit_b: int) -> None:
        self.apply_h(qubit_b)
        self.apply_cx(qubit_a, qubit_b)
        self.apply_h(qubit_b)

    def apply_rz_clifford(self, theta: float, qubit: int) -> None:
        """Apply Rz at a multiple of π/2 (up to global phase)."""
        if not is_clifford_angle(theta):
            raise ValueError(f"Rz angle {theta} is not a Clifford angle")
        quarter_turns = int(round(theta / (math.pi / 2.0))) % 4
        if quarter_turns == 1:
            self.apply_s(qubit)
        elif quarter_turns == 2:
            self.apply_z(qubit)
        elif quarter_turns == 3:
            self.apply_sdg(qubit)

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a Pauli operator (e.g. an injected error) to the state."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("Pauli string size mismatch")
        for qubit in pauli.support():
            label = pauli.pauli_on(qubit)
            if label == "X":
                self.apply_x(qubit)
            elif label == "Y":
                self.apply_y(qubit)
            elif label == "Z":
                self.apply_z(qubit)

    def apply_pauli_label(self, label: str, qubits: Sequence[int]) -> None:
        """Apply a short Pauli label to specific qubits (for channel sampling)."""
        for character, qubit in zip(label, qubits):
            if character == "X":
                self.apply_x(qubit)
            elif character == "Y":
                self.apply_y(qubit)
            elif character == "Z":
                self.apply_z(qubit)

    def reset(self, qubit: int,
              rng: Optional[np.random.Generator] = None) -> None:
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            self.apply_x(qubit)

    def expectation(self, observable: PauliSum) -> float:
        total = 0.0
        for pauli, coeff in observable.terms():
            total += float(np.real(coeff)) * self.expectation_pauli(pauli)
        return total


class StabilizerState(_StabilizerOps):
    """A pure stabilizer state on ``num_qubits`` qubits (packed CHP tableau).

    Row bits are stored bit-packed: ``x_words``/``z_words`` are
    ``(2n, packed_words(n))`` uint64 in the :func:`repro.qec.bitops.pack_rows`
    layout, ``r`` the per-row sign bits.  The byte-matrix row API survives
    as the read-only :attr:`x`/:attr:`z` properties (unpacked snapshots) so
    existing row-level callers keep working; mutation goes through the gate
    methods.  Bitwise-identical in behaviour — including every measurement
    RNG draw — to the byte-per-bit test reference.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        self.num_words = packed_words(n)
        # Rows 0..n-1: destabilizers (initially X_i); rows n..2n-1: stabilizers (Z_i).
        self.x_words = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.z_words = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        qubits = np.arange(n)
        bits = np.uint64(1) << (qubits & 63).astype(np.uint64)
        self.x_words[qubits, qubits >> 6] = bits
        self.z_words[n + qubits, qubits >> 6] = bits

    # -- helpers ------------------------------------------------------------
    def copy(self) -> "StabilizerState":
        new = StabilizerState.__new__(StabilizerState)
        new.num_qubits = self.num_qubits
        new.num_words = self.num_words
        new.x_words = self.x_words.copy()
        new.z_words = self.z_words.copy()
        new.r = self.r.copy()
        return new

    @property
    def x(self) -> np.ndarray:
        """Unpacked ``(2n, n)`` X-bit matrix (a snapshot, not a view)."""
        return unpack_rows(self.x_words, self.num_qubits)

    @property
    def z(self) -> np.ndarray:
        """Unpacked ``(2n, n)`` Z-bit matrix (a snapshot, not a view)."""
        return unpack_rows(self.z_words, self.num_qubits)

    @staticmethod
    def _column(qubit: int) -> Tuple[int, np.uint64]:
        """``(word index, bit mask)`` addressing one qubit's tableau column."""
        return qubit >> 6, np.uint64(1 << (qubit & 63))

    @staticmethod
    def _phase_tally(x1: np.ndarray, z1: np.ndarray,
                     x2: np.ndarray, z2: np.ndarray) -> int:
        """Σ_j g(x1,z1,x2,z2) over packed Pauli rows, via two popcounts.

        The Aaronson–Gottesman ``g`` is +1 on the bit patterns
        Y·Z / X·Y / Z·X and −1 on Y·X / X·Z / Z·Y; each case is one
        word-wise boolean minterm, and every minterm contains a
        non-negated operand, so zero tail bits can never contribute.
        """
        plus = ((x1 & z1 & ~x2 & z2)
                | (x1 & ~z1 & x2 & z2)
                | (~x1 & z1 & x2 & ~z2))
        minus = ((x1 & z1 & x2 & ~z2)
                 | (x1 & ~z1 & ~x2 & z2)
                 | (~x1 & z1 & x2 & z2))
        return int(popcount(plus)) - int(popcount(minus))

    def _rowsum_into(self, target_x: np.ndarray, target_z: np.ndarray,
                     target_phase: int,
                     row: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Multiply an external packed Pauli row by tableau ``row``.

        Phases are in units of i²; inputs/outputs are packed word rows.
        """
        row_x = self.x_words[row]
        row_z = self.z_words[row]
        phase = (2 * int(self.r[row]) + target_phase
                 + self._phase_tally(row_x, row_z, target_x, target_z))
        return target_x ^ row_x, target_z ^ row_z, phase % 4

    def _rowsum(self, h: int, i: int) -> None:
        """Tableau rowsum: row h ← row h · row i (Aaronson–Gottesman)."""
        new_x, new_z, phase = self._rowsum_into(
            self.x_words[h].copy(), self.z_words[h].copy(),
            2 * int(self.r[h]), i)
        if phase not in (0, 2):
            raise RuntimeError("rowsum produced imaginary phase; tableau corrupted")
        self.r[h] = phase // 2
        self.x_words[h] = new_x
        self.z_words[h] = new_z

    # -- gate application -----------------------------------------------------
    def apply_h(self, qubit: int) -> None:
        word, mask = self._column(qubit)
        x_bits = self.x_words[:, word] & mask
        z_bits = self.z_words[:, word] & mask
        self.r ^= ((x_bits != 0) & (z_bits != 0)).astype(np.uint8)
        keep = ~mask
        self.x_words[:, word] = (self.x_words[:, word] & keep) | z_bits
        self.z_words[:, word] = (self.z_words[:, word] & keep) | x_bits

    def apply_s(self, qubit: int) -> None:
        word, mask = self._column(qubit)
        x_bits = self.x_words[:, word] & mask
        self.r ^= ((x_bits != 0)
                   & ((self.z_words[:, word] & mask) != 0)).astype(np.uint8)
        self.z_words[:, word] ^= x_bits

    def apply_x(self, qubit: int) -> None:
        word, mask = self._column(qubit)
        self.r ^= ((self.z_words[:, word] & mask) != 0).astype(np.uint8)

    def apply_z(self, qubit: int) -> None:
        word, mask = self._column(qubit)
        self.r ^= ((self.x_words[:, word] & mask) != 0).astype(np.uint8)

    def apply_y(self, qubit: int) -> None:
        word, mask = self._column(qubit)
        self.r ^= (((self.x_words[:, word] ^ self.z_words[:, word]) & mask)
                   != 0).astype(np.uint8)

    def apply_cx(self, control: int, target: int) -> None:
        word_a, mask_a = self._column(control)
        word_b, mask_b = self._column(target)
        x_a = (self.x_words[:, word_a] & mask_a) != 0
        z_a = (self.z_words[:, word_a] & mask_a) != 0
        x_b = (self.x_words[:, word_b] & mask_b) != 0
        z_b = (self.z_words[:, word_b] & mask_b) != 0
        self.r ^= (x_a & z_b & ~(x_b ^ z_a)).astype(np.uint8)
        self.x_words[:, word_b] ^= np.where(x_a, mask_b, np.uint64(0))
        self.z_words[:, word_a] ^= np.where(z_b, mask_a, np.uint64(0))

    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        word_a, mask_a = self._column(qubit_a)
        word_b, mask_b = self._column(qubit_b)
        for words in (self.x_words, self.z_words):
            differ = (((words[:, word_a] & mask_a) != 0)
                      ^ ((words[:, word_b] & mask_b) != 0))
            words[:, word_a] ^= np.where(differ, mask_a, np.uint64(0))
            words[:, word_b] ^= np.where(differ, mask_b, np.uint64(0))

    # -- measurement -------------------------------------------------------------
    def measure(self, qubit: int, rng: Optional[np.random.Generator] = None) -> int:
        """Measure a qubit in the Z basis, collapsing the state."""
        rng = rng or np.random.default_rng()
        n = self.num_qubits
        word, mask = self._column(qubit)
        x_column = (self.x_words[:, word] & mask) != 0
        # Random outcome iff some stabilizer anticommutes with Z_qubit,
        # i.e. has an X component on the qubit.
        candidates = np.flatnonzero(x_column[n:])
        if candidates.size:
            p = int(candidates[0]) + n
            # Skip row p−n as well as p: destabilizer p−n anticommutes with
            # stabilizer p by the tableau invariant, so their rowsum phase
            # is imaginary — and the row is overwritten with old row p
            # below, so the product is discarded anyway.
            for i in np.flatnonzero(x_column):
                if int(i) != p and int(i) != p - n:
                    self._rowsum(int(i), p)
            # Destabilizer p-n ← old stabilizer p; stabilizer p ← ±Z_qubit.
            self.x_words[p - n] = self.x_words[p]
            self.z_words[p - n] = self.z_words[p]
            self.r[p - n] = self.r[p]
            self.x_words[p] = 0
            self.z_words[p] = 0
            self.z_words[p, word] = mask
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        # Deterministic outcome.
        scratch_x = np.zeros(self.num_words, dtype=np.uint64)
        scratch_z = np.zeros(self.num_words, dtype=np.uint64)
        phase = 0
        for i in np.flatnonzero(x_column[:n]):
            scratch_x, scratch_z, phase = self._rowsum_into(
                scratch_x, scratch_z, phase, int(i) + n)
        return int(phase // 2)

    # -- expectation values ---------------------------------------------------------
    def expectation_pauli(self, pauli: PauliString) -> float:
        """⟨P⟩ for a Hermitian Pauli operator: exactly -1, 0 or +1."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("Pauli string size mismatch")
        if pauli.is_identity():
            return float(pauli.phase.real)
        n = self.num_qubits
        pauli_x = pack_rows(pauli.x.astype(np.uint8), n)
        pauli_z = pack_rows(pauli.z.astype(np.uint8), n)
        # Anticommutes with some stabilizer → expectation 0.  The symplectic
        # product is the parity of (x & pz) ^ (z & px) per packed row.
        anti_stab = row_parity((self.x_words[n:] & pauli_z)
                               ^ (self.z_words[n:] & pauli_x))
        if np.any(anti_stab):
            return 0.0
        # P equals ± the product of stabilizers indexed by destabilizers that
        # anticommute with P.
        anti_destab = row_parity((self.x_words[:n] & pauli_z)
                                 ^ (self.z_words[:n] & pauli_x))
        scratch_x = np.zeros(self.num_words, dtype=np.uint64)
        scratch_z = np.zeros(self.num_words, dtype=np.uint64)
        phase = 0
        for i in np.flatnonzero(anti_destab):
            scratch_x, scratch_z, phase = self._rowsum_into(
                scratch_x, scratch_z, phase, int(i) + n)
        if not (np.array_equal(scratch_x, pauli_x)
                and np.array_equal(scratch_z, pauli_z)):
            raise RuntimeError("stabilizer decomposition failed; tableau corrupted")
        sign = 1.0 if phase == 0 else -1.0
        # Account for the observable's own phase (must be ±1 for Hermitian P).
        return sign * float(pauli.phase.real)

    def stabilizer_strings(self) -> List[PauliString]:
        """The n stabilizer generators as PauliString objects."""
        n = self.num_qubits
        x_rows = unpack_rows(self.x_words[n:], n)
        z_rows = unpack_rows(self.z_words[n:], n)
        strings = []
        for row in range(n):
            phase_power = 2 if self.r[n + row] else 0
            strings.append(PauliString(x_rows[row], z_rows[row], phase_power))
        return strings


class StabilizerSimulator:
    """Executes Clifford circuits on stabilizer states, optionally with Pauli noise.

    With a noise model, ``expectation`` averages Monte-Carlo Pauli-error
    trajectories; the deterministic alternative is
    :mod:`repro.simulators.pauli_propagation`, which is
    exact for the same noise class and is what the evaluation pipeline uses.
    """

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 seed: Optional[int] = None):
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)

    def _apply_instruction(self, state, inst,
                           rng: Optional[np.random.Generator] = None) -> None:
        name = inst.name
        if name in ("barrier", "measure"):
            return
        if name == "reset":
            state.reset(inst.qubits[0], rng if rng is not None else self._rng)
            return
        if name in ("i", "id"):
            return
        if name == "h":
            state.apply_h(inst.qubits[0])
        elif name == "s":
            state.apply_s(inst.qubits[0])
        elif name == "sdg":
            state.apply_sdg(inst.qubits[0])
        elif name == "sx":
            state.apply_sx(inst.qubits[0])
        elif name == "sxdg":
            state.apply_sxdg(inst.qubits[0])
        elif name == "x":
            state.apply_x(inst.qubits[0])
        elif name == "y":
            state.apply_y(inst.qubits[0])
        elif name == "z":
            state.apply_z(inst.qubits[0])
        elif name in ("cx", "cnot"):
            state.apply_cx(*inst.qubits)
        elif name == "cz":
            state.apply_cz(*inst.qubits)
        elif name == "swap":
            state.apply_swap(*inst.qubits)
        elif name == "rz":
            state.apply_rz_clifford(float(inst.params[0]), inst.qubits[0])
        elif name == "rx":
            qubit = inst.qubits[0]
            state.apply_h(qubit)
            state.apply_rz_clifford(float(inst.params[0]), qubit)
            state.apply_h(qubit)
        elif name == "ry":
            qubit = inst.qubits[0]
            state.apply_sdg(qubit)
            state.apply_h(qubit)
            state.apply_rz_clifford(float(inst.params[0]), qubit)
            state.apply_h(qubit)
            state.apply_s(qubit)
        else:
            raise ValueError(f"gate {name!r} is not supported by the stabilizer simulator")

    def _sample_channel(self, state, channel,
                        qubits: Sequence[int],
                        rng: Optional[np.random.Generator] = None) -> None:
        pauli_channel = channel if isinstance(channel, PauliChannel) else pauli_twirl(channel)
        label = pauli_channel.sample(rng if rng is not None else self._rng)
        state.apply_pauli_label(label, qubits)

    def run(self, circuit: QuantumCircuit,
            inject_noise: bool = True,
            rng: Optional[np.random.Generator] = None) -> StabilizerState:
        """Run a single (possibly noisy) trajectory of the circuit.

        ``rng`` overrides the simulator's own generator for this trajectory —
        the hook that lets a trajectory ensemble assign one spawned
        :class:`numpy.random.SeedSequence` child per trajectory, making the
        ensemble's results independent of how trajectories are sharded
        across worker processes.
        """
        state = StabilizerState(circuit.num_qubits)
        noise = self.noise_model if inject_noise else None
        idle_channel = noise.idle_channel if noise is not None else None
        for layer in circuit.layers():
            busy: set = set()
            for inst in layer:
                busy.update(inst.qubits)
                self._apply_instruction(state, inst, rng)
                if noise is not None and inst.gate.is_unitary and inst.name != "barrier":
                    for channel in noise.gate_channels(inst.name):
                        self._sample_channel(state, channel, inst.qubits, rng)
            if idle_channel is not None:
                for qubit in range(circuit.num_qubits):
                    if qubit not in busy:
                        self._sample_channel(state, idle_channel, (qubit,), rng)
        return state

    def expectation(self, circuit: QuantumCircuit, observable: PauliSum, *,
                    initial_state=None,
                    trajectories: Optional[int] = None) -> float:
        """Noisy expectation value averaged over Monte-Carlo trajectories.

        ``initial_state`` is accepted for signature parity with the dense
        simulators; the tableau simulator only supports the |0…0⟩ start and
        raises if a different state is requested.  ``trajectories`` defaults
        to 200 when the noise model is nontrivial.
        """
        if initial_state is not None:
            raise ValueError("StabilizerSimulator only supports the |0...0> "
                             "initial state")
        trajectories = 200 if trajectories is None else int(trajectories)
        if self.noise_model is None or not self.noise_model.has_noise():
            state = self.run(circuit, inject_noise=False)
            return state.expectation(observable)
        total = 0.0
        readout_damping = 1.0 - 2.0 * self.noise_model.readout_error
        for _ in range(trajectories):
            state = self.run(circuit, inject_noise=True)
            for pauli, coeff in observable.terms():
                value = state.expectation_pauli(pauli)
                total += float(np.real(coeff)) * value * readout_damping ** pauli.weight()
        return total / trajectories

    # -- grouped-observable fast path -----------------------------------------
    def _grouped_term_plan(self, observable: PauliSum):
        """QWC measurement plan: per group, the basis-change instructions and
        the (term index, Z-image) pairs to read off the rotated tableau."""
        from ..operators.grouping import group_commuting
        index_by_key = {pauli.key(): i
                        for i, (pauli, _) in enumerate(observable.terms())}
        plan = []
        for group in group_commuting(observable, qubitwise=True):
            rotation = list(group.basis_change_circuit(observable.num_qubits))
            readouts = []
            for pauli, _ in group.terms:
                # The single-qubit rotation maps every group member onto the
                # Z-string over its own support (H: X→Z, H·S†: Y→Z).
                z_image = PauliString(np.zeros(observable.num_qubits,
                                               dtype=np.uint8),
                                      (pauli.x | pauli.z).astype(np.uint8))
                readouts.append((index_by_key[pauli.key()], z_image))
            plan.append((rotation, readouts))
        return plan

    def _read_groups(self, state, plan,
                     values: np.ndarray) -> None:
        """Accumulate one state's term values into ``values`` via the plan."""
        for rotation, readouts in plan:
            rotated = state.copy() if rotation else state
            for inst in rotation:
                self._apply_instruction(rotated, inst)
            for term_index, z_image in readouts:
                values[term_index] += rotated.expectation_pauli(z_image)

    def expectation_many(self, circuit: QuantumCircuit, observable: PauliSum, *,
                         initial_state=None,
                         trajectories: Optional[int] = None) -> np.ndarray:
        """Per-term ⟨P_i⟩ with one tableau evolution per trajectory.

        Terms are partitioned into qubit-wise-commuting groups
        (:func:`repro.operators.grouping.group_commuting`); the circuit is
        evolved **once** (per noisy trajectory) and each group is read out by
        applying its single-qubit basis rotation to a copy of the final
        tableau and evaluating the terms' Z-basis images — one basis rotation
        per group rather than one circuit run per term.  Noisy values average
        ``trajectories`` Monte-Carlo runs and damp each term by
        ``(1 − 2·p_meas)^w`` exactly as :meth:`expectation` does.  Values
        align with ``observable.terms()`` (coefficients are not applied).

        Note: the tableau *could* read every Pauli directly
        (:meth:`StabilizerState.expectation_pauli`) with identical results;
        the grouped basis-rotation path deliberately mirrors the hardware
        measurement model the QWC grouping exists for (one measured circuit
        per group), keeping the simulated cost structure aligned with the
        shot-based cost model in :mod:`repro.operators.grouping`.
        """
        if initial_state is not None:
            raise ValueError("StabilizerSimulator only supports the |0...0> "
                             "initial state")
        plan = self._grouped_term_plan(observable)
        values = np.zeros(observable.num_terms)
        identity_indices = [i for i, (pauli, _) in enumerate(observable.terms())
                            if pauli.is_identity()]
        noisy = self.noise_model is not None and self.noise_model.has_noise()
        if not noisy:
            state = self.run(circuit, inject_noise=False)
            self._read_groups(state, plan, values)
            for index in identity_indices:
                values[index] = 1.0
            return values
        trajectories = 200 if trajectories is None else int(trajectories)
        for _ in range(trajectories):
            state = self.run(circuit, inject_noise=True)
            self._read_groups(state, plan, values)
        values /= trajectories
        for index in identity_indices:
            values[index] = 1.0
        readout_damping = 1.0 - 2.0 * self.noise_model.readout_error
        weights = np.array([pauli.weight() for pauli, _ in observable.terms()])
        return values * readout_damping ** weights

    def trajectory_term_values(self, circuit: QuantumCircuit,
                               observable: PauliSum,
                               seeds: Sequence) -> np.ndarray:
        """Raw per-trajectory term values, one seeded trajectory per row.

        Runs ``len(seeds)`` noisy trajectories, each with its **own**
        generator built from the corresponding seed (any
        ``numpy.random.default_rng`` seed — typically
        :class:`numpy.random.SeedSequence` children spawned from one base
        seed), and returns a ``(len(seeds), num_terms)`` array of term
        values read through the QWC group plan.  Because every trajectory's
        randomness is a pure function of its seed, any partition of the seed
        list across worker processes reproduces the same rows — this is the
        determinism contract behind process-sharded Monte-Carlo ensembles
        (``parallel="process"``).  Values are raw: identity terms are 1,
        readout damping is **not** applied (callers average the rows, then
        damp by ``(1 − 2·p_meas)^weight`` exactly like :meth:`expectation_many`).
        """
        plan = self._grouped_term_plan(observable)
        identity_indices = [i for i, (pauli, _)
                            in enumerate(observable.terms())
                            if pauli.is_identity()]
        values = np.zeros((len(seeds), observable.num_terms))
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            state = self.run(circuit, inject_noise=True, rng=rng)
            self._read_groups(state, plan, values[row])
            for index in identity_indices:
                values[row, index] = 1.0
        return values

    def sample(self, circuit: QuantumCircuit, shots: int) -> Dict[str, int]:
        """Sample measurement outcomes over full trajectories (1 shot = 1 run)."""
        counts: Dict[str, int] = {}
        for _ in range(shots):
            state = self.run(circuit)
            bits = []
            flip_probability = (self.noise_model.readout_error
                                if self.noise_model is not None else 0.0)
            for qubit in range(circuit.num_qubits):
                outcome = state.measure(qubit, self._rng)
                if flip_probability > 0 and self._rng.random() < flip_probability:
                    outcome ^= 1
                bits.append(str(outcome))
            key = "".join(bits)
            counts[key] = counts.get(key, 0) + 1
        return counts
