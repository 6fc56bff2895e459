"""Exact noisy expectation values for Clifford circuits via Pauli propagation.

For a Clifford circuit ``U = U_L … U_1`` with stochastic Pauli noise inserted
between gates, the expectation of a Pauli observable O obeys

    ⟨O⟩ = f · ⟨0…0| U_1† … U_L† O U_L … U_1 |0…0⟩,

where the Heisenberg-picture observable stays a single Pauli (with sign) under
Clifford conjugation, and every Pauli noise location contributes a
multiplicative damping factor ``f_loc = Σ_a p_a · (±1)`` depending on whether
the *intermediate* observable commutes with each error Pauli ``P_a``.  This is
exact — not sampled — which is why the large-qubit evaluation pipeline uses it
instead of Monte-Carlo stabilizer trajectories; the two agree (see the test
suite) but this one is deterministic and fast.

**Packed layout.**  One backward pass carries every Hamiltonian term — and,
for a compiled sweep, every sweep point — at once.  Bit ``p·T + t`` stands
for term ``t`` at point ``p`` (``T`` terms).  Each qubit's X column and Z
column is one Python integer over those bits, and so is the sign column.  A
gate is then a few integer operations on two or four columns, whatever the
number of terms and points (the update rules are the standard symplectic ones
of Aaronson & Gottesman, quant-ph/0406196).  An ``Rz(k·π/2)`` whose ``k``
differs per point is applied through three per-point masks: S on the points
with ``k = 1``, Z on ``k = 2``, Sdg on ``k = 3``.

**Compiled templates.**  :func:`compile_clifford` canonicalizes a parametric
template once — the *symbolic* :func:`~repro.circuits.transpile.decompose_to_clifford_rz`
and :func:`~repro.circuits.transpile.merge_rz_runs` keep the symbols — and
lowers it to a flat op table in backward order.  Every parametric ``Rz`` is a
slot: a qubit plus a linear form over parameter positions.  Programs are
memoized by template fingerprint in the process-wide program cache
(:func:`~repro.simulators.program.program_cache_counters` counts them).  A
sweep then costs one vectorized angle evaluation, the slot masks and one
packed pass — no per-point circuit bind, fingerprint or transpile.

**Noise damping.**  Noisy circuits run one point per pass (the damping
differs per term and location).  Each Pauli channel carries a table of its
``4^k`` class factors — class = the observable's Pauli on the channel's
qubits — summed once per channel instance in the channel's label order, so
``damping *= table[class]`` is bitwise what a per-label loop gives.  The
locations of one circuit position share one unpack of the touched columns.

Cost model: ``O(gates)`` integer operations on ``points·terms``-bit integers,
plus ``O(noise locations)`` small numpy gathers over ``terms`` on noisy
circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import CLIFFORD_ANGLE_ATOL, is_clifford_angle
from ..circuits.parameters import ParameterExpression
from ..circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from ..operators.pauli import PauliSum
from .noise import NoiseModel, PauliChannel, pauli_twirl
from .program import cached_program

# Op codes of the packed kernel.  Every op is ``(code, a, b)``: qubits for
# gates; for ``_RZ`` the qubit and the slot index; for ``_NOISE`` the index
# of the noise group.
_H, _S, _SDG, _X, _Y, _Z, _SX, _SXDG, _CX, _CZ, _SWAP, _RZ, _NOISE = range(13)

_GATE_CODES = {"h": _H, "s": _S, "sdg": _SDG, "x": _X, "y": _Y, "z": _Z,
               "sx": _SX, "sxdg": _SXDG, "cx": _CX, "cnot": _CX, "cz": _CZ,
               "swap": _SWAP}
_SKIPPED = frozenset({"barrier", "measure", "i", "id"})
#: Rz(k·π/2) as the Clifford it equals: identity, S, Z, Sdg.
_QUARTER_TURN_CODES = ((), (_S,), (_Z,), (_SDG,))
#: Pauli class of an ``(x, z)`` bit pair at index ``2x + z``: I, Z, X, Y
#: map to classes 0 (I), 3 (Z), 1 (X), 2 (Y).
_CLASS_OF_XZ = np.array([0, 3, 1, 2], dtype=np.uint8)
_PAULI_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def _quarter_turns(theta: float) -> int:
    if not is_clifford_angle(theta):
        raise ValueError(
            f"Pauli propagation only supports Clifford angles; got Rz({theta})")
    return int(round(theta / (math.pi / 2.0))) % 4


def _lower(inst) -> List[Tuple[int, int, int]]:
    """The ops of one bound instruction, in backward (conjugation) order.

    A parametric ``rz`` is left to the caller (see :func:`compile_clifford`).
    """
    name = inst.name
    qubits = inst.qubits
    if name in _SKIPPED:
        return []
    code = _GATE_CODES.get(name)
    if code is not None:
        return [(code, qubits[0], qubits[-1])]
    if name in ("rz", "rx", "ry"):
        qubit = qubits[0]
        turns = [(c, qubit, 0) for c in
                 _QUARTER_TURN_CODES[_quarter_turns(float(inst.params[0]))]]
        if name == "rz":
            return turns
        if name == "rx":
            return [(_H, qubit, 0), *turns, (_H, qubit, 0)]
        # Ry = Sdg·H·Rz·H·S in circuit order; conjugation walks it backwards.
        return [(_S, qubit, 0), (_H, qubit, 0), *turns, (_H, qubit, 0),
                (_SDG, qubit, 0)]
    raise ValueError(f"gate {name!r} is not Clifford-propagatable")


# ---------------------------------------------------------------------------
# Noise damping tables
# ---------------------------------------------------------------------------

def _damping_table(channel: PauliChannel) -> np.ndarray:
    """Damping factor per Pauli class on the channel's qubits (memoized).

    Class ``Σ_j r_j·4^j`` has Pauli ``r_j`` (0=I, 1=X, 2=Y, 3=Z) on the
    channel's qubit ``j``.  Each factor is summed in the channel's label
    order from 0.0, exactly as a per-label loop over the terms would.
    """
    table = channel._damping_table
    if table is None:
        width = channel.num_qubits
        labels = [([_PAULI_INDEX[c] for c in label.upper()], probability)
                  for label, probability in channel.probabilities.items()
                  if probability > 0.0]
        table = np.empty(4 ** width)
        for klass in range(4 ** width):
            classes = [(klass >> (2 * j)) & 3 for j in range(width)]
            factor = 0.0
            for error, probability in labels:
                anticommuting = sum(1 for r, e in zip(classes, error)
                                    if r and e and r != e)
                factor += -probability if anticommuting & 1 else probability
            table[klass] = factor
        table.setflags(write=False)
        channel._damping_table = table
    return table


def _noise_groups(circuit: QuantumCircuit, noise_model: NoiseModel,
                  include_idle: bool) -> Dict[int, tuple]:
    """Per instruction index: ``(qubits, entries)`` of its noise locations.

    ``qubits`` lists the distinct qubits the locations touch; every entry is
    ``(rows, factor)`` — ``rows`` index ``qubits`` in the location's qubit
    order, ``factor`` is a class table or, for readout, the scalar
    ``1 − 2p`` applied to terms that act on the measured qubit.  Entries keep
    the order of :meth:`NoiseModel.error_locations`.
    """
    by_index: Dict[int, Tuple[List[int], list]] = {}
    for location in noise_model.error_locations(circuit,
                                                include_idle=include_idle):
        channel = location.channel
        pauli_channel = (channel if isinstance(channel, PauliChannel)
                         else pauli_twirl(channel))
        qubits, entries = by_index.setdefault(location.instruction_index,
                                              ([], []))
        rows = []
        for qubit in location.qubits:
            if qubit not in qubits:
                qubits.append(qubit)
            rows.append(qubits.index(qubit))
        if location.kind == "measure":
            # Symmetric readout flips: damping (1-2p) per measured qubit in
            # the support of the observable.
            factor = 1.0 - 2.0 * pauli_channel.probabilities.get("X", 0.0)
            entries.extend(((row,), factor) for row in rows)
        else:
            entries.append((tuple(rows), _damping_table(pauli_channel)))
    return {index: (tuple(qubits), tuple(entries))
            for index, (qubits, entries) in by_index.items()}


# ---------------------------------------------------------------------------
# The packed kernel
# ---------------------------------------------------------------------------

def _unpack(columns: Sequence[int], num_bits: int) -> np.ndarray:
    """``(len(columns), num_bits)`` uint8 bit matrix of packed columns."""
    num_bytes = (num_bits + 7) // 8
    raw = np.frombuffer(b"".join(column.to_bytes(num_bytes, "little")
                                 for column in columns), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(columns), num_bytes), axis=1,
                         count=num_bits, bitorder="little")


def _pack_rows(bits: np.ndarray) -> List[int]:
    """One packed integer per row of a 0/1 matrix (bit ``i`` = column ``i``)."""
    packed = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8), axis=1,
                         bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _damp(group: tuple, xs: List[int], zs: List[int], damping: np.ndarray,
          num_bits: int) -> None:
    """Multiply one circuit position's noise factors into ``damping``."""
    qubits, entries = group
    bits = _unpack([xs[q] for q in qubits] + [zs[q] for q in qubits],
                   num_bits)
    width = len(qubits)
    classes = _CLASS_OF_XZ[(bits[:width] << 1) | bits[width:]]
    for rows, factor in entries:
        if isinstance(factor, float):
            np.multiply(damping, factor, out=damping,
                        where=classes[rows[0]] != 0)
        elif len(rows) == 1:
            damping *= factor[classes[rows[0]]]
        else:
            index = classes[rows[0]].astype(np.intp)
            for j, row in enumerate(rows[1:], start=1):
                index += classes[row].astype(np.intp) << (2 * j)
            damping *= factor[index]


def _evolve(ops, xs: List[int], zs: List[int], masks=(), groups=(),
            damping: Optional[np.ndarray] = None, num_bits: int = 0) -> int:
    """Conjugate the packed columns through ``ops``; returns the sign column.

    ``xs`` / ``zs`` are updated in place.  ``masks[slot]`` holds the
    ``(k=1, k=2, k=3, k∈{1,3})`` point masks of a parametric Rz slot;
    ``groups[i]`` is a noise group (see :func:`_noise_groups`).
    """
    sign = 0
    for code, a, b in ops:
        if code == _CX:
            xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
            sign ^= xa & zb & ~(xb ^ za)
            xs[b] = xb ^ xa
            zs[a] = za ^ zb
        elif code == _H:
            xa, za = xs[a], zs[a]
            sign ^= xa & za
            xs[a], zs[a] = za, xa
        elif code == _RZ:
            one, two, three, odd = masks[b]
            xa, za = xs[a], zs[a]
            sign ^= xa & ((one & ~za) | two | (three & za))
            zs[a] = za ^ (xa & odd)
        elif code == _S:            # X → -Y, Y → X
            xa, za = xs[a], zs[a]
            sign ^= xa & ~za
            zs[a] = za ^ xa
        elif code == _SDG:          # X → Y, Y → -X
            xa, za = xs[a], zs[a]
            sign ^= xa & za
            zs[a] = za ^ xa
        elif code == _Z:
            sign ^= xs[a]
        elif code == _X:
            sign ^= zs[a]
        elif code == _Y:
            sign ^= xs[a] ^ zs[a]
        elif code == _SX:           # Z → Y, Y → -Z
            xa, za = xs[a], zs[a]
            sign ^= xa & za
            xs[a] = xa ^ za
        elif code == _SXDG:         # Z → -Y, Y → Z
            xa, za = xs[a], zs[a]
            sign ^= za & ~xa
            xs[a] = xa ^ za
        elif code == _CZ:
            xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
            sign ^= xa & xb & (za ^ zb)
            zs[a] = za ^ xb
            zs[b] = zb ^ xa
        elif code == _SWAP:
            xs[a], xs[b] = xs[b], xs[a]
            zs[a], zs[b] = zs[b], zs[a]
        else:
            _damp(groups[b], xs, zs, damping, num_bits)
    return sign


def _run(ops, observable: PauliSum, num_points: int = 1, masks=(),
         groups=(), noisy: bool = False) -> np.ndarray:
    """Per-term values ``(num_points, num_terms)`` of one packed pass."""
    terms = list(observable.terms())
    num_terms = len(terms)
    num_bits = num_points * num_terms
    if not num_terms:
        return np.zeros((num_points, 0))
    # Term t's Pauli at every point: its per-term column pattern repeated
    # once per point block (blocks never overlap, so no carries).
    repeat = sum(1 << (p * num_terms) for p in range(num_points))
    x_bits = np.array([pauli.x for pauli, _ in terms], dtype=np.uint8)
    z_bits = np.array([pauli.z for pauli, _ in terms], dtype=np.uint8)
    xs = [column * repeat for column in _pack_rows(x_bits.T)]
    zs = [column * repeat for column in _pack_rows(z_bits.T)]
    damping = np.ones(num_bits) if noisy else None
    sign = _evolve(ops, xs, zs, masks, groups, damping, num_bits)
    off_diagonal = 0
    for column in xs:
        off_diagonal |= column
    bits = _unpack([off_diagonal, sign], num_bits)
    signs = 1.0 - 2.0 * bits[1]
    values = np.where(bits[0] == 0,
                      signs * damping if noisy else signs, 0.0)
    return values.reshape(num_points, num_terms)


# ---------------------------------------------------------------------------
# Compiled templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CliffordProgram:
    """A parametric template lowered once for packed Pauli propagation.

    ``ops`` is the backward-order op table.  Slot ``s`` is the parametric
    Rz whose angle is ``offsets[s] + coefficients[s] · point``, with point
    entries in :meth:`QuantumCircuit.ordered_parameters` order.
    """

    num_qubits: int
    num_parameters: int
    ops: Tuple[Tuple[int, int, int], ...]
    coefficients: np.ndarray
    offsets: np.ndarray
    fingerprint: str

    def quarter_turns(self, points) -> np.ndarray:
        """``(slots, points)`` Rz quarter turns ``k`` of every sweep point.

        Raises ``ValueError`` on a wrong-length point and on a point that
        puts some slot off a multiple of π/2.
        """
        points = np.asarray(points, dtype=float).reshape(len(points), -1)
        if points.shape[1] != self.num_parameters:
            raise ValueError(f"expected {self.num_parameters} parameter "
                             f"values, got {points.shape[1]}")
        ratios = (points @ self.coefficients.T + self.offsets) / (math.pi / 2)
        nearest = np.round(ratios)
        off = np.abs(ratios - nearest) > CLIFFORD_ANGLE_ATOL
        if off.any():
            point, slot = map(int, np.argwhere(off)[0])
            raise ValueError(
                f"sweep point {point} puts Rz slot {slot} at "
                f"{ratios[point, slot] * math.pi / 2!r}, not a Clifford "
                f"angle (multiple of pi/2)")
        return np.mod(nearest, 4).astype(np.int64).T

    def slot_masks(self, points, num_terms: int
                   ) -> List[Tuple[int, int, int, int]]:
        """Per slot: the masks of the points at ``k = 1, 2, 3`` and at
        ``k ∈ {1, 3}``, each point widened to its ``num_terms`` bits."""
        turns = self.quarter_turns(points)
        one, two, three = (_pack_rows(np.repeat(turns == k, num_terms, axis=1))
                           for k in (1, 2, 3))
        return [(a, b, c, a | c) for a, b, c in zip(one, two, three)]


def compile_clifford(template: QuantumCircuit,
                     fingerprint: Optional[str] = None) -> CliffordProgram:
    """Lower a parametric Clifford+Rz template once (memoized by fingerprint).

    ``fingerprint`` may pass in ``template.fingerprint()`` when the caller
    already has it.  Raises ``ValueError`` when a static gate is not
    Clifford-propagatable.
    """
    if fingerprint is None:
        fingerprint = template.fingerprint()
    return cached_program(("clifford", fingerprint),
                          lambda: _compile(template, fingerprint),
                          lambda program: 64 * (len(program.ops)
                                                + program.coefficients.size))


def _compile(template: QuantumCircuit, fingerprint: str) -> CliffordProgram:
    canonical = merge_rz_runs(decompose_to_clifford_rz(template))
    positions = {parameter: index for index, parameter
                 in enumerate(template.ordered_parameters())}
    ops: List[Tuple[int, int, int]] = []
    coefficients: List[np.ndarray] = []
    offsets: List[float] = []
    for inst in reversed(canonical.instructions):
        angle = inst.params[0] if inst.params else None
        if (inst.name == "rz" and isinstance(angle, ParameterExpression)
                and not angle.is_bound):
            row = np.zeros(len(positions))
            for parameter in angle.parameters:
                row[positions[parameter]] = angle.coefficient(parameter)
            ops.append((_RZ, inst.qubits[0], len(offsets)))
            coefficients.append(row)
            offsets.append(angle.offset)
        else:
            ops.extend(_lower(inst))
    return CliffordProgram(
        template.num_qubits, len(positions), tuple(ops),
        np.array(coefficients).reshape(len(offsets), len(positions)),
        np.array(offsets), fingerprint)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def propagate(circuit, observable: PauliSum,
              noise_model: Optional[NoiseModel] = None,
              include_idle: bool = True, points=None) -> np.ndarray:
    """One packed backward pass; returns per-term values.

    ``circuit`` is either a bound Clifford circuit — noise allowed; the
    result is the ``(num_terms,)`` values of ``observable.terms()`` — or a
    :class:`CliffordProgram` with ``points`` (noiseless; the result is
    ``(len(points), num_terms)``).  Values are ``sign · damping`` for terms
    whose propagated Pauli is diagonal, else 0; coefficients are not applied.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    if isinstance(circuit, CliffordProgram):
        masks = circuit.slot_masks(points, observable.num_terms)
        return _run(circuit.ops, observable, len(points), masks)
    groups: Dict[int, tuple] = {}
    if noise_model is not None and noise_model.has_noise():
        groups = _noise_groups(circuit, noise_model, include_idle)
    ops: List[Tuple[int, int, int]] = []
    instructions = circuit.instructions
    for index in range(len(instructions) - 1, -1, -1):
        if index in groups:
            ops.append((_NOISE, 0, index))
        ops.extend(_lower(instructions[index]))
    return _run(ops, observable, groups=groups, noisy=bool(groups))[0]


def expectation_value(circuit: QuantumCircuit, observable: PauliSum,
                      noise_model: Optional[NoiseModel] = None,
                      include_idle: bool = True) -> float:
    """Exact expectation value of ``observable`` after ``circuit`` under Pauli noise.

    The circuit must be Clifford (rotations at multiples of π/2).  The noise
    model's channels are Pauli-twirled if they are not already Pauli channels,
    which reproduces the paper's treatment of non-Clifford thermal relaxation
    in the Clifford-simulation flow (Sec. 5.2.2).
    """
    values = propagate(circuit, observable, noise_model,
                       include_idle=include_idle)
    coefficients = np.array([float(np.real(c)) for _, c in observable.terms()])
    # Identity terms stay diagonal, so the identity coefficient is included.
    return float(np.sum(np.where(values != 0.0, coefficients * values, 0.0)))


class PauliPropagationSimulator:
    """Class-based facade over :func:`expectation_value`.

    Gives the Pauli-propagation engine the same
    ``expectation(circuit, observable, ...)`` surface as
    :class:`~repro.simulators.statevector.StatevectorSimulator`,
    :class:`~repro.simulators.density_matrix.DensityMatrixSimulator` and
    :class:`~repro.simulators.stabilizer.StabilizerSimulator`, so all four
    execution paths are interchangeable behind
    :mod:`repro.execution`'s backend adapters.
    """

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 include_idle: bool = True):
        self.noise_model = noise_model
        self.include_idle = include_idle

    def expectation(self, circuit: QuantumCircuit, observable: PauliSum, *,
                    initial_state=None, trajectories: Optional[int] = None,
                    include_idle: Optional[bool] = None) -> float:
        """Exact noisy ⟨H⟩ of a Clifford circuit (deterministic, no sampling).

        ``initial_state`` and ``trajectories`` are accepted for signature
        parity with the other simulators; propagation starts from |0…0⟩ and
        is exact, so a non-default ``initial_state`` raises and
        ``trajectories`` is ignored.
        """
        if initial_state is not None:
            raise ValueError("PauliPropagationSimulator only supports the "
                             "|0...0> initial state")
        include_idle = self.include_idle if include_idle is None else include_idle
        return expectation_value(circuit, observable, self.noise_model,
                                 include_idle=include_idle)

    def expectation_many(self, circuit: QuantumCircuit, observable: PauliSum, *,
                         initial_state=None, trajectories: Optional[int] = None,
                         include_idle: Optional[bool] = None) -> np.ndarray:
        """Per-term noisy ⟨P_i⟩ from a **single** propagation pass.

        The propagator already carries every term of ``observable`` through
        the circuit simultaneously, so per-term values cost the same one
        evolution as the summed energy.  Values align with
        ``observable.terms()`` (coefficients are not applied); identity terms
        report their accumulated damping (1.0 without noise).
        ``initial_state`` must be None and ``trajectories`` is ignored, as in
        :meth:`expectation`.
        """
        if initial_state is not None:
            raise ValueError("PauliPropagationSimulator only supports the "
                             "|0...0> initial state")
        include_idle = self.include_idle if include_idle is None else include_idle
        return propagate(circuit, observable, self.noise_model,
                         include_idle=include_idle)
