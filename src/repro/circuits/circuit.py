"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
over ``num_qubits`` qubits and an equal number of classical bits (one per
qubit, used by terminal measurements).  The IR intentionally mirrors the small
subset of Qiskit's circuit model that the paper's evaluation needs: gate
appends, parameter binding, composition, inversion, depth and gate-count
queries, and iteration for the simulators and the lattice-surgery scheduler.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .gates import Gate
from .parameters import (LinearForm, Parameter, ParameterExpression,
                         evaluate_form, free_parameters, linear_form)


_BOUND_VALUE = struct.Struct("<cd")


def _bound_value_bytes(value: float) -> bytes:
    """A bound parameter value in the fingerprint stream: ``F`` + its
    float.  The one encoding both :meth:`QuantumCircuit.fingerprint` and
    :meth:`QuantumCircuit.bound_fingerprint` write, so the two agree."""
    return _BOUND_VALUE.pack(b"F", value)


def _instruction_head(inst: "Instruction") -> bytes:
    """An instruction's fingerprint bytes before its parameters: gate name,
    qubit indices, ``|``, classical-bit indices."""
    return b"".join((
        inst.name.encode("utf-8"),
        struct.pack(f"<{len(inst.qubits)}i", *inst.qubits),
        b"|",
        struct.pack(f"<{len(inst.clbits)}i", *inst.clbits)))


@dataclass(frozen=True)
class Instruction:
    """A gate bound to specific qubit (and optionally classical bit) indices."""

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "clbits", tuple(int(c) for c in self.clbits))
        if self.gate.name != "barrier" and len(self.qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate.name!r} acts on {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)} indices")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("instruction qubits must be distinct")

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def params(self) -> tuple:
        return self.gate.params

    def bind(self, bindings: Mapping) -> "Instruction":
        return Instruction(self.gate.bind(bindings), self.qubits, self.clbits)

    def __repr__(self):
        qubits = ", ".join(str(q) for q in self.qubits)
        return f"{self.gate!r} q[{qubits}]"


class QuantumCircuit:
    """A mutable, ordered quantum circuit over ``num_qubits`` qubits.

    Derived structure (:meth:`fingerprint`, :meth:`ordered_parameters`,
    :meth:`parametric_slots`) is memoized per circuit; every writer of the
    instruction list drops the memo.
    """

    #: Class default, so a circuit unpickled without a memo still has one.
    _memo: Optional[Dict[str, object]] = None

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._instructions: List[Instruction] = []
        self.name = name
        self.metadata: Dict[str, object] = {}

    def __getstate__(self):
        # The memo never travels: shard payloads pickle circuits, and their
        # bytes must not depend on which queries ran before.
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def _memoized(self, key: str, compute: Callable[[], object]):
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # -- basic properties ----------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        return self._num_qubits

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction list (a live reference: read it, but append
        through the circuit's methods, which keep the memo current)."""
        return self._instructions

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    # -- appending -------------------------------------------------------------
    def _check_qubits(self, qubits: Sequence[int]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self._num_qubits:
                raise IndexError(
                    f"qubit index {qubit} out of range for {self._num_qubits}-qubit "
                    f"circuit")

    def append(self, gate: Gate, qubits: Sequence[int],
               clbits: Sequence[int] = ()) -> "QuantumCircuit":
        """Append ``gate`` acting on ``qubits``; returns ``self`` for chaining."""
        self._check_qubits(qubits)
        self._instructions.append(Instruction(gate, tuple(qubits), tuple(clbits)))
        self._memo = None
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        self._check_qubits(instruction.qubits)
        self._instructions.append(instruction)
        self._memo = None
        return self

    # Named gate helpers ---------------------------------------------------
    def i(self, qubit: int): return self.append(Gate("id"), (qubit,))

    def x(self, qubit: int): return self.append(Gate("x"), (qubit,))

    def y(self, qubit: int): return self.append(Gate("y"), (qubit,))

    def z(self, qubit: int): return self.append(Gate("z"), (qubit,))

    def h(self, qubit: int): return self.append(Gate("h"), (qubit,))

    def s(self, qubit: int): return self.append(Gate("s"), (qubit,))

    def sdg(self, qubit: int): return self.append(Gate("sdg"), (qubit,))

    def sx(self, qubit: int): return self.append(Gate("sx"), (qubit,))

    def sxdg(self, qubit: int): return self.append(Gate("sxdg"), (qubit,))

    def t(self, qubit: int): return self.append(Gate("t"), (qubit,))

    def tdg(self, qubit: int): return self.append(Gate("tdg"), (qubit,))

    def rx(self, theta, qubit: int):
        return self.append(Gate("rx", (theta,)), (qubit,))

    def ry(self, theta, qubit: int):
        return self.append(Gate("ry", (theta,)), (qubit,))

    def rz(self, theta, qubit: int):
        return self.append(Gate("rz", (theta,)), (qubit,))

    def u3(self, theta, phi, lam, qubit: int):
        return self.append(Gate("u3", (theta, phi, lam)), (qubit,))

    def cx(self, control: int, target: int):
        return self.append(Gate("cx"), (control, target))

    def cnot(self, control: int, target: int):
        return self.cx(control, target)

    def cz(self, qubit_a: int, qubit_b: int):
        return self.append(Gate("cz"), (qubit_a, qubit_b))

    def swap(self, qubit_a: int, qubit_b: int):
        return self.append(Gate("swap"), (qubit_a, qubit_b))

    def rzz(self, theta, qubit_a: int, qubit_b: int):
        return self.append(Gate("rzz", (theta,)), (qubit_a, qubit_b))

    def measure(self, qubit: int, clbit: Optional[int] = None):
        clbit = qubit if clbit is None else clbit
        return self.append(Gate("measure"), (qubit,), (clbit,))

    def measure_all(self):
        for qubit in range(self._num_qubits):
            self.measure(qubit)
        return self

    def reset(self, qubit: int):
        return self.append(Gate("reset"), (qubit,))

    def barrier(self, *qubits: int):
        targets = tuple(qubits) if qubits else tuple(range(self._num_qubits))
        self._instructions.append(Instruction(Gate("barrier"), targets))
        self._memo = None
        return self

    # -- structural queries ----------------------------------------------------
    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names, excluding barriers."""
        counts: Dict[str, int] = {}
        for instruction in self._instructions:
            if instruction.name == "barrier":
                continue
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def size(self) -> int:
        """Total number of (non-barrier) instructions."""
        return sum(1 for inst in self._instructions if inst.name != "barrier")

    def num_two_qubit_gates(self) -> int:
        return sum(1 for inst in self._instructions
                   if inst.gate.is_unitary and len(inst.qubits) == 2)

    def num_nonclifford_gates(self) -> int:
        """Count of gates outside the Clifford group at their bound angles."""
        count = 0
        for inst in self._instructions:
            if not inst.gate.is_unitary:
                continue
            if inst.gate.is_parameterized:
                count += 1
            elif not inst.gate.is_clifford:
                count += 1
        return count

    def depth(self, *, count: Optional[Callable[[Instruction], bool]] = None) -> int:
        """Circuit depth: longest chain of instructions sharing qubits.

        ``count`` optionally restricts which instructions contribute a unit of
        depth (others still create scheduling dependencies but contribute 0).
        """
        levels = [0] * self._num_qubits
        for inst in self._instructions:
            if inst.name == "barrier":
                if inst.qubits:
                    top = max(levels[q] for q in inst.qubits)
                    for qubit in inst.qubits:
                        levels[qubit] = top
                continue
            weight = 1
            if count is not None and not count(inst):
                weight = 0
            top = max(levels[q] for q in inst.qubits)
            for qubit in inst.qubits:
                levels[qubit] = top + weight
        return max(levels) if levels else 0

    def two_qubit_depth(self) -> int:
        return self.depth(count=lambda inst: len(inst.qubits) == 2)

    @property
    def parameters(self) -> frozenset[Parameter]:
        """All free parameters appearing in the circuit, in no particular order."""
        found: set[Parameter] = set()
        for inst in self._instructions:
            found.update(free_parameters(inst.params))
        return frozenset(found)

    def ordered_parameters(self) -> List[Parameter]:
        """Free parameters in first-appearance order (stable for optimizers)."""
        return list(self._memoized("ordered_parameters",
                                   self._ordered_parameters))

    def _ordered_parameters(self) -> Tuple[Parameter, ...]:
        seen: Dict[Parameter, None] = {}
        for inst in self._instructions:
            for value in inst.params:
                if isinstance(value, ParameterExpression):
                    for param in sorted(value.parameters, key=lambda p: p.name):
                        seen.setdefault(param)
        return tuple(seen)

    def parametric_slots(self) -> Tuple[Tuple[int, Tuple[LinearForm, ...]],
                                        ...]:
        """``(instruction index, forms)`` of every instruction with a free
        parameter, in circuit order (memoized).

        ``forms`` holds one :data:`~repro.circuits.parameters.LinearForm`
        per gate parameter over :meth:`ordered_parameters` positions, so
        ``evaluate_form(form, values)`` is bitwise the angle
        ``bind_parameters(values)`` puts in that slot.
        """
        return self._memoized("parametric_slots", self._parametric_slots)

    def _parametric_slots(self):
        positions = {param: index
                     for index, param in enumerate(self.ordered_parameters())}
        return tuple((index, tuple(linear_form(value, positions)
                                   for value in inst.params))
                     for index, inst in enumerate(self._instructions)
                     if inst.gate.is_parameterized)

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def is_clifford(self) -> bool:
        """True when every unitary gate in the circuit is Clifford."""
        return self.num_nonclifford_gates() == 0

    def has_measurements(self) -> bool:
        return any(inst.name == "measure" for inst in self._instructions)

    def fingerprint(self) -> str:
        """Stable structural hash of the circuit (hex digest).

        Two circuits share a fingerprint exactly when they have the same qubit
        count and the same ordered instruction stream — gate names, qubit and
        classical-bit indices, and parameter values (bound floats are hashed
        bit-exactly; free symbolic parameters by their name *and appearance
        pattern*: each distinct parameter is numbered in first-appearance
        order, and expressions hash those indices with the names,
        coefficients and offset, so a circuit reusing one parameter twice
        never collides with one using two same-named parameters).  Circuit
        name and ``metadata`` do **not**
        contribute, so rebuilding the same circuit yields the same
        fingerprint across processes.  This is the cache/deduplication key
        used by :mod:`repro.execution` and the compiled-program cache in
        :mod:`repro.simulators.program`.  Memoized until the next append.
        """
        return self._memoized("fingerprint", self._fingerprint)

    def _fingerprint(self) -> str:
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(struct.pack("<I", self._num_qubits))
        appearance: Dict[Parameter, int] = {}
        for inst in self._instructions:
            hasher.update(_instruction_head(inst))
            for param in inst.params:
                if isinstance(param, ParameterExpression) and not param.is_bound:
                    hasher.update(b"P")
                    # Within one expression, parameters enumerate in sorted
                    # name order — mirroring ordered_parameters(), so the
                    # appearance numbering matches positional binding.
                    for free in sorted(param.parameters,
                                       key=lambda p: p.name):
                        index = appearance.setdefault(free, len(appearance))
                        hasher.update(free.name.encode("utf-8"))
                        hasher.update(struct.pack(
                            "<id", index, param.coefficient(free)))
                    hasher.update(b"+" + struct.pack("<d", param.offset))
                else:
                    # Bound expressions hash like plain floats so a
                    # template-bound circuit matches its directly-built twin.
                    hasher.update(_bound_value_bytes(float(param)))
            hasher.update(b";")
        return hasher.hexdigest()

    def bound_fingerprint(self, values: Sequence[float]) -> str:
        """``bind_parameters(values).fingerprint()``, with no circuit built.

        ``values`` is positional (aligned with :meth:`ordered_parameters`).
        The bytes between parametric values are fixed by the template and
        memoized; each parametric slot contributes the float
        :func:`~repro.circuits.parameters.evaluate_form` gives it, which is
        bitwise the angle :meth:`bind_parameters` binds.  This is what lets
        a template-served evaluation share the bound circuit's cache keys.
        """
        segments, forms = self._memoized("bound_fingerprint",
                                         self._bound_fingerprint_plan)
        if len(values) != len(self.ordered_parameters()):
            raise ValueError(
                f"expected {len(self.ordered_parameters())} parameter "
                f"values, got {len(values)}")
        parts = [segments[0]]
        for form, segment in zip(forms, segments[1:]):
            parts.append(_bound_value_bytes(evaluate_form(form, values)))
            parts.append(segment)
        return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()

    def _bound_fingerprint_plan(self):
        """``(segments, forms)``: the fixed byte runs of a bound twin's
        fingerprint stream, split at its parametric values, and each
        value's linear form (``len(segments) == len(forms) + 1``)."""
        slots = dict(self.parametric_slots())
        segments: List[bytes] = []
        forms: List[LinearForm] = []
        current = [struct.pack("<I", self._num_qubits)]
        for index, inst in enumerate(self._instructions):
            current.append(_instruction_head(inst))
            if index in slots:
                # Binding turns every parameter of the slot into a float.
                for form in slots[index]:
                    segments.append(b"".join(current))
                    forms.append(form)
                    current = []
            else:
                for param in inst.params:
                    current.append(_bound_value_bytes(float(param)))
            current.append(b";")
        segments.append(b"".join(current))
        return tuple(segments), tuple(forms)

    # -- transformation ---------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        new = QuantumCircuit(self._num_qubits, name or self.name)
        new._instructions = list(self._instructions)
        new.metadata = dict(self.metadata)
        return new

    def bind_parameters(self, bindings) -> "QuantumCircuit":
        """Return a copy with parameters substituted.

        ``bindings`` may be a mapping ``{Parameter: value}`` or a sequence of
        values matched against :meth:`ordered_parameters`.
        """
        if not isinstance(bindings, Mapping):
            ordered = self.ordered_parameters()
            values = list(bindings)
            if len(values) != len(ordered):
                raise ValueError(
                    f"expected {len(ordered)} parameter values, got {len(values)}")
            bindings = dict(zip(ordered, values))
        new = QuantumCircuit(self._num_qubits, self.name)
        new.metadata = dict(self.metadata)
        for inst in self._instructions:
            if inst.gate.is_parameterized:
                new.append_instruction(inst.bind(bindings))
            else:
                new.append_instruction(inst)
        return new

    def compose(self, other: "QuantumCircuit",
                qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Return a new circuit equal to ``self`` followed by ``other``.

        ``qubits`` maps the other circuit's qubit ``i`` onto
        ``qubits[i]`` of this circuit (identity mapping by default).
        """
        if qubits is None:
            if other.num_qubits > self._num_qubits:
                raise ValueError("composed circuit does not fit")
            qubits = list(range(other.num_qubits))
        else:
            qubits = list(qubits)
            if len(qubits) != other.num_qubits:
                raise ValueError("qubit mapping length mismatch")
        new = self.copy()
        for inst in other:
            mapped = tuple(qubits[q] for q in inst.qubits)
            new.append_instruction(Instruction(inst.gate, mapped, inst.clbits))
        return new

    def inverse(self) -> "QuantumCircuit":
        """The inverse circuit (measurements and resets are not invertible)."""
        new = QuantumCircuit(self._num_qubits, f"{self.name}_dg")
        for inst in reversed(self._instructions):
            if inst.name == "barrier":
                new.barrier(*inst.qubits)
                continue
            if not inst.gate.is_unitary:
                raise ValueError(f"cannot invert non-unitary gate {inst.name!r}")
            new.append(inst.gate.inverse(), inst.qubits)
        return new

    def without_measurements(self) -> "QuantumCircuit":
        new = QuantumCircuit(self._num_qubits, self.name)
        new.metadata = dict(self.metadata)
        new._instructions = [inst for inst in self._instructions
                             if inst.name not in ("measure", "reset",
                                                  "barrier")]
        if len(new._instructions) == len(self._instructions) and self._memo:
            # Nothing stripped: the copy has this circuit's fingerprint
            # and parameters, so it keeps the memo instead of re-hashing.
            new._memo = dict(self._memo)
        return new

    # -- layering (used by the scheduler and noise models) -------------------
    def layers(self) -> List[List[Instruction]]:
        """Greedy as-soon-as-possible layering of the circuit.

        Two instructions share a layer when their qubit sets are disjoint.
        Barriers force a new layer.
        """
        layers: List[List[Instruction]] = []
        occupied: List[set] = []
        frontier = [0] * self._num_qubits
        for inst in self._instructions:
            if inst.name == "barrier":
                level = max((frontier[q] for q in inst.qubits), default=0)
                for qubit in inst.qubits:
                    frontier[qubit] = level
                continue
            level = max(frontier[q] for q in inst.qubits)
            while len(layers) <= level:
                layers.append([])
                occupied.append(set())
            # Find the first layer at or after `level` with no qubit overlap.
            while occupied[level] & set(inst.qubits):
                level += 1
                if len(layers) <= level:
                    layers.append([])
                    occupied.append(set())
            layers[level].append(inst)
            occupied[level].update(inst.qubits)
            for qubit in inst.qubits:
                frontier[qubit] = level + 1
        return [layer for layer in layers if layer]

    # -- comparison / presentation ---------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (self._num_qubits == other._num_qubits
                and self._instructions == other._instructions)

    def __repr__(self):
        counts = self.count_ops()
        summary = ", ".join(f"{name}:{count}" for name, count in sorted(counts.items()))
        return (f"QuantumCircuit(name={self.name!r}, qubits={self._num_qubits}, "
                f"ops=[{summary}])")

    def draw(self) -> str:
        """A plain-text listing of the circuit (one instruction per line)."""
        lines = [f"QuantumCircuit {self.name!r} on {self._num_qubits} qubits:"]
        for index, inst in enumerate(self._instructions):
            lines.append(f"  {index:4d}: {inst!r}")
        return "\n".join(lines)
