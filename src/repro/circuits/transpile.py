"""Circuit rewriting passes.

The pQEC execution model of the paper keeps non-Clifford content in the form
of native ``Rz(θ)`` rotations (Clifford + Rz gate set), whereas the
``qec-conventional`` baseline synthesizes every rotation into Clifford+T.
These passes provide the plumbing both regimes need:

* ``decompose_to_clifford_rz`` — rewrite RX/RY/RZZ/U3 so that the only
  non-Clifford gates left are Z rotations (plus T/Tdg which are Rz(π/4)).
* ``merge_rz_runs`` — fuse adjacent Z rotations on the same qubit.
* ``snap_to_clifford`` — round every rotation to the nearest multiple of π/2
  and re-express it with Clifford gates.  This is the "Clifford state proxy"
  the paper uses for 16–100 qubit evaluations (Sec. 5.2.2).
* ``gate_census`` — CNOT / Rz / Clifford accounting used by the analytical
  fidelity model and the ansatz-design rule of Sec. 4.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .circuit import QuantumCircuit
from .gates import Gate, is_clifford_angle
from .parameters import ParameterExpression

TWO_PI = 2.0 * math.pi


def _normalize_angle(theta: float) -> float:
    """Map an angle into (-π, π]."""
    theta = math.fmod(theta, TWO_PI)
    if theta > math.pi:
        theta -= TWO_PI
    elif theta <= -math.pi:
        theta += TWO_PI
    return theta


def decompose_to_clifford_rz(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite the circuit over the Clifford + Rz(θ) gate set.

    RX, RY, RZZ and U3 gates are expanded using the standard identities

    * ``Rx(θ) = H · Rz(θ) · H``
    * ``Ry(θ) = Sdg · H · Rz(θ) · H · S``  (written in circuit order)
    * ``Rzz(θ) = CX · (Rz(θ) on target) · CX``
    * ``U3(θ, φ, λ) = Rz(φ) · Rx(θ) · Rz(λ)`` up to global phase (then Rx is
      expanded as above).

    Symbolic parameters are preserved.
    """
    out = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_clifford_rz")
    out.metadata = dict(circuit.metadata)
    for inst in circuit:
        name = inst.name
        if name == "rx":
            (qubit,) = inst.qubits
            theta = inst.params[0]
            out.h(qubit)
            out.rz(theta, qubit)
            out.h(qubit)
        elif name == "ry":
            (qubit,) = inst.qubits
            theta = inst.params[0]
            out.sdg(qubit)
            out.h(qubit)
            out.rz(theta, qubit)
            out.h(qubit)
            out.s(qubit)
        elif name == "rzz":
            control, target = inst.qubits
            theta = inst.params[0]
            out.cx(control, target)
            out.rz(theta, target)
            out.cx(control, target)
        elif name == "u3":
            (qubit,) = inst.qubits
            theta, phi, lam = inst.params
            out.rz(lam, qubit)
            out.h(qubit)
            out.rz(theta, qubit)
            out.h(qubit)
            out.rz(phi, qubit)
        else:
            out.append_instruction(inst)
    return out


def merge_rz_runs(circuit: QuantumCircuit, drop_identity: bool = True,
                  atol: float = 1e-12) -> QuantumCircuit:
    """Fuse consecutive Rz gates acting on the same qubit.

    Only runs that are adjacent in the per-qubit gate stream are merged (any
    intervening gate on that qubit breaks the run).  Symbolic angles are
    summed symbolically.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    out.metadata = dict(circuit.metadata)
    pending: Dict[int, object] = {}

    def flush(qubit: int) -> None:
        if qubit not in pending:
            return
        angle = pending.pop(qubit)
        if isinstance(angle, ParameterExpression):
            out.rz(angle, qubit)
            return
        angle = _normalize_angle(float(angle))
        if drop_identity and abs(angle) <= atol:
            return
        out.rz(angle, qubit)

    for inst in circuit:
        if inst.name == "rz":
            (qubit,) = inst.qubits
            theta = inst.params[0]
            if qubit in pending:
                pending[qubit] = pending[qubit] + theta
            else:
                pending[qubit] = theta
            continue
        for qubit in inst.qubits:
            flush(qubit)
        out.append_instruction(inst)
    for qubit in sorted(pending):
        flush(qubit)
    return out


_CLIFFORD_RZ_SEQUENCES = {
    0: (),
    1: ("s",),
    2: ("z",),
    3: ("sdg",),
}


def _clifford_rz_gates(theta: float) -> tuple[str, ...]:
    """Clifford gate sequence equivalent (up to phase) to Rz(k·π/2)."""
    quarter_turns = int(round(theta / (math.pi / 2.0))) % 4
    return _CLIFFORD_RZ_SEQUENCES[quarter_turns]


def snap_to_clifford(circuit: QuantumCircuit) -> QuantumCircuit:
    """Round every rotation angle to the nearest multiple of π/2.

    The result contains only Clifford gates and can be evaluated exactly with
    Pauli propagation.  This implements the Clifford-state proxy used
    for large-qubit evaluation in the paper (Sec. 5.2.2); the discrete VQE of
    :mod:`repro.vqe.clifford_vqe` optimizes directly over these snapped
    angles.
    """
    out = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_clifford")
    out.metadata = dict(circuit.metadata)
    working = decompose_to_clifford_rz(circuit)
    for inst in working:
        if inst.name == "rz":
            (qubit,) = inst.qubits
            theta = float(inst.params[0])
            for gate_name in _clifford_rz_gates(theta):
                out.append(Gate(gate_name), (qubit,))
        elif inst.name in ("t",):
            raise ValueError("cannot snap a T gate to Clifford")
        else:
            out.append_instruction(inst)
    return out


@dataclass(frozen=True)
class GateCensus:
    """Gate accounting of a circuit in the Clifford + Rz basis.

    Attributes mirror the quantities the paper's Sec. 4.4 ansatz-design rule
    reasons about.
    """

    num_qubits: int
    cnot: int
    rz: int
    nonclifford_rz: int
    single_qubit_clifford: int
    measure: int
    depth: int
    two_qubit_depth: int

    @property
    def cnot_to_rz_ratio(self) -> float:
        """CNOT-to-(non-Clifford Rz) ratio; ``inf`` when there are no rotations."""
        if self.nonclifford_rz == 0:
            return math.inf
        return self.cnot / self.nonclifford_rz


def gate_census(circuit: QuantumCircuit) -> GateCensus:
    """Count CNOT / Rz / Clifford / measurement content of a circuit.

    The circuit is first rewritten into the Clifford + Rz basis so that
    RX/RY/RZZ rotations are attributed correctly.
    """
    working = merge_rz_runs(decompose_to_clifford_rz(circuit))
    cnot = 0
    rz = 0
    nonclifford_rz = 0
    single_clifford = 0
    measure = 0
    for inst in working:
        name = inst.name
        if name in ("cx", "cnot", "cz", "swap"):
            cnot += 1
        elif name == "rz":
            rz += 1
            theta = inst.params[0]
            if isinstance(theta, ParameterExpression) or not is_clifford_angle(float(theta)):
                nonclifford_rz += 1
        elif name in ("t", "tdg"):
            rz += 1
            nonclifford_rz += 1
        elif name == "measure":
            measure += 1
        elif name in ("reset", "barrier"):
            continue
        else:
            single_clifford += 1
    return GateCensus(
        num_qubits=working.num_qubits,
        cnot=cnot,
        rz=rz,
        nonclifford_rz=nonclifford_rz,
        single_qubit_clifford=single_clifford,
        measure=measure,
        depth=working.depth(),
        two_qubit_depth=working.two_qubit_depth(),
    )


def remove_barriers(circuit: QuantumCircuit) -> QuantumCircuit:
    """Return a copy of ``circuit`` with every barrier removed."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    out.metadata = dict(circuit.metadata)
    for inst in circuit:
        if inst.name != "barrier":
            out.append_instruction(inst)
    return out


def bind_and_canonicalize(circuit: QuantumCircuit, parameter_values,
                          clifford_only: bool = False) -> QuantumCircuit:
    """Bind parameters and rewrite into the Clifford + Rz basis.

    This is the common preparation step used by every execution regime: the
    ansatz with bound angles is reduced to the gate alphabet the EFT device
    actually executes.  With ``clifford_only=True`` the rotations are snapped
    to multiples of π/2 (stabilizer-proxy evaluation).
    """
    bound = circuit.bind_parameters(parameter_values)
    canonical = merge_rz_runs(decompose_to_clifford_rz(bound))
    if clifford_only:
        canonical = snap_to_clifford(canonical)
    return canonical
