"""Gate-by-gate statevector execution: the correctness reference.

:func:`repro.simulators.program.compile_circuit` lowers a circuit once —
gate matrices resolved, same-qubit unitaries fused, diagonal gates turned
into phase vectors, monomial gates into index gathers — and replays the
flat program.  :func:`run_interpreted` is the pre-compile hot loop it
replaced: per instruction it re-resolves the gate matrix, re-derives the
tensor axes and applies one generic ``tensordot``.  It exists only for the
compile layer's equality tests and as the baseline of the
compiled-vs-interpreted speed gate in ``benchmarks/``, so it keeps its own
contraction instead of the compiled programs' planned one: an independent
reference, and a baseline that a faster compiled contraction does not move.
"""

from typing import Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.program import _reset_ket


def _apply_unitary_tensor(tensor: np.ndarray, matrix: np.ndarray,
                          qubits, num_qubits: int) -> np.ndarray:
    """Contract a k-qubit matrix into a ``(2,)*n`` state tensor."""
    k = len(qubits)
    axes = [num_qubits - 1 - q for q in qubits]
    gate_tensor = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor,
                          axes=(list(range(k, 2 * k)), list(reversed(axes))))
    return np.moveaxis(tensor, list(range(k)), list(reversed(axes)))


def run_interpreted(circuit: QuantumCircuit,
                    initial_state: Optional[np.ndarray] = None,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Final ket of ``circuit`` from ``initial_state`` (default ``|0…0⟩``).

    Resets draw one uniform each from ``rng``, the way the compiled
    program's resets do.
    """
    n = circuit.num_qubits
    dim = 1 << n
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(initial_state, dtype=complex).ravel()
    for inst in circuit:
        if inst.name in ("barrier", "measure"):
            continue
        if inst.name == "reset":
            state = _reset_ket(state, inst.qubits[0],
                               rng or np.random.default_rng())
            continue
        tensor = state.reshape([2] * n)
        tensor = _apply_unitary_tensor(tensor, inst.gate.matrix(),
                                       inst.qubits, n)
        state = tensor.reshape(-1)
    return state
