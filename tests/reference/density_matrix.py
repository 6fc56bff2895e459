"""Interpreted Kraus-loop density-matrix evolution: the correctness reference.

The simulator compiles a circuit and applies each channel as one contraction
with its superoperator ``Σ K⊗K̄``
(:meth:`repro.simulators.noise.QuantumChannel.superoperator`).  These
functions do it the textbook way instead: instruction by instruction, every
Kraus operator as ``K ρ K†`` with two tensor contractions, summed.  They
exist only for the compiled path's differential tests.
"""

import numpy as np

from repro.simulators.density_matrix import DensityMatrix
from repro.simulators.noise import RESET_CHANNEL, bit_flip_channel


def apply_matrix(tensor, matrix, tensor_axes):
    """Contract ``matrix`` against ``tensor_axes`` of a ``(2,)*m`` tensor."""
    k = len(tensor_axes)
    gate_tensor = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor,
                          axes=(list(range(k, 2 * k)), tensor_axes))
    return np.moveaxis(tensor, list(range(k)), tensor_axes)


def _axes(qubits, num_qubits):
    # Row axis of qubit q is (num_qubits - 1 - q); column axis adds num_qubits.
    row_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    return row_axes, [num_qubits + axis for axis in row_axes]


def apply_unitary(rho, matrix, qubits, num_qubits):
    """ρ → U ρ U† on ``qubits``."""
    dim = 2 ** num_qubits
    row_axes, col_axes = _axes(qubits, num_qubits)
    tensor = rho.reshape([2] * (2 * num_qubits))
    tensor = apply_matrix(tensor, matrix, row_axes)
    tensor = apply_matrix(tensor, matrix.conj(), col_axes)
    return tensor.reshape(dim, dim)


def apply_channel(rho, channel, qubits, num_qubits):
    """ρ → Σ_k K_k ρ K_k† on ``qubits``, one Kraus operator at a time."""
    dim = 2 ** num_qubits
    accumulated = np.zeros((dim, dim), dtype=complex)
    for kraus in channel.kraus_operators:
        accumulated += apply_unitary(rho, kraus, qubits, num_qubits)
    return accumulated


def apply_reset(rho, qubit, num_qubits):
    """Reset a qubit to |0⟩ (trace out and re-prepare)."""
    return apply_channel(rho, RESET_CHANNEL, (qubit,), num_qubits)


def naive_density_matrix_run(noise_model, circuit, apply_measure_noise=False):
    """The per-instruction density-matrix loop the compiled program replaces.

    Mirrors the compiled op order: per layer, each gate followed by its
    channels in attachment order, then the idle channel on every qubit the
    layer left idle; readout flips only with ``apply_measure_noise``.
    """
    num_qubits = circuit.num_qubits
    rho = DensityMatrix.zero_state(num_qubits).data.copy()
    idle = noise_model.idle_channel if noise_model is not None else None
    for layer in circuit.layers():
        busy = set()
        for inst in layer:
            busy.update(inst.qubits)
            if inst.name == "measure":
                if apply_measure_noise and noise_model is not None \
                        and noise_model.readout_error > 0:
                    rho = apply_channel(
                        rho, bit_flip_channel(noise_model.readout_error),
                        inst.qubits, num_qubits)
                continue
            if inst.name == "reset":
                rho = apply_reset(rho, inst.qubits[0], num_qubits)
                continue
            if inst.name == "barrier":
                continue
            rho = apply_unitary(rho, inst.gate.matrix(), inst.qubits,
                                num_qubits)
            if noise_model is not None:
                for channel in noise_model.gate_channels(inst.name):
                    rho = apply_channel(rho, channel, inst.qubits, num_qubits)
        if idle is not None:
            for qubit in range(num_qubits):
                if qubit not in busy:
                    rho = apply_channel(rho, idle, (qubit,), num_qubits)
    return rho
