"""Per-call Pauli readout: the correctness reference.

:mod:`repro.simulators.kernels` reads a term set off a state through a
readout plan: masks, phases, each term's parity signs and gather indices,
built once per term set and shared between calls.  These kernels derive
all of it on every call, term by term, the way the kernels did before
plans.  They exist only for the planned kernels' bitwise differential
tests.
"""

import numpy as np

from repro.simulators.kernels import _popcount, pauli_masks


def _parity_signs(indices, z_mask):
    if z_mask == 0:
        return np.ones(indices.size)
    parity = _popcount(indices & z_mask).astype(np.int64) & 1
    return 1.0 - 2.0 * parity


def statevector_term_expectations(state, x_bits, z_bits):
    """⟨ψ|P_t|ψ⟩ for every term of the ``(T, n)`` bit matrices."""
    state = np.asarray(state, dtype=complex).ravel()
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(state.size, dtype=np.int64)
    conj_state = np.conj(state)
    values = np.empty(len(x_masks))
    for t in range(len(x_masks)):
        signed = _parity_signs(indices, int(z_masks[t])) * state
        x_mask = int(x_masks[t])
        bra = conj_state if x_mask == 0 else conj_state[indices ^ x_mask]
        values[t] = np.real(phases[t] * np.dot(bra, signed))
    return values


def statevector_term_expectations_batch(states, x_bits, z_bits):
    """⟨ψ_b|P_t|ψ_b⟩ for a ``(B, 2^n)`` batch, as a ``(B, T)`` array."""
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(states.shape[1], dtype=np.int64)
    values = np.empty((states.shape[0], len(x_masks)))
    diagonal = np.flatnonzero(x_masks == 0)
    if len(diagonal):
        parities = _popcount(indices[None, :]
                             & z_masks[diagonal][:, None]).astype(np.int64) & 1
        signs = 1.0 - 2.0 * parities
        probabilities = np.abs(states) ** 2
        values[:, diagonal] = probabilities @ signs.T
    conj_states = np.conj(states) if len(diagonal) < len(x_masks) else None
    for t in np.flatnonzero(x_masks != 0):
        signed = _parity_signs(indices, int(z_masks[t])) * states
        bras = conj_states[:, indices ^ int(x_masks[t])]
        values[:, t] = np.real(phases[t]
                               * np.einsum("bi,bi->b", bras, signed))
    return values


def density_matrix_term_expectations(rho, x_bits, z_bits):
    """Tr(ρ·P_t) for every term of the ``(T, n)`` bit matrices."""
    rho = np.asarray(rho, dtype=complex)
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(rho.shape[0], dtype=np.int64)
    values = np.empty(len(x_masks))
    for t in range(len(x_masks)):
        signs = _parity_signs(indices, int(z_masks[t]))
        gathered = rho[indices, indices ^ int(x_masks[t])]
        values[t] = np.real(phases[t] * np.dot(signs, gathered))
    return values
