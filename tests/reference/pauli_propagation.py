"""Numpy-column Pauli propagation: the correctness reference.

The engine (:mod:`repro.simulators.pauli_propagation`) packs every term's
X/Z bits into one integer per qubit and applies noise through per-channel
class tables.  This is the textbook version it replaced: a ``(terms ×
qubits)`` uint8 matrix per component, one numpy column update per gate,
and a loop over every Pauli label of every noise location.  It exists only
for the packed kernel's differential tests, which hold the two bitwise
equal.
"""

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import is_clifford_angle
from repro.operators.pauli import PauliSum
from repro.simulators.noise import (ErrorLocation, NoiseModel, PauliChannel,
                                    pauli_twirl)

_SINGLE_PAULI_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def _restriction_index_correct(x_bits: np.ndarray, z_bits: np.ndarray) -> np.ndarray:
    """Pauli index per qubit: 0=I, 1=X, 2=Y, 3=Z."""
    out = np.zeros(x_bits.shape, dtype=np.int8)
    out[(x_bits == 1) & (z_bits == 0)] = 1
    out[(x_bits == 1) & (z_bits == 1)] = 2
    out[(x_bits == 0) & (z_bits == 1)] = 3
    return out


class PauliPropagator:
    """Propagates a batch of Pauli observables backwards through a Clifford circuit.

    Parameters
    ----------
    observable:
        The Hamiltonian whose expectation value is required.
    """

    def __init__(self, observable: PauliSum):
        self.observable = observable
        self.num_qubits = observable.num_qubits
        terms = list(observable.terms())
        self.num_terms = len(terms)
        self.coefficients = np.array([float(np.real(c)) for _, c in terms])
        self.x = np.zeros((self.num_terms, self.num_qubits), dtype=np.uint8)
        self.z = np.zeros((self.num_terms, self.num_qubits), dtype=np.uint8)
        for index, (pauli, _) in enumerate(terms):
            self.x[index] = pauli.x
            self.z[index] = pauli.z
        self.signs = np.ones(self.num_terms)
        self.damping = np.ones(self.num_terms)

    # -- Clifford conjugation updates (observable ← G† · observable · G) ------
    def _conj_h(self, qubit: int) -> None:
        xq = self.x[:, qubit].copy()
        zq = self.z[:, qubit].copy()
        self.signs[np.nonzero(xq & zq)[0]] *= -1.0
        self.x[:, qubit] = zq
        self.z[:, qubit] = xq

    def _conj_s(self, qubit: int) -> None:
        # S† X S = -Y ; S† Y S = X ; S† Z S = Z
        xq = self.x[:, qubit]
        zq = self.z[:, qubit].copy()
        flip = (xq == 1) & (zq == 0)
        self.signs[np.nonzero(flip)[0]] *= -1.0
        self.z[:, qubit] = zq ^ xq

    def _conj_sdg(self, qubit: int) -> None:
        # Sdg† X Sdg = Y ; Sdg† Y Sdg = -X ; Z unchanged
        xq = self.x[:, qubit]
        zq = self.z[:, qubit].copy()
        flip = (xq == 1) & (zq == 1)
        self.signs[np.nonzero(flip)[0]] *= -1.0
        self.z[:, qubit] = zq ^ xq

    def _conj_x(self, qubit: int) -> None:
        flip = self.z[:, qubit] == 1
        self.signs[np.nonzero(flip)[0]] *= -1.0

    def _conj_y(self, qubit: int) -> None:
        flip = (self.x[:, qubit] ^ self.z[:, qubit]) == 1
        self.signs[np.nonzero(flip)[0]] *= -1.0

    def _conj_z(self, qubit: int) -> None:
        flip = self.x[:, qubit] == 1
        self.signs[np.nonzero(flip)[0]] *= -1.0

    def _conj_cx(self, control: int, target: int) -> None:
        xa = self.x[:, control].copy()
        za = self.z[:, control].copy()
        xb = self.x[:, target].copy()
        zb = self.z[:, target].copy()
        flip = (xa & zb & (xb ^ za ^ 1)) == 1
        self.signs[np.nonzero(flip)[0]] *= -1.0
        self.x[:, target] = xb ^ xa
        self.z[:, control] = za ^ zb

    def _conj_sx(self, qubit: int) -> None:
        # SX = H·S·H (up to phase), symmetric in circuit order.
        self._conj_h(qubit)
        self._conj_s(qubit)
        self._conj_h(qubit)

    def _conj_sxdg(self, qubit: int) -> None:
        self._conj_h(qubit)
        self._conj_sdg(qubit)
        self._conj_h(qubit)

    def _conj_cz(self, qubit_a: int, qubit_b: int) -> None:
        self._conj_h(qubit_b)
        self._conj_cx(qubit_a, qubit_b)
        self._conj_h(qubit_b)

    def _conj_swap(self, qubit_a: int, qubit_b: int) -> None:
        for array in (self.x, self.z):
            array[:, [qubit_a, qubit_b]] = array[:, [qubit_b, qubit_a]]

    def _conj_rz(self, theta: float, qubit: int) -> None:
        if not is_clifford_angle(theta):
            raise ValueError(
                f"PauliPropagator only supports Clifford angles; got Rz({theta})")
        quarter_turns = int(round(theta / (math.pi / 2.0))) % 4
        if quarter_turns == 0:
            return
        if quarter_turns == 1:
            self._conj_s(qubit)
        elif quarter_turns == 2:
            self._conj_z(qubit)
        else:
            self._conj_sdg(qubit)

    def conjugate_instruction(self, inst) -> None:
        """Apply G† · O · G for instruction ``inst`` (backward-pass update)."""
        name = inst.name
        if name in ("barrier", "measure", "i", "id"):
            return
        if name == "h":
            self._conj_h(inst.qubits[0])
        elif name == "s":
            self._conj_s(inst.qubits[0])
        elif name == "sdg":
            self._conj_sdg(inst.qubits[0])
        elif name == "x":
            self._conj_x(inst.qubits[0])
        elif name == "y":
            self._conj_y(inst.qubits[0])
        elif name == "z":
            self._conj_z(inst.qubits[0])
        elif name == "sx":
            self._conj_sx(inst.qubits[0])
        elif name == "sxdg":
            self._conj_sxdg(inst.qubits[0])
        elif name in ("cx", "cnot"):
            self._conj_cx(*inst.qubits)
        elif name == "cz":
            self._conj_cz(*inst.qubits)
        elif name == "swap":
            self._conj_swap(*inst.qubits)
        elif name == "rz":
            self._conj_rz(float(inst.params[0]), inst.qubits[0])
        elif name == "rx":
            qubit = inst.qubits[0]
            self._conj_h(qubit)
            self._conj_rz(float(inst.params[0]), qubit)
            self._conj_h(qubit)
        elif name == "ry":
            qubit = inst.qubits[0]
            # Backward pass of the forward decomposition Sdg·H·Rz·H·S means
            # conjugating by the gates in forward order here (the caller walks
            # instructions in reverse, each instruction expanded atomically).
            self._conj_s(qubit)
            self._conj_h(qubit)
            self._conj_rz(float(inst.params[0]), qubit)
            self._conj_h(qubit)
            self._conj_sdg(qubit)
        else:
            raise ValueError(f"gate {name!r} is not Clifford-propagatable")

    # -- noise damping ----------------------------------------------------------
    def apply_pauli_noise(self, probabilities: Dict[str, float],
                          qubits: Sequence[int]) -> None:
        """Multiply damping factors for a Pauli channel on ``qubits``.

        ``probabilities`` maps Pauli labels (length == len(qubits), character
        j acting on qubits[j]) to probabilities.
        """
        factors = np.zeros(self.num_terms)
        restriction = np.stack(
            [_restriction_index_correct(self.x[:, q], self.z[:, q]) for q in qubits],
            axis=1)  # (num_terms, k) with values 0..3
        for label, probability in probabilities.items():
            if probability <= 0.0:
                continue
            error_index = np.array([_SINGLE_PAULI_INDEX[c] for c in label.upper()],
                                   dtype=np.int8)
            # Anticommutation count per term: positions where both are
            # non-identity and different.
            both_nontrivial = (restriction != 0) & (error_index[None, :] != 0)
            different = restriction != error_index[None, :]
            anticommuting = np.sum(both_nontrivial & different, axis=1)
            sign = np.where(anticommuting % 2 == 0, 1.0, -1.0)
            factors += probability * sign
        self.damping *= factors

    def apply_error_location(self, location: ErrorLocation) -> None:
        channel = location.channel
        pauli_channel = channel if isinstance(channel, PauliChannel) else pauli_twirl(channel)
        if location.kind == "measure":
            # Symmetric readout flips: damping (1-2p) per measured qubit in
            # the support of the observable.
            probability = pauli_channel.probabilities.get("X", 0.0)
            for qubit in location.qubits:
                nontrivial = (self.x[:, qubit] | self.z[:, qubit]) == 1
                self.damping[nontrivial] *= (1.0 - 2.0 * probability)
            return
        self.apply_pauli_noise(pauli_channel.probabilities, location.qubits)

    # -- result -----------------------------------------------------------------
    def expectation_on_zero_state(self) -> float:
        """⟨0…0| Σ c_i f_i s_i P_i |0…0⟩ for the current propagated batch."""
        diagonal = ~np.any(self.x == 1, axis=1)
        contributions = np.where(diagonal,
                                 self.coefficients * self.signs * self.damping,
                                 0.0)
        return float(np.sum(contributions))

    def term_values(self) -> np.ndarray:
        """Per-term expectation contribution (before summation)."""
        diagonal = ~np.any(self.x == 1, axis=1)
        return np.where(diagonal, self.signs * self.damping, 0.0)


def reference_propagate(circuit: QuantumCircuit, observable: PauliSum,
                        noise_model: Optional[NoiseModel] = None,
                        include_idle: bool = True) -> PauliPropagator:
    """Run one backward propagation pass and return the loaded propagator;
    read :meth:`PauliPropagator.term_values` or
    :meth:`PauliPropagator.expectation_on_zero_state` off it."""
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    propagator = PauliPropagator(observable)
    locations_by_index: Dict[int, List[ErrorLocation]] = {}
    if noise_model is not None and noise_model.has_noise():
        for location in noise_model.error_locations(circuit, include_idle=include_idle):
            locations_by_index.setdefault(location.instruction_index, []).append(location)
    instructions = list(circuit)
    for index in range(len(instructions) - 1, -1, -1):
        for location in locations_by_index.get(index, []):
            propagator.apply_error_location(location)
        propagator.conjugate_instruction(instructions[index])
    return propagator
