"""Byte-per-bit CHP tableau (Aaronson & Gottesman, quant-ph/0406196).

The one stabilizer tableau in the repository.  Every Clifford expectation
value in ``src/`` comes from Pauli propagation; this tableau stays as an
independent reference for the stabilizer formalism, with one byte per
tableau bit and a per-qubit Python rowsum loop.
"""

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.gates import is_clifford_angle
from repro.operators.pauli import PauliString, PauliSum


class DenseStabilizerState:
    """Byte-per-bit CHP tableau over ``num_qubits`` qubits, starting in
    |0…0⟩.

    Primitive gates (H, S, X, Y, Z, CX, SWAP) update the tableau columns;
    the other Clifford gates, Pauli injection and reset are derived from
    them.  Measurement draws one ``rng.integers(0, 2)`` per random outcome
    and nothing on deterministic ones.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        # Rows 0..n-1: destabilizers (initially X_i); rows n..2n-1: stabilizers (Z_i).
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    # -- helpers ------------------------------------------------------------
    def copy(self) -> "DenseStabilizerState":
        new = DenseStabilizerState(self.num_qubits)
        new.x = self.x.copy()
        new.z = self.z.copy()
        new.r = self.r.copy()
        return new

    @staticmethod
    def _g(x1, z1, x2, z2) -> int:
        """Phase exponent contributed when multiplying single-qubit Paulis."""
        if x1 == 0 and z1 == 0:
            return 0
        if x1 == 1 and z1 == 1:  # Y
            return int(z2) - int(x2)
        if x1 == 1 and z1 == 0:  # X
            return int(z2) * (2 * int(x2) - 1)
        # Z
        return int(x2) * (1 - 2 * int(z2))

    def _rowsum_into(self, target_x, target_z, target_phase: int,
                     row: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Multiply an external Pauli row by tableau ``row`` (phase in units of i^2)."""
        n = self.num_qubits
        phase = 2 * int(self.r[row]) + target_phase
        for j in range(n):
            phase += self._g(int(self.x[row, j]), int(self.z[row, j]),
                             int(target_x[j]), int(target_z[j]))
        new_x = target_x ^ self.x[row]
        new_z = target_z ^ self.z[row]
        return new_x, new_z, phase % 4

    def _rowsum(self, h: int, i: int) -> None:
        """Tableau rowsum: row h ← row h · row i (Aaronson–Gottesman)."""
        new_x, new_z, phase = self._rowsum_into(self.x[h].copy(), self.z[h].copy(),
                                                2 * int(self.r[h]), i)
        if phase not in (0, 2):
            raise RuntimeError("rowsum produced imaginary phase; tableau corrupted")
        self.r[h] = phase // 2
        self.x[h] = new_x
        self.z[h] = new_z

    # -- gate application -----------------------------------------------------
    def apply_h(self, qubit: int) -> None:
        xq = self.x[:, qubit].copy()
        zq = self.z[:, qubit].copy()
        self.r ^= xq & zq
        self.x[:, qubit] = zq
        self.z[:, qubit] = xq

    def apply_s(self, qubit: int) -> None:
        xq = self.x[:, qubit]
        zq = self.z[:, qubit]
        self.r ^= xq & zq
        self.z[:, qubit] = zq ^ xq

    def apply_x(self, qubit: int) -> None:
        self.r ^= self.z[:, qubit]

    def apply_z(self, qubit: int) -> None:
        self.r ^= self.x[:, qubit]

    def apply_y(self, qubit: int) -> None:
        self.r ^= self.x[:, qubit] ^ self.z[:, qubit]

    def apply_cx(self, control: int, target: int) -> None:
        xa = self.x[:, control].copy()
        za = self.z[:, control].copy()
        xb = self.x[:, target].copy()
        zb = self.z[:, target].copy()
        self.r ^= xa & zb & (xb ^ za ^ 1)
        self.x[:, target] = xb ^ xa
        self.z[:, control] = za ^ zb

    def apply_swap(self, qubit_a: int, qubit_b: int) -> None:
        for array in (self.x, self.z):
            array[:, [qubit_a, qubit_b]] = array[:, [qubit_b, qubit_a]]

    # -- derived Clifford operations -------------------------------------------
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

    # -- measurement -------------------------------------------------------------
    def measure(self, qubit: int, rng: Optional[np.random.Generator] = None) -> int:
        """Measure a qubit in the Z basis, collapsing the state."""
        rng = rng or np.random.default_rng()
        n = self.num_qubits
        # Random outcome iff some stabilizer anticommutes with Z_qubit,
        # i.e. has an X component on the qubit.
        candidates = [p for p in range(n, 2 * n) if self.x[p, qubit]]
        if candidates:
            p = candidates[0]
            # Skip row p−n as well as p (it anticommutes with row p, so the
            # rowsum phase would be imaginary; the row is overwritten with
            # old row p below).  The original code rowsummed it and crashed
            # on valid states — the property harness caught this.
            for i in range(2 * n):
                if i != p and i != p - n and self.x[i, qubit]:
                    self._rowsum(i, p)
            # Destabilizer p-n ← old stabilizer p; stabilizer p ← ±Z_qubit.
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, qubit] = 1
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        # Deterministic outcome.
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        phase = 0
        for i in range(n):
            if self.x[i, qubit]:
                scratch_x, scratch_z, phase = self._rowsum_into(
                    scratch_x, scratch_z, phase, i + n)
        return int(phase // 2)

    # -- expectation values ---------------------------------------------------------
    def expectation_pauli(self, pauli: PauliString) -> float:
        """⟨P⟩ for a Hermitian Pauli operator: exactly -1, 0 or +1."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("Pauli string size mismatch")
        if pauli.is_identity():
            return float(pauli.phase.real)
        n = self.num_qubits
        px = pauli.x.astype(np.uint8)
        pz = pauli.z.astype(np.uint8)
        # Anticommutes with some stabilizer → expectation 0.
        anti_stab = ((self.x[n:] & pz[None, :]) ^ (self.z[n:] & px[None, :])).sum(axis=1) % 2
        if np.any(anti_stab):
            return 0.0
        # P equals ± the product of stabilizers indexed by destabilizers that
        # anticommute with P.
        anti_destab = ((self.x[:n] & pz[None, :]) ^ (self.z[:n] & px[None, :])).sum(axis=1) % 2
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        phase = 0
        for i in np.nonzero(anti_destab)[0]:
            scratch_x, scratch_z, phase = self._rowsum_into(
                scratch_x, scratch_z, phase, int(i) + n)
        if not (np.array_equal(scratch_x, px) and np.array_equal(scratch_z, pz)):
            raise RuntimeError("stabilizer decomposition failed; tableau corrupted")
        sign = 1.0 if phase == 0 else -1.0
        # Account for the observable's own phase (must be ±1 for Hermitian P).
        return sign * float(pauli.phase.real)

    def stabilizer_strings(self) -> List[PauliString]:
        """The n stabilizer generators as PauliString objects."""
        n = self.num_qubits
        strings = []
        for row in range(n, 2 * n):
            phase_power = 2 if self.r[row] else 0
            strings.append(PauliString(self.x[row].copy(), self.z[row].copy(),
                                       phase_power))
        return strings
