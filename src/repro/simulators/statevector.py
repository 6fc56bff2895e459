"""Dense statevector simulator.

Used for noiseless reference energies, ansatz expressibility studies
(Fig. 14's ideal-energy ratio), and as ground truth in the test suite.  The
qubit-index convention is little-endian: qubit ``q`` is bit ``q`` of the
computational-basis index.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..operators.pauli import PauliSum


class Statevector:
    """A normalized pure state on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None):
        data = np.asarray(data, dtype=complex).ravel()
        inferred = int(round(math.log2(data.size)))
        if 2 ** inferred != data.size:
            raise ValueError("statevector length must be a power of two")
        if num_qubits is not None and num_qubits != inferred:
            raise ValueError("num_qubits does not match data length")
        self._data = data
        self._num_qubits = inferred

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        data = np.zeros(2 ** num_qubits, dtype=complex)
        data[0] = 1.0
        return cls(data)

    @classmethod
    def from_bitstring(cls, bits: Sequence[int]) -> "Statevector":
        num_qubits = len(bits)
        index = sum((1 << q) for q, bit in enumerate(bits) if bit)
        data = np.zeros(2 ** num_qubits, dtype=complex)
        data[index] = 1.0
        return cls(data)

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def data(self) -> np.ndarray:
        return self._data

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def normalized(self) -> "Statevector":
        return Statevector(self._data / self.norm())

    def probabilities(self) -> np.ndarray:
        return np.abs(self._data) ** 2

    def fidelity(self, other: "Statevector") -> float:
        """|⟨ψ|φ⟩|² between two pure states."""
        return float(abs(np.vdot(self._data, other._data)) ** 2)

    def expectation(self, observable: PauliSum) -> float:
        return observable.expectation(self._data)

    def expectation_many(self, observable: PauliSum) -> np.ndarray:
        """⟨ψ|P_i|ψ⟩ for every bare Pauli term of ``observable``.

        One vectorized bitmask/phase kernel pass over the state per term
        (see :mod:`repro.simulators.kernels`); values align with
        ``observable.terms()`` and exclude the coefficients.
        """
        from .kernels import statevector_term_expectations
        if observable.num_qubits != self._num_qubits:
            raise ValueError("observable acts on a different number of qubits")
        return statevector_term_expectations(self._data, observable=observable)

    def sample_counts(self, shots: int, rng: Optional[np.random.Generator] = None
                      ) -> Dict[str, int]:
        """Sample measurement outcomes in the computational basis.

        Keys are bitstrings with qubit 0 as the left-most character, matching
        the Pauli-label convention.
        """
        rng = rng or np.random.default_rng()
        probabilities = self.probabilities()
        outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
        return counts_from_outcomes(outcomes, self._num_qubits)


def counts_from_outcomes(outcomes: np.ndarray, num_qubits: int
                         ) -> Dict[str, int]:
    """Histogram integer outcomes into bitstring counts, vectorized.

    One ``np.unique`` pass plus a single vectorized bit-unpack replaces the
    per-shot Python bitstring loop; only the distinct outcomes ever touch
    Python.  Keys put qubit 0 left-most (the Pauli-label convention).
    """
    unique, tallies = np.unique(np.asarray(outcomes, dtype=np.int64),
                                return_counts=True)
    bit_chars = (((unique[:, None] >> np.arange(num_qubits)) & 1)
                 .astype(np.uint8) + ord("0"))
    return {row.tobytes().decode("ascii"): int(count)
            for row, count in zip(bit_chars, tallies)}


class StatevectorSimulator:
    """Executes circuits on dense statevectors (no noise).

    The exact noiseless reference engine.  Circuits are lowered through
    :func:`repro.simulators.program.compile_circuit` — resolved matrices,
    fused adjacent gates, diagonal gates as phase vectors — and the compiled
    program is cached by circuit fingerprint, so optimizer re-queries skip
    straight to execution; memory is O(2^n).  Shares the package-wide
    ``expectation(circuit, observable, *, initial_state=None)`` and
    ``expectation_many(...)`` keyword surface with the other two simulators,
    which is what lets the execution layer swap them behind one
    :class:`~repro.execution.Backend` protocol.  Example::

        simulator = StatevectorSimulator()
        energy = simulator.expectation(circuit, hamiltonian)
        per_term = simulator.expectation_many(circuit, hamiltonian)
    """

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: QuantumCircuit,
            initial_state: Optional[Statevector] = None) -> Statevector:
        """Simulate ``circuit`` (ignoring measurements) and return the state."""
        from .program import compile_circuit
        if initial_state is not None \
                and initial_state.num_qubits != circuit.num_qubits:
            raise ValueError("initial state size mismatch")
        program = compile_circuit(circuit)
        state = program.run_statevector(
            None if initial_state is None else initial_state.data,
            rng=self._rng)
        return Statevector(state)

    def expectation(self, circuit: QuantumCircuit, observable: PauliSum, *,
                    initial_state: Optional[Statevector] = None) -> float:
        """⟨H⟩ of the state prepared by ``circuit`` (noiseless)."""
        state = self.run(circuit.without_measurements(), initial_state)
        return state.expectation(observable)

    def expectation_many(self, circuit: QuantumCircuit, observable: PauliSum, *,
                         initial_state: Optional[Statevector] = None
                         ) -> np.ndarray:
        """Per-term ⟨P_i⟩ of the prepared state from a **single** evolution.

        The grouped-observable fast path: the circuit is simulated once and
        every term of ``observable`` is evaluated from the final state with
        the vectorized bitmask kernel.  Values align with
        ``observable.terms()`` (coefficients are not applied).
        """
        state = self.run(circuit.without_measurements(), initial_state)
        return state.expectation_many(observable)

    def sample(self, circuit: QuantumCircuit, shots: int) -> Dict[str, int]:
        state = self.run(circuit.without_measurements())
        return state.sample_counts(shots, self._rng)


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of a (measurement-free) circuit. Exponential in qubits.

    The circuit is compiled once and the whole computational basis is pushed
    through :func:`repro.simulators.program.run_batch` as one ``(2^n, 2^n)``
    stacked pass — one contraction per compiled op instead of ``2^n``
    separate simulations.
    """
    from .program import compile_circuit, run_batch
    num_qubits = circuit.num_qubits
    dim = 2 ** num_qubits
    program = compile_circuit(circuit.without_measurements())
    basis = np.eye(dim, dtype=complex)
    outputs = run_batch([program] * dim, initial_states=basis)
    # Row b of `outputs` is U|b>; the unitary's columns are those kets.
    return np.ascontiguousarray(outputs.T)
