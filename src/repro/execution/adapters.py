"""Backend adapters wrapping the three in-repo simulators.

Each adapter translates :class:`~repro.execution.task.ExecutionTask` fields
onto one simulator's constructor/``expectation``/``sample`` surface.  The
noise model travels with the *task*, not the backend, so one shared adapter
instance serves noiseless and noisy work alike.

Seeding: the sampling adapters accept a base ``seed`` and derive a per-task
seed from ``blake2b(base seed, task fingerprint)``.  The derivation is
order-independent, so shot counts are reproducible no matter how the
executor batches or threads the work.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from ..simulators.density_matrix import DensityMatrixSimulator
from ..simulators.pauli_propagation import PauliPropagationSimulator
from ..simulators.statevector import StatevectorSimulator
from .backend import Backend, BackendCapabilities
from .task import ExecutionTask

#: Dense statevector simulation is O(2^n); past this it is pointless to try.
MAX_STATEVECTOR_QUBITS = 24
#: Dense density-matrix simulation is O(4^n); the paper uses it to 12 qubits.
MAX_DENSITY_MATRIX_QUBITS = 14

#: Gate names the Pauli propagator consumes natively.  Anything else (t,
#: rzz, u3, ...) is rewritten over Clifford+Rz first.
_CLIFFORD_NATIVE_GATES = frozenset(
    {"i", "id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cnot",
     "cz", "swap", "rx", "ry", "rz", "barrier", "measure", "reset"})


def _clifford_native(circuit) -> bool:
    return all(inst.name in _CLIFFORD_NATIVE_GATES for inst in circuit)


def _canonicalize_if_needed(circuit):
    """Rewrite over Clifford+Rz only when the engine can't run it as-is.

    Skipping the rewrite for already-native circuits avoids a redundant
    transpile pass on the evaluator hot path (evaluators that canonicalize
    produce native circuits) and preserves per-gate noise attachment for
    callers who deliberately submit raw native circuits.
    """
    if _clifford_native(circuit):
        return circuit
    return merge_rz_runs(decompose_to_clifford_rz(circuit))


def _derive_seed(base_seed: Optional[int], task: ExecutionTask) -> Optional[int]:
    """Per-task seed mixing the base seed with the circuit fingerprint."""
    if base_seed is None:
        return None
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(base_seed).encode())
    hasher.update(task.circuit.fingerprint().encode())
    if task.is_sampling:
        hasher.update(str(task.shots).encode())
    return int.from_bytes(hasher.digest(), "little") % (2 ** 31)


class StatevectorBackend(Backend):
    """Noiseless dense-statevector execution (exact, any gate set)."""

    def __init__(self, seed: Optional[int] = None):
        super().__init__()
        self._seed = seed

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="statevector",
            description="dense noiseless statevector (exact reference)",
            supports_noise=False,
            max_qubits=MAX_STATEVECTOR_QUBITS,
            parallel_hint="process")

    def _run_task(self, task: ExecutionTask):
        simulator = StatevectorSimulator(seed=_derive_seed(self._seed, task))
        if task.is_expectation:
            return simulator.expectation(task.circuit, task.observable)
        return simulator.sample(task.circuit, task.shots)

    def term_expectations(self, task: ExecutionTask):
        simulator = StatevectorSimulator(seed=_derive_seed(self._seed, task))
        self._count_invocations()
        return simulator.expectation_many(task.circuit, task.observable)


class DensityMatrixBackend(Backend):
    """Exact noisy execution via dense density matrices (small circuits)."""

    def __init__(self, seed: Optional[int] = None):
        super().__init__()
        self._seed = seed

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="density_matrix",
            description="dense density matrix with Kraus noise (exact, "
                        "small qubit counts)",
            max_qubits=MAX_DENSITY_MATRIX_QUBITS,
            parallel_hint="process")

    def _run_task(self, task: ExecutionTask):
        simulator = DensityMatrixSimulator(task.noise_model,
                                           seed=_derive_seed(self._seed, task))
        if task.is_expectation:
            return simulator.expectation(task.circuit, task.observable)
        return simulator.sample(task.circuit, task.shots)

    def term_expectations(self, task: ExecutionTask):
        simulator = DensityMatrixSimulator(task.noise_model,
                                           seed=_derive_seed(self._seed, task))
        self._count_invocations()
        return simulator.expectation_many(task.circuit, task.observable)


class PauliPropagationBackend(Backend):
    """Deterministic noisy Clifford expectation values via Pauli propagation.

    Exact for stochastic Pauli noise (other channels are Pauli-twirled), and
    the fastest path for large Clifford workloads; it cannot sample.
    """

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="pauli_propagation",
            description="exact noisy Clifford expectation values "
                        "(deterministic, scales to 100+ qubits)",
            supports_sampling=False,
            clifford_only=True,
            # Pickling a noisy Clifford circuit costs about as much as
            # propagating it: 16 noisy depth-4 circuits at n=40 and n=100
            # ran at 0.45-0.86x of inline on process shards.
            parallel_hint="inline")

    def _run_task(self, task: ExecutionTask):
        simulator = PauliPropagationSimulator(task.noise_model,
                                              include_idle=task.include_idle)
        circuit = _canonicalize_if_needed(task.circuit)
        return simulator.expectation(circuit, task.observable)

    def term_expectations(self, task: ExecutionTask):
        simulator = PauliPropagationSimulator(task.noise_model,
                                              include_idle=task.include_idle)
        circuit = _canonicalize_if_needed(task.circuit)
        self._count_invocations()
        return simulator.expectation_many(circuit, task.observable)
