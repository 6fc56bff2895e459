"""Backend adapters wrapping the four in-repo simulators.

Each adapter translates :class:`~repro.execution.task.ExecutionTask` fields
onto one simulator's constructor/``expectation``/``sample`` surface.  The
noise model travels with the *task*, not the backend, so one shared adapter
instance serves noiseless and noisy work alike.

Seeding: stochastic adapters accept a base ``seed`` and derive a per-task
seed from ``blake2b(base seed, task fingerprint)``.  The derivation is
order-independent, so results are reproducible no matter how the executor
batches or threads the work.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from ..circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from ..simulators.density_matrix import DensityMatrixSimulator
from ..simulators.pauli_propagation import PauliPropagationSimulator
from ..simulators.stabilizer import StabilizerSimulator
from ..simulators.statevector import StatevectorSimulator
from .backend import Backend, BackendCapabilities
from .task import ExecutionTask

#: Dense statevector simulation is O(2^n); past this it is pointless to try.
MAX_STATEVECTOR_QUBITS = 24
#: Dense density-matrix simulation is O(4^n); the paper uses it to 12 qubits.
MAX_DENSITY_MATRIX_QUBITS = 14

DEFAULT_TRAJECTORIES = 200

#: Gate names the stabilizer tableau / Pauli propagator consume natively.
#: Anything else (t, rzz, u3, ...) is rewritten over Clifford+Rz first.
_TABLEAU_NATIVE_GATES = frozenset(
    {"i", "id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cnot",
     "cz", "swap", "rx", "ry", "rz", "barrier", "measure", "reset"})


def _tableau_ready(circuit) -> bool:
    return all(inst.name in _TABLEAU_NATIVE_GATES for inst in circuit)


def _canonicalize_if_needed(circuit):
    """Rewrite over Clifford+Rz only when the engine can't run it as-is.

    Skipping the rewrite for already-native circuits avoids a redundant
    transpile pass on the evaluator hot path (evaluators that canonicalize
    produce native circuits) and preserves per-gate noise attachment for
    callers who deliberately submit raw native circuits.
    """
    if _tableau_ready(circuit):
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

    def is_deterministic_for(self, task: ExecutionTask) -> bool:
        return task.is_expectation  # sampling draws shots

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

    def is_deterministic_for(self, task: ExecutionTask) -> bool:
        return task.is_expectation

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


def run_stabilizer_trajectory_shard(noise_model, circuit, observable,
                                    seeds: Sequence) -> np.ndarray:
    """One shard of a Monte-Carlo trajectory ensemble (process-pool target).

    Module-level so it pickles by reference into worker processes; returns
    the raw ``(len(seeds), num_terms)`` per-trajectory rows of
    :meth:`repro.simulators.stabilizer.StabilizerSimulator.trajectory_term_values`.
    Each trajectory's randomness is a pure function of its seed, so the
    parent can concatenate shard rows in trajectory order and obtain results
    bitwise identical to an unsharded run.
    """
    simulator = StabilizerSimulator(noise_model)
    return simulator.trajectory_term_values(circuit, observable, seeds)


class StabilizerBackend(Backend):
    """Clifford-circuit execution on stabilizer tableaus.

    Noiseless expectation values are exact; noisy ones average Monte-Carlo
    Pauli-error trajectories (``task.trajectories``, default 200).  Non-π/2
    rotations are canonicalized away before simulation when possible.

    Trajectory randomness is seeded **per trajectory**: the task-derived
    base seed spawns one :class:`numpy.random.SeedSequence` child per
    trajectory, so an ensemble's result is independent of how trajectories
    are batched or sharded across worker processes — and, for a backend
    constructed with an explicit ``seed``, is a deterministic function of
    the task, which makes seeded noisy expectations cacheable (the seed is
    folded into :meth:`cache_token`).
    """

    def __init__(self, seed: Optional[int] = None):
        super().__init__()
        self._seed = seed

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="stabilizer",
            description="CHP stabilizer tableau (Clifford only; Monte-Carlo "
                        "noise)",
            clifford_only=True,
            deterministic=False,
            parallel_hint="process")

    def is_deterministic_for(self, task: ExecutionTask) -> bool:
        # Without noise a Clifford expectation value is exact.  With noise it
        # is a Monte-Carlo average — stochastic for an unseeded backend, but
        # a pure function of (task, seed, trajectories) for a seeded one
        # thanks to per-trajectory seed spawning.  Sampling always draws
        # fresh shots.
        if not task.is_expectation:
            return False
        return not task.has_noise or self._seed is not None

    def cache_token(self, task: ExecutionTask):
        # Seeded Monte-Carlo values are reproducible but seed-dependent:
        # differently seeded instances must not share cache entries.
        # Noiseless Clifford expectations are exact regardless of seed and
        # share the plain token.
        if task.has_noise and self._seed is not None:
            return (self.name, "seed", int(self._seed))
        return self.name

    # -- trajectory sharding -------------------------------------------------
    #: Module-level callable executing one seed-list shard in a worker
    #: process; the shard planner reads it off the backend, so a custom
    #: backend implementing the trajectory protocol supplies its *own*
    #: runner rather than inheriting stabilizer semantics.
    trajectory_shard_runner = staticmethod(run_stabilizer_trajectory_shard)

    def trajectory_count(self, task: ExecutionTask) -> Optional[int]:
        """How many Monte-Carlo trajectories ``task`` spends, or None when
        the task is deterministic (noiseless) or not an expectation."""
        if not task.is_expectation or not task.has_noise:
            return None
        return int(task.trajectories if task.trajectories is not None
                   else DEFAULT_TRAJECTORIES)

    def trajectory_spec(self, task: ExecutionTask):
        """Everything a worker shard needs: ``(noise_model, canonical
        circuit, observable, per-trajectory seeds)``.

        The seed list is spawned once here from the task-derived base seed;
        sharding partitions it, and :meth:`finalize_trajectory_rows` folds
        the concatenated rows back into per-term values.
        """
        trajectories = self.trajectory_count(task)
        if trajectories is None:
            raise ValueError("trajectory_spec requires a noisy expectation "
                             "task")
        base_seed = _derive_seed(self._seed, task)
        seeds = np.random.SeedSequence(base_seed).spawn(trajectories)
        circuit = _canonicalize_if_needed(task.circuit)
        return task.noise_model, circuit, task.observable, seeds

    @staticmethod
    def finalize_trajectory_rows(task: ExecutionTask,
                                 rows: np.ndarray) -> np.ndarray:
        """Average per-trajectory rows and apply the readout damping
        ``(1 − 2·p_meas)^weight`` per term (identity terms have weight 0 and
        stay exactly 1)."""
        values = rows.mean(axis=0)
        readout_error = task.noise_model.readout_error
        if readout_error > 0:
            damping = 1.0 - 2.0 * readout_error
            weights = np.array([pauli.weight()
                                for pauli, _ in task.observable.terms()])
            values = values * damping ** weights
        return values

    def _run_task(self, task: ExecutionTask):
        if task.is_expectation and task.has_noise:
            # Same per-trajectory seeding as the grouped path, so the plain
            # execute() pipeline and term_expectations agree bitwise.
            values = self.term_expectations_quiet(task)
            coefficients = np.array([float(np.real(coeff)) for _, coeff
                                     in task.observable.terms()])
            return float(np.dot(coefficients, values))
        simulator = StabilizerSimulator(task.noise_model,
                                        seed=_derive_seed(self._seed, task))
        circuit = _canonicalize_if_needed(task.circuit)
        if task.is_expectation:
            return simulator.expectation(circuit, task.observable,
                                         trajectories=task.trajectories)
        return simulator.sample(circuit, task.shots)

    def term_expectations_quiet(self, task: ExecutionTask) -> np.ndarray:
        """:meth:`term_expectations` without the invocation counter bump."""
        if task.is_expectation and task.has_noise:
            noise_model, circuit, observable, seeds = \
                self.trajectory_spec(task)
            rows = run_stabilizer_trajectory_shard(noise_model, circuit,
                                                   observable, seeds)
            return self.finalize_trajectory_rows(task, rows)
        simulator = StabilizerSimulator(task.noise_model,
                                        seed=_derive_seed(self._seed, task))
        circuit = _canonicalize_if_needed(task.circuit)
        return simulator.expectation_many(circuit, task.observable,
                                          trajectories=task.trajectories)

    def term_expectations(self, task: ExecutionTask):
        """Grouped path: one tableau evolution (per trajectory), one QWC
        basis rotation per measurement group — not one run per term."""
        self._count_invocations()
        return self.term_expectations_quiet(task)


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
            parallel_hint="process")

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
