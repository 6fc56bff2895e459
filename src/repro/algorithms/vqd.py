"""Variational Quantum Deflation (VQD) for excited states.

VQD extends VQE to the ``k`` lowest eigenstates: level ``j`` minimizes

    E_j(θ) = ⟨ψ(θ)|H|ψ(θ)⟩ + Σ_{i<j} β_i · |⟨ψ(θ)|ψ_i⟩|²

where the overlap penalties push the optimizer out of the subspace spanned by
the previously found states.  Excited states are a standard follow-on workload
for the paper's physics Hamiltonians (spectral gaps of the Ising / Heisenberg
chains), and every component — ansatz, optimizer, noise regime — is shared
with the VQE stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..execution.executor import evaluate_sweep
from ..operators.pauli import PauliSum
from ..simulators.statevector import StatevectorSimulator
from ..vqe.optimizers import CobylaOptimizer, Optimizer


@dataclass
class VQDResult:
    """Energies and parameters of the ``k`` lowest variational states."""

    energies: List[float]
    parameters: List[np.ndarray]
    reference_energies: Optional[List[float]]
    num_evaluations: int
    history: List[List[float]] = field(default_factory=list)

    @property
    def num_states(self) -> int:
        return len(self.energies)

    @property
    def gaps(self) -> List[float]:
        """Excitation energies relative to the variational ground state."""
        if not self.energies:
            return []
        return [energy - self.energies[0] for energy in self.energies]

    def errors(self) -> Optional[List[float]]:
        """Per-level absolute error against the reference spectrum."""
        if self.reference_energies is None:
            return None
        return [abs(energy - reference) for energy, reference
                in zip(self.energies, self.reference_energies)]


class VQD:
    """Variational Quantum Deflation over a shared ansatz.

    Finds the ``num_states`` lowest eigenstates by optimizing each level's
    energy plus overlap penalties against the previously converged states
    (see the module docstring for the objective).  Converged levels can be
    re-scored under any noise regime through :meth:`evaluate_levels`, which
    batches one grouped-observable evaluation per level.  Example::

        vqd = VQD(heisenberg_hamiltonian(4), LinearAnsatz(4, depth=2),
                  num_states=3)
        result = vqd.run(seed=7)
        print(result.gaps, result.errors())
    """

    def __init__(self, hamiltonian: PauliSum, ansatz: Ansatz,
                 num_states: int = 2,
                 penalty_weight: Optional[float] = None,
                 optimizer_factory=None,
                 compute_reference: bool = True):
        if num_states < 1:
            raise ValueError("num_states must be at least 1")
        if hamiltonian.num_qubits != ansatz.num_qubits:
            raise ValueError("Hamiltonian and ansatz qubit counts differ")
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.num_states = int(num_states)
        # A penalty larger than the spectral range guarantees deflation
        # pushes later levels above earlier ones.
        self.penalty_weight = (penalty_weight if penalty_weight is not None
                               else 4.0 * hamiltonian.one_norm())
        self._optimizer_factory = optimizer_factory or (
            lambda: CobylaOptimizer(max_iterations=250))
        self._template = ansatz.build()
        self._simulator = StatevectorSimulator()
        self.reference_energies: Optional[List[float]] = None
        if compute_reference and hamiltonian.num_qubits <= 10:
            matrix = hamiltonian.to_matrix()
            eigenvalues = np.sort(np.linalg.eigvalsh(matrix))
            self.reference_energies = [float(value)
                                       for value in eigenvalues[:num_states]]

    # -- internals ---------------------------------------------------------------
    def _state(self, parameters: Sequence[float]):
        circuit = self._template.bind_parameters(list(parameters))
        return self._simulator.run(circuit)

    def _objective(self, parameters: Sequence[float],
                   lower_states: List) -> float:
        state = self._state(parameters)
        energy = state.expectation(self.hamiltonian)
        penalty = sum(self.penalty_weight * state.fidelity(lower)
                      for lower in lower_states)
        return energy + penalty

    # -- execution -----------------------------------------------------------------
    def run(self, seed: Optional[int] = None,
            initial_scale: float = 0.1) -> VQDResult:
        rng = np.random.default_rng(seed)
        parameters: List[np.ndarray] = []
        histories: List[List[float]] = []
        lower_states: List = []
        total_evaluations = 0
        for level in range(self.num_states):
            optimizer: Optimizer = self._optimizer_factory()
            start = initial_scale * rng.standard_normal(
                self.ansatz.num_parameters())

            def objective(theta, _lower=tuple(lower_states)):
                return self._objective(theta, list(_lower))

            result = optimizer.minimize(objective, start)
            best_state = self._state(result.best_parameters)
            parameters.append(np.asarray(result.best_parameters, dtype=float))
            histories.append(result.history)
            lower_states.append(best_state)
            total_evaluations += result.num_evaluations
        energies = [float(state.expectation(self.hamiltonian))
                    for state in lower_states]
        return VQDResult(energies=energies, parameters=parameters,
                         reference_energies=self.reference_energies,
                         num_evaluations=total_evaluations,
                         history=histories)

    def evaluate_levels(self, result: VQDResult, noise_model=None,
                        backend: str = "auto",
                        policy=None) -> List[float]:
        """Re-evaluate the converged levels through the unified execution API.

        One batched :func:`repro.execution.evaluate_sweep` call over the
        winning parameter vectors — under a regime's noise model and/or on a
        different backend — which is how the spectral gaps are compared
        across execution regimes without re-running the optimization.  The
        shared ansatz template is compiled once; noiseless statevector
        re-scoring executes all levels as one stacked batch, noisy regimes
        fall back to one grouped-observable batch (one evolution per level).
        ``policy=ExecutionPolicy(parallel="process")`` shards big
        re-scoring batches across worker processes with identical results.
        """
        parameter_sets = [list(theta) for theta in result.parameters]
        return evaluate_sweep(self._template, parameter_sets,
                              self.hamiltonian, noise_model=noise_model,
                              backend=backend, policy=policy)
