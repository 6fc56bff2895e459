"""End-to-end VQE execution under an execution regime.

:class:`VQE` ties together a Hamiltonian, an ansatz, an energy evaluator
(which encodes the regime's noise) and a classical optimizer, and reports the
best energy found.  :func:`compare_regimes` runs the same benchmark under two
regimes and reports the paper's γ metric (Eq. 3) — the building block of
Figs. 12–14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..operators.pauli import PauliSum
from ..simulators.noise import NoiseModel
from .energy import BackendEnergyEvaluator, EnergyEvaluator
from .optimizers import CobylaOptimizer, OptimizationResult, Optimizer


@dataclass
class VQEResult:
    """Outcome of one VQE run."""

    benchmark: str
    regime: str
    best_energy: float
    best_parameters: np.ndarray
    reference_energy: Optional[float]
    num_evaluations: int
    history: List[float] = field(default_factory=list)

    @property
    def energy_gap(self) -> Optional[float]:
        if self.reference_energy is None:
            return None
        return self.best_energy - self.reference_energy

    def __repr__(self):
        gap = f", gap={self.energy_gap:.4f}" if self.reference_energy is not None else ""
        return (f"VQEResult({self.benchmark}/{self.regime}: "
                f"E={self.best_energy:.5f}{gap}, evals={self.num_evaluations})")


class _BatchedEnergyObjective:
    """The VQE objective, exposing the batched-sweep protocol.

    Callable like the plain per-point objective; batch-aware optimizers
    (SPSA ± pairs, genetic populations) detect ``evaluate_batch`` and route
    grouped queries through :meth:`VQE.energy_sweep`, which simulates the
    whole set in one compiled batch.
    """

    __slots__ = ("_vqe",)

    def __init__(self, vqe: "VQE"):
        self._vqe = vqe

    def __call__(self, parameters) -> float:
        return self._vqe.energy(parameters)

    def evaluate_batch(self, parameter_sets) -> List[float]:
        return self._vqe.energy_sweep(parameter_sets)


class VQE:
    """Variational quantum eigensolver over a continuous parameter space."""

    def __init__(self, hamiltonian: PauliSum, ansatz: Ansatz,
                 evaluator: EnergyEvaluator,
                 optimizer: Optional[Optimizer] = None,
                 reference_energy: Optional[float] = None,
                 benchmark_name: str = "benchmark",
                 regime_name: str = "custom"):
        if hamiltonian.num_qubits != ansatz.num_qubits:
            raise ValueError("Hamiltonian and ansatz qubit counts differ")
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.evaluator = evaluator
        self.optimizer = optimizer or CobylaOptimizer()
        self.reference_energy = reference_energy
        self.benchmark_name = benchmark_name
        self.regime_name = regime_name
        self._template = ansatz.build()

    # -- objective ---------------------------------------------------------------
    def energy(self, parameters: Sequence[float]) -> float:
        """⟨H⟩ for one parameter vector (one circuit execution).

        Evaluators exposing ``evaluate_point`` (every
        :class:`~repro.vqe.energy.BackendEnergyEvaluator`) serve the point
        from the ansatz template; others get the bound circuit.
        """
        point = getattr(self.evaluator, "evaluate_point", None)
        if point is not None:
            return float(point(self._template, parameters))
        return self.evaluator(self._template.bind_parameters(list(parameters)))

    def energy_sweep(self, parameter_sets: Sequence[Sequence[float]]
                     ) -> List[float]:
        """⟨H⟩ at many parameter vectors, batched through the evaluator.

        Evaluators exposing ``evaluate_sweep`` (every
        :class:`~repro.vqe.energy.BackendEnergyEvaluator`) compile the ansatz
        template once and simulate the whole sweep in one batched pass;
        other evaluators fall back to one :meth:`energy` call per point.
        """
        sweep = getattr(self.evaluator, "evaluate_sweep", None)
        if sweep is not None:
            return [float(value)
                    for value in sweep(self._template, parameter_sets)]
        return [self.energy(parameters) for parameters in parameter_sets]

    def initial_parameters(self, seed: Optional[int] = None,
                           scale: float = 0.1) -> np.ndarray:
        """Small random angles around zero (the standard VQA initialization)."""
        rng = np.random.default_rng(seed)
        return scale * rng.standard_normal(self.ansatz.num_parameters())

    # -- execution -----------------------------------------------------------------
    def run(self, initial_parameters: Optional[Sequence[float]] = None,
            num_restarts: int = 1, seed: Optional[int] = None) -> VQEResult:
        """Run the optimization (optionally with random restarts, keeping the best)."""
        if num_restarts < 1:
            raise ValueError("need at least one restart")
        best: Optional[OptimizationResult] = None
        for restart in range(num_restarts):
            if initial_parameters is not None and restart == 0:
                start = np.asarray(initial_parameters, dtype=float)
            else:
                restart_seed = None if seed is None else seed + restart
                start = self.initial_parameters(restart_seed)
            result = self.optimizer.minimize(_BatchedEnergyObjective(self),
                                             start)
            if best is None or result.best_value < best.best_value:
                best = result
        return VQEResult(
            benchmark=self.benchmark_name,
            regime=self.regime_name,
            best_energy=best.best_value,
            best_parameters=best.best_parameters,
            reference_energy=self.reference_energy,
            num_evaluations=best.num_evaluations,
            history=best.history,
        )


def run_vqe_under_noise(hamiltonian: PauliSum, ansatz: Ansatz,
                        noise_model: Optional[NoiseModel],
                        optimizer: Optional[Optimizer] = None,
                        reference_energy: Optional[float] = None,
                        benchmark_name: str = "benchmark",
                        regime_name: str = "custom",
                        num_restarts: int = 1,
                        seed: Optional[int] = None) -> VQEResult:
    """Convenience wrapper: density-matrix VQE under a given noise model."""
    if noise_model is None:
        evaluator: EnergyEvaluator = BackendEnergyEvaluator.exact(hamiltonian)
    else:
        evaluator = BackendEnergyEvaluator.density_matrix(hamiltonian,
                                                          noise_model)
    vqe = VQE(hamiltonian, ansatz, evaluator, optimizer,
              reference_energy=reference_energy,
              benchmark_name=benchmark_name, regime_name=regime_name)
    return vqe.run(num_restarts=num_restarts, seed=seed)


def compare_regimes(hamiltonian: PauliSum, ansatz: Ansatz,
                    regime_a, regime_b,
                    reference_energy: float,
                    optimizer_factory=None,
                    benchmark_name: str = "benchmark",
                    num_restarts: int = 1,
                    seed: Optional[int] = None) -> Dict[str, object]:
    """Run the same VQE benchmark under two simulable regimes and compute γ.

    ``regime_a`` / ``regime_b`` are :class:`~repro.core.regimes.ExecutionRegime`
    instances with circuit-level noise models (NISQ, pQEC).  Returns a dict
    with both :class:`VQEResult` objects and the
    :class:`~repro.core.metrics.RegimeComparison`.
    """
    from ..core.metrics import RegimeComparison

    results = {}
    for label, regime in (("a", regime_a), ("b", regime_b)):
        optimizer = optimizer_factory() if optimizer_factory else CobylaOptimizer()
        results[label] = run_vqe_under_noise(
            hamiltonian, ansatz, regime.noise_model(), optimizer,
            reference_energy=reference_energy,
            benchmark_name=benchmark_name, regime_name=regime.name,
            num_restarts=num_restarts, seed=seed)
    comparison = RegimeComparison(
        benchmark=benchmark_name,
        reference_energy=reference_energy,
        energy_a=results["a"].best_energy,
        energy_b=results["b"].best_energy,
        regime_a=regime_a.name,
        regime_b=regime_b.name,
    )
    return {"result_a": results["a"], "result_b": results["b"],
            "comparison": comparison}


def compare_regimes_opr(hamiltonian: PauliSum, ansatz: Ansatz,
                        regime_a, regime_b,
                        reference_energy: float,
                        optimizer: Optional[Optimizer] = None,
                        benchmark_name: str = "benchmark",
                        use_cafqa_initialization: bool = True,
                        refine_iterations: int = 0,
                        seed: Optional[int] = None) -> Dict[str, object]:
    """γ comparison via Optimal Parameter Resilience (OPR) evaluation.

    Instead of running a full optimization inside each noisy regime (the flow
    of :func:`compare_regimes`, which needs a large shot/evaluation budget to
    converge), this variant exploits the OPR property the paper leans on
    (Sec. 2.1): parameters optimized noiselessly are (near-)optimal under
    noise as well.  The flow is

    1. optimize noiselessly (optionally starting from the CAFQA Clifford
       bootstrap),
    2. evaluate the resulting parameters under both regimes' noise models
       (optionally with a short per-regime refinement of
       ``refine_iterations`` COBYLA steps), and
    3. report γ against ``reference_energy``.
    """
    from ..core.metrics import RegimeComparison
    from ..mitigation.cafqa import cafqa_initialization
    from .optimizers import GeneticOptimizer

    noiseless = VQE(hamiltonian, ansatz, BackendEnergyEvaluator.exact(hamiltonian),
                    optimizer or CobylaOptimizer(max_iterations=300),
                    reference_energy=reference_energy,
                    benchmark_name=benchmark_name, regime_name="noiseless")
    initial = None
    if use_cafqa_initialization:
        bootstrap = cafqa_initialization(
            hamiltonian, ansatz,
            optimizer=GeneticOptimizer(population_size=14, generations=8,
                                       seed=seed),
            seed=seed)
        initial = bootstrap.angles
    noiseless_result = noiseless.run(initial_parameters=initial, seed=seed)
    best_parameters = noiseless_result.best_parameters

    results: Dict[str, VQEResult] = {}
    for label, regime in (("a", regime_a), ("b", regime_b)):
        evaluator = BackendEnergyEvaluator.density_matrix(
            hamiltonian, regime.noise_model())
        vqe = VQE(hamiltonian, ansatz, evaluator,
                  CobylaOptimizer(max_iterations=max(refine_iterations, 1)),
                  reference_energy=reference_energy,
                  benchmark_name=benchmark_name, regime_name=regime.name)
        energy_at_optimum = vqe.energy(best_parameters)
        parameters = np.asarray(best_parameters, dtype=float)
        history = [energy_at_optimum]
        evaluations = 1
        if refine_iterations > 0:
            refined = vqe.run(initial_parameters=best_parameters)
            evaluations += refined.num_evaluations
            history = refined.history
            if refined.best_energy < energy_at_optimum:
                energy_at_optimum = refined.best_energy
                parameters = refined.best_parameters
        results[label] = VQEResult(
            benchmark=benchmark_name, regime=regime.name,
            best_energy=energy_at_optimum, best_parameters=parameters,
            reference_energy=reference_energy,
            num_evaluations=evaluations, history=history)

    comparison = RegimeComparison(
        benchmark=benchmark_name,
        reference_energy=reference_energy,
        energy_a=results["a"].best_energy,
        energy_b=results["b"].best_energy,
        regime_a=regime_a.name,
        regime_b=regime_b.name,
    )
    return {"result_a": results["a"], "result_b": results["b"],
            "comparison": comparison, "noiseless": noiseless_result}
