"""EFT-VQA: Variational Quantum Algorithms in the era of Early Fault Tolerance.

Reproduction of Dangwal et al., ISCA 2025 (arXiv:2503.20963).  The package is
organised bottom-up:

* :mod:`repro.circuits` / :mod:`repro.operators` / :mod:`repro.simulators` —
  circuit IR, Pauli algebra / Hamiltonians, and the statevector /
  density-matrix / Pauli-propagation simulators; the dense
  engines execute circuits through the compile layer
  (:mod:`repro.simulators.program`): fingerprint-cached
  :class:`~repro.simulators.program.CompiledProgram` objects with gate
  fusion, diagonal/permutation fast paths and pre-merged noise channels;
* :mod:`repro.qec` — surface-code error models, magic-state distillation and
  cultivation, the Clifford+T cost model, matching decoders, memory
  experiments;
* :mod:`repro.architecture` — logical-qubit layouts, lattice-surgery costs
  and the spacetime-volume scheduler;
* :mod:`repro.ansatz` — linear / fully-connected / blocked_all_to_all / UCCSD
  ansatz families and the Sec. 4.4 gate-count design rules;
* :mod:`repro.core` — the paper's contribution: execution regimes (NISQ,
  pQEC, qec-conventional, qec-cultivation), Rz magic-state injection, patch
  shuffling, circuit fidelity estimation, device resource modelling and the
  γ metric;
* :mod:`repro.execution` — the unified execution-backend API: every consumer
  dispatches :class:`ExecutionTask` objects through :func:`execute`, which
  batches, deduplicates, LRU-caches and regime-aware-routes them onto the
  three simulators behind a common :class:`Backend` protocol; many-term
  Hamiltonians ride the grouped-observable engine
  (:func:`evaluate_observable` / :func:`term_expectations`): one circuit
  evolution serves every Pauli term, with per-(circuit, term) caching;
  parameter sweeps ride :func:`evaluate_sweep`: the template compiles once
  and every point executes in one stacked, batched NumPy pass;
* :mod:`repro.vqe` / :mod:`repro.mitigation` — the VQE engine (continuous and
  Clifford-restricted) and NISQ-inherited mitigation (VarSaw, CAFQA,
  dynamical decoupling, QISMET).

Quick start — evaluate one Hamiltonian through every execution path with a
single batched, cached call::

    from repro import (ExecutionTask, FullyConnectedAnsatz, execute,
                       get_backend, ising_hamiltonian)

    hamiltonian = ising_hamiltonian(8, coupling=1.0)
    circuit = FullyConnectedAnsatz(8, depth=1).build().bind_parameters(
        [0.0] * 32)

    # "auto" routes per task: Clifford circuits go to Pauli propagation,
    # small noisy circuits to the density matrix.
    results = execute([ExecutionTask(circuit, observable=hamiltonian)],
                      backend="auto")
    print(results[0].value, results[0].backend_name)

    # Explicit backends are one registry lookup away.
    print(get_backend("statevector").capabilities())

Regime comparison (the paper's headline experiment) sits one layer up::

    from repro import (NISQRegime, PQECRegime, compare_regimes_clifford,
                       FullyConnectedAnsatz, ising_hamiltonian)

    outcome = compare_regimes_clifford(ising_hamiltonian(16, 1.0),
                                       FullyConnectedAnsatz(16, depth=1),
                                       PQECRegime(), NISQRegime())
    print(outcome["comparison"].gamma)
"""

from .algorithms import QAOA, QAOAAnsatz
from .ansatz import (Ansatz, BlockedAllToAllAnsatz, FCHEAnsatz,
                     FullyConnectedAnsatz, LinearAnsatz, UCCSDAnsatz,
                     make_ansatz)
from .architecture import (EFTCompiler, ProposedLayout, make_layout,
                           schedule_on_layout)
from .circuits import Parameter, ParameterVector, QuantumCircuit
from .core import (EFTDevice, NISQRegime, PQECRegime, QECConventionalRegime,
                   QECCultivationRegime, CircuitProfile, estimate_fidelity,
                   injection_error_rate, relative_improvement)
from .estimation import ResourceEstimator
from .execution import (Backend, BackendCapabilities, BackendRegistry,
                        ExecutionResult, ExecutionTask, Executor,
                        available_backends, evaluate_observable,
                        evaluate_sweep, execute, get_backend,
                        register_backend, term_expectations)
from .operators import (FermionicOperator, PauliString, PauliSum,
                        heisenberg_hamiltonian, ising_hamiltonian,
                        jordan_wigner, maxcut_cost_hamiltonian,
                        molecular_hamiltonian)
from .qec import (FactoryConfig, MWPMDecoder, SurfaceCodePatch,
                  UnionFindDecoder, get_factory, logical_error_rate,
                  surface_code_memory_experiment, t_count_for_precision)
from .simulators import (DensityMatrixSimulator, NoiseModel,
                         StatevectorSimulator)
from .vqe import (VQE, BackendEnergyEvaluator, CliffordVQE, CobylaOptimizer,
                  GeneticOptimizer, SPSAOptimizer, compare_regimes,
                  compare_regimes_clifford, compare_regimes_opr)

__version__ = "1.0.0"

__all__ = [
    "Ansatz",
    "Backend",
    "BackendCapabilities",
    "BackendEnergyEvaluator",
    "BackendRegistry",
    "BlockedAllToAllAnsatz",
    "CircuitProfile",
    "CliffordVQE",
    "CobylaOptimizer",
    "DensityMatrixSimulator",
    "EFTCompiler",
    "EFTDevice",
    "ExecutionResult",
    "ExecutionTask",
    "Executor",
    "FCHEAnsatz",
    "FactoryConfig",
    "FermionicOperator",
    "FullyConnectedAnsatz",
    "GeneticOptimizer",
    "LinearAnsatz",
    "MWPMDecoder",
    "NISQRegime",
    "NoiseModel",
    "PQECRegime",
    "Parameter",
    "ParameterVector",
    "PauliString",
    "PauliSum",
    "ProposedLayout",
    "QAOA",
    "QAOAAnsatz",
    "QECConventionalRegime",
    "QECCultivationRegime",
    "QuantumCircuit",
    "ResourceEstimator",
    "SPSAOptimizer",
    "StatevectorSimulator",
    "SurfaceCodePatch",
    "UCCSDAnsatz",
    "UnionFindDecoder",
    "VQE",
    "__version__",
    "available_backends",
    "compare_regimes",
    "compare_regimes_clifford",
    "compare_regimes_opr",
    "estimate_fidelity",
    "evaluate_observable",
    "evaluate_sweep",
    "execute",
    "get_backend",
    "get_factory",
    "heisenberg_hamiltonian",
    "injection_error_rate",
    "ising_hamiltonian",
    "jordan_wigner",
    "logical_error_rate",
    "make_ansatz",
    "make_layout",
    "maxcut_cost_hamiltonian",
    "register_backend",
    "molecular_hamiltonian",
    "relative_improvement",
    "schedule_on_layout",
    "surface_code_memory_experiment",
    "t_count_for_precision",
    "term_expectations",
]
