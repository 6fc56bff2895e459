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
        [0.0] * 16)

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

# Every paper figure is a VQE flow, so the VQE stack loads with the
# package: it pulls in circuits, operators.pauli/hamiltonians, simulators,
# execution, ansatz and core, plus scipy.optimize for COBYLA (0.34-0.42 s
# cumulative under ``python -X importtime`` on a 2-vCPU VM, almost all of
# ``repro.vqe.optimizers``), which a lazy import would move into the first
# optimisation instead.
from . import vqe
from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "algorithms": ["QAOA", "QAOAAnsatz"],
    "ansatz": ["Ansatz", "BlockedAllToAllAnsatz", "FCHEAnsatz",
               "FullyConnectedAnsatz", "LinearAnsatz", "UCCSDAnsatz",
               "make_ansatz"],
    "architecture": ["EFTCompiler", "ProposedLayout", "make_layout",
                     "schedule_on_layout"],
    "circuits": ["Parameter", "ParameterVector", "QuantumCircuit"],
    "core": ["CircuitProfile", "EFTDevice", "NISQRegime", "PQECRegime",
             "QECConventionalRegime", "QECCultivationRegime",
             "estimate_fidelity", "injection_error_rate",
             "relative_improvement"],
    "estimation": ["ResourceEstimator"],
    "execution": ["Backend", "BackendCapabilities", "BackendRegistry",
                  "ExecutionResult", "ExecutionTask", "Executor",
                  "available_backends", "evaluate_observable",
                  "evaluate_sweep", "execute", "get_backend",
                  "register_backend", "term_expectations"],
    "operators": ["FermionicOperator", "PauliString", "PauliSum",
                  "heisenberg_hamiltonian", "ising_hamiltonian",
                  "jordan_wigner", "maxcut_cost_hamiltonian",
                  "molecular_hamiltonian"],
    "qec": ["FactoryConfig", "MWPMDecoder", "SurfaceCodePatch",
            "UnionFindDecoder", "get_factory", "logical_error_rate",
            "surface_code_memory_experiment", "t_count_for_precision"],
    "simulators": ["DensityMatrixSimulator", "NoiseModel",
                   "StatevectorSimulator"],
    "vqe": ["VQE", "BackendEnergyEvaluator", "CliffordVQE",
            "CobylaOptimizer", "GeneticOptimizer", "SPSAOptimizer",
            "compare_regimes", "compare_regimes_clifford",
            "compare_regimes_opr"],
})
