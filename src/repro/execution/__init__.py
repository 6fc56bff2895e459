"""Unified execution-backend API.

One stable seam between every consumer of simulation (VQE energy evaluators,
QAOA, VarSaw, CAFQA) and the three
execution paths the paper evaluates with (statevector, density matrix,
Pauli propagation):

* :class:`ExecutionTask` / :class:`ExecutionResult` — typed work units;
* :class:`Backend` + :func:`get_backend` — the batch protocol and the
  registry of adapters wrapping the in-repo simulators;
* :func:`execute` — batched, deduplicated, LRU-cached, regime-aware
  dispatch with thread-pool fan-out;
* :func:`evaluate_observable` / :func:`term_expectations` — the
  grouped-observable engine: each unique circuit is evolved **once** and
  every Pauli term of a many-term Hamiltonian is read off the final state
  (vectorized kernels / one propagation pass), with per-(circuit, term)
  caching;
* :func:`evaluate_sweep` — the batched parameter-sweep pipeline over the
  circuit-compile layer (:mod:`repro.simulators.program`): the parametric
  template compiles once, each point rebinds only its rotation matrices,
  and noiseless statevector sweeps execute as a single stacked NumPy pass
  (noiseless ``pauli_propagation`` sweeps as one bit-sliced Clifford pass);
* :class:`ExecutionPolicy` — one frozen value for "how should this run"
  (fan-out mode, worker count, shard broker, retry budget), the only
  per-call fan-out argument (``policy=``) of every entry point;
* :class:`ShardBroker` — the pluggable shard-dispatch seam:
  :class:`LocalProcessBroker` (the default supervised fork pool) and
  :class:`FilesystemBroker` (a spool-directory work queue served by
  elastic ``repro-worker`` processes, possibly on other machines).

Quick start::

    from repro.execution import ExecutionTask, evaluate_observable, execute

    tasks = [ExecutionTask(circuit, observable=hamiltonian)
             for circuit in circuits]
    energies = [result.value for result in execute(tasks, backend="auto")]

    # Same energies, one evolution per circuit regardless of term count:
    energies = evaluate_observable(circuits, hamiltonian, backend="auto")

    # Whole parameter sweeps in one compiled batch:
    from repro.execution import evaluate_sweep
    energies = evaluate_sweep(template, sweep_points, hamiltonian)
"""

from .adapters import (DensityMatrixBackend, MAX_DENSITY_MATRIX_QUBITS,
                       MAX_STATEVECTOR_QUBITS, PauliPropagationBackend,
                       StatevectorBackend)
from .backend import Backend, BackendCapabilities
from .cache import CacheStats, ExpectationCache
from .broker import (BROKER_SPOOL_ENV, FilesystemBroker,
                     LocalProcessBroker, ShardBroker, SpoolLayout,
                     make_broker)
from .errors import (BackendCapabilityError, ExecutionError, RoutingError,
                     SweepShapeError, TransientFault, UnknownBackendError)
from .executor import (ExecutionStats, Executor, default_executor,
                       evaluate_observable, evaluate_sweep, execute,
                       execute_one, reset_default_executor, term_expectations)
from .faults import (FAULTS_ENV, FaultDirective, FaultInjector, FaultRule,
                     clear_injector, inject_faults, install_injector,
                     parse_fault_spec)
from .observables import pauli_from_key, run_grouped
from .policy import ExecutionPolicy
from .registry import (BackendRegistry, DEFAULT_REGISTRY, available_backends,
                       get_backend, register_backend)
from .router import route_task
from .sharding import (FaultReport, ShardOutcome, ShardPlan,
                       ShardPlanner, ShardRetryPolicy, ShardSpec,
                       WORKERS_ENV, resolve_workers, shutdown_process_pool)
from .task import (ExecutionResult, ExecutionTask, noise_token,
                   observable_fingerprint)

__all__ = [
    "BROKER_SPOOL_ENV",
    "Backend",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendRegistry",
    "CacheStats",
    "DEFAULT_REGISTRY",
    "DensityMatrixBackend",
    "ExecutionError",
    "ExecutionPolicy",
    "ExecutionResult",
    "ExecutionStats",
    "ExecutionTask",
    "Executor",
    "ExpectationCache",
    "FAULTS_ENV",
    "FaultDirective",
    "FaultInjector",
    "FaultReport",
    "FaultRule",
    "FilesystemBroker",
    "LocalProcessBroker",
    "MAX_DENSITY_MATRIX_QUBITS",
    "MAX_STATEVECTOR_QUBITS",
    "PauliPropagationBackend",
    "RoutingError",
    "ShardBroker",
    "ShardOutcome",
    "ShardPlan",
    "ShardPlanner",
    "ShardRetryPolicy",
    "ShardSpec",
    "SpoolLayout",
    "SweepShapeError",
    "StatevectorBackend",
    "TransientFault",
    "UnknownBackendError",
    "WORKERS_ENV",
    "available_backends",
    "clear_injector",
    "default_executor",
    "inject_faults",
    "install_injector",
    "make_broker",
    "parse_fault_spec",
    "evaluate_observable",
    "evaluate_sweep",
    "execute",
    "execute_one",
    "get_backend",
    "noise_token",
    "observable_fingerprint",
    "pauli_from_key",
    "register_backend",
    "reset_default_executor",
    "resolve_workers",
    "route_task",
    "run_grouped",
    "shutdown_process_pool",
    "term_expectations",
]
