"""Energy (expectation value) evaluators backing the VQE loop.

Since the execution-API redesign every evaluator dispatches through the
unified execution layer, which adds fingerprint-keyed LRU caching, in-batch
deduplication and regime-aware routing on top of the paper's four execution
paths (Sec. 5.2).  Evaluations ride the grouped-observable engine
(:meth:`repro.execution.Executor.evaluate_observable`): one circuit
evolution serves every Pauli term of the Hamiltonian, with per-(circuit,
term) caching.  :class:`BackendEnergyEvaluator` is the one evaluator; its
classmethod presets pin the paper's historical regimes:

* :meth:`BackendEnergyEvaluator.exact` — noiseless statevector expectation,
  used for reference energies and expressibility studies;
* :meth:`BackendEnergyEvaluator.density_matrix` — exact noisy expectation
  under a Kraus noise model (the 8–12 qubit flow);
* :meth:`BackendEnergyEvaluator.clifford` — exact noisy expectation of
  Clifford (stabilizer-proxy) circuits under Pauli noise via Pauli
  propagation (the 16–100 qubit flow);
* :meth:`BackendEnergyEvaluator.monte_carlo_stabilizer` — Monte-Carlo
  stabilizer trajectories (cross-validation backend);
* pass ``backend="auto"`` to the constructor to route per circuit, or any
  registry name.

The historical classes (:class:`ExactEnergyEvaluator`,
:class:`DensityMatrixEnergyEvaluator`, :class:`CliffordEnergyEvaluator`,
:class:`MonteCarloStabilizerEvaluator`) remain as deprecated shims over
those presets — they emit :class:`DeprecationWarning` and carry migration
tables in their docstrings.

All evaluators share the ``evaluate(circuit) -> float`` interface and count
their invocations, which the optimizers report.
"""

from __future__ import annotations

from typing import Optional, Union


from ..circuits.circuit import QuantumCircuit
from ..circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from ..execution.backend import Backend
from ..execution.executor import Executor, default_executor
from ..execution.task import ExecutionTask
from ..operators.pauli import PauliSum
from ..simulators.noise import NoiseModel


class EnergyEvaluator:
    """Base class: evaluates ⟨H⟩ of the state prepared by a circuit."""

    def __init__(self, hamiltonian: PauliSum):
        self.hamiltonian = hamiltonian
        self.num_evaluations = 0

    def evaluate(self, circuit: QuantumCircuit) -> float:
        raise NotImplementedError

    def __call__(self, circuit: QuantumCircuit) -> float:
        self.num_evaluations += 1
        return self.evaluate(circuit)


class BackendEnergyEvaluator(EnergyEvaluator):
    """Evaluates ⟨H⟩ through the unified execution API.

    ``backend`` is a registry name (``"statevector"``, ``"density_matrix"``,
    ``"stabilizer"``, ``"pauli_propagation"``), ``"auto"`` for regime-aware
    routing, or a :class:`~repro.execution.backend.Backend` instance.
    ``canonicalize`` rewrites the circuit over Clifford+Rz before execution
    (the gate set the regimes' noise models are calibrated against).

    By default (``grouped=True``) each evaluation takes the
    grouped-observable fast path: the circuit is evolved **once** and every
    Pauli term of the Hamiltonian is read off the final state, with
    per-(circuit, term) caching so overlapping Hamiltonians and repeated
    optimizer queries skip the evolution entirely.  ``grouped=False`` falls
    back to submitting one whole-observable :class:`ExecutionTask` through
    :func:`repro.execution.execute`.  Example::

        evaluator = BackendEnergyEvaluator(hamiltonian, backend="auto")
        energy = evaluator(ansatz.build().bind_parameters(theta))
    """

    def __init__(self, hamiltonian: PauliSum,
                 backend: Union[str, Backend] = "auto",
                 noise_model: Optional[NoiseModel] = None,
                 canonicalize: bool = False,
                 include_idle: bool = True,
                 trajectories: Optional[int] = None,
                 executor: Optional[Executor] = None,
                 use_cache: bool = True,
                 grouped: bool = True,
                 parallel: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 policy=None):
        super().__init__(hamiltonian)
        self.backend = backend
        self.noise_model = noise_model
        self.canonicalize = canonicalize
        self.include_idle = include_idle
        self.trajectories = trajectories
        self.use_cache = use_cache
        self.grouped = grouped
        # Fan-out policy forwarded to every executor call: ``policy`` is an
        # ExecutionPolicy (mode, workers, broker, retry in one value); the
        # legacy ``parallel`` / ``max_workers`` keywords still work and win
        # over its fields.  None everywhere defers to the executor's own
        # defaults.
        self.parallel = parallel
        self.max_workers = max_workers
        self.policy = policy
        self._executor = executor

    def _prepare_circuit(self, circuit: QuantumCircuit) -> QuantumCircuit:
        if self.canonicalize:
            circuit = merge_rz_runs(decompose_to_clifford_rz(circuit))
        return circuit

    def _make_task(self, circuit: QuantumCircuit) -> ExecutionTask:
        return ExecutionTask(circuit=self._prepare_circuit(circuit),
                             observable=self.hamiltonian,
                             noise_model=self.noise_model,
                             trajectories=self.trajectories,
                             include_idle=self.include_idle)

    def evaluate(self, circuit: QuantumCircuit) -> float:
        executor = self._executor or default_executor()
        if self.grouped:
            return executor.evaluate_observable(
                self._prepare_circuit(circuit), self.hamiltonian,
                noise_model=self.noise_model, backend=self.backend,
                trajectories=self.trajectories,
                include_idle=self.include_idle,
                use_cache=self.use_cache, parallel=self.parallel,
                max_workers=self.max_workers, policy=self.policy)[0]
        result = executor.run(self._make_task(circuit), backend=self.backend,
                              use_cache=self.use_cache,
                              parallel=self.parallel,
                              max_workers=self.max_workers,
                              policy=self.policy)[0]
        return float(result.value)

    def evaluate_point(self, template: QuantumCircuit, values) -> float:
        """⟨H⟩ of ``template`` bound at ``values``: exactly what
        ``self(template.bind_parameters(values))`` returns, counted as one
        evaluation.

        The per-step entry of point-by-point optimizers.  A noiseless
        statevector evaluation goes through
        :meth:`repro.execution.Executor.evaluate_point`, which serves the
        point from the cached template program with no circuit bound,
        hashed or compiled; canonicalizing, ungrouped and subclassed
        evaluators bind the circuit as :meth:`evaluate` expects.
        """
        if (self.canonicalize or not self.grouped
                or type(self).evaluate is not BackendEnergyEvaluator.evaluate):
            return self(template.bind_parameters(list(values)))
        self.num_evaluations += 1
        executor = self._executor or default_executor()
        return executor.evaluate_point(
            template, values, self.hamiltonian,
            noise_model=self.noise_model, backend=self.backend,
            trajectories=self.trajectories, include_idle=self.include_idle,
            use_cache=self.use_cache, parallel=self.parallel,
            max_workers=self.max_workers, policy=self.policy)

    def evaluate_sweep(self, template: QuantumCircuit,
                       parameter_sets) -> list:
        """⟨H⟩ at every point of a parameter sweep over one ansatz template.

        The batched optimizer entry point: instead of one :meth:`evaluate`
        call per parameter vector, the whole sweep goes through
        :meth:`repro.execution.Executor.evaluate_sweep` — the template is
        compiled once, each point only rebinds the parametric gate matrices,
        and noiseless statevector sweeps execute as a single stacked NumPy
        pass.  SPSA ± pairs, parameter-shift pairs, genetic populations and
        classifier batches all ride this.  A noiseless Pauli-propagation
        sweep compiles the canonicalized template once and scores every
        point in one bit-sliced pass, so ``canonicalize`` costs nothing per
        point there.  Counts ``len(parameter_sets)`` evaluations; returns
        energies aligned with the input.  Example::

            energies = evaluator.evaluate_sweep(ansatz.build(), sweep_points)
        """
        parameter_sets = [list(values) for values in parameter_sets]
        self.num_evaluations += len(parameter_sets)
        executor = self._executor or default_executor()
        if self.canonicalize and executor.compiled_sweep_engine(
                self.backend, self.noise_model) != "pauli_propagation":
            # The Clifford+Rz rewrite runs on bound circuits; the grouped
            # engine still serves the whole batch in one call.
            circuits = [self._prepare_circuit(template.bind_parameters(values))
                        for values in parameter_sets]
            return executor.evaluate_observable(
                circuits, self.hamiltonian, noise_model=self.noise_model,
                backend=self.backend, trajectories=self.trajectories,
                include_idle=self.include_idle, use_cache=self.use_cache,
                parallel=self.parallel, max_workers=self.max_workers,
                policy=self.policy)
        return executor.evaluate_sweep(
            template, parameter_sets, self.hamiltonian,
            noise_model=self.noise_model, backend=self.backend,
            trajectories=self.trajectories, include_idle=self.include_idle,
            use_cache=self.use_cache, parallel=self.parallel,
            max_workers=self.max_workers, policy=self.policy)

    # -- regime presets ------------------------------------------------------
    # Single source of truth for the historical evaluator configurations;
    # the legacy classes below are pure shims over these kwargs.
    @staticmethod
    def _exact_config(hamiltonian: PauliSum) -> dict:
        return dict(hamiltonian=hamiltonian, backend="statevector")

    @staticmethod
    def _density_matrix_config(hamiltonian: PauliSum,
                               noise_model: Optional[NoiseModel] = None,
                               canonicalize: bool = True) -> dict:
        return dict(hamiltonian=hamiltonian, backend="density_matrix",
                    noise_model=noise_model, canonicalize=canonicalize)

    @staticmethod
    def _clifford_config(hamiltonian: PauliSum,
                         noise_model: Optional[NoiseModel] = None,
                         canonicalize: bool = True,
                         include_idle: bool = True) -> dict:
        return dict(hamiltonian=hamiltonian, backend="pauli_propagation",
                    noise_model=noise_model, canonicalize=canonicalize,
                    include_idle=include_idle)

    @staticmethod
    def _stabilizer_config(hamiltonian: PauliSum,
                           noise_model: Optional[NoiseModel] = None,
                           trajectories: int = 200,
                           seed: Optional[int] = None) -> dict:
        from ..execution.adapters import StabilizerBackend
        # A seeded ensemble is a deterministic function of the task (per-
        # trajectory SeedSequence spawning), so its values are cacheable —
        # including into the persistent disk cache, which is what lets a
        # warm re-run of a Monte-Carlo workload do zero evolutions.
        # Unseeded ensembles stay uncached (fresh randomness every call).
        return dict(hamiltonian=hamiltonian,
                    backend=StabilizerBackend(seed=seed),
                    noise_model=noise_model, canonicalize=True,
                    trajectories=trajectories, use_cache=seed is not None)

    @classmethod
    def exact(cls, hamiltonian: PauliSum) -> "BackendEnergyEvaluator":
        """Noiseless statevector preset (what ``ExactEnergyEvaluator`` pins)."""
        return cls(**cls._exact_config(hamiltonian))

    @classmethod
    def density_matrix(cls, hamiltonian: PauliSum,
                       noise_model: Optional[NoiseModel] = None,
                       canonicalize: bool = True) -> "BackendEnergyEvaluator":
        """Exact-noisy density-matrix preset (the 8–12 qubit flow)."""
        return cls(**cls._density_matrix_config(hamiltonian, noise_model,
                                                canonicalize))

    @classmethod
    def clifford(cls, hamiltonian: PauliSum,
                 noise_model: Optional[NoiseModel] = None,
                 canonicalize: bool = True,
                 include_idle: bool = True) -> "BackendEnergyEvaluator":
        """Pauli-propagation preset (the 16–100 qubit stabilizer proxy)."""
        return cls(**cls._clifford_config(hamiltonian, noise_model,
                                          canonicalize, include_idle))

    @classmethod
    def monte_carlo_stabilizer(cls, hamiltonian: PauliSum,
                               noise_model: Optional[NoiseModel] = None,
                               trajectories: int = 200,
                               seed: Optional[int] = None
                               ) -> "BackendEnergyEvaluator":
        """Seeded Monte-Carlo stabilizer preset (cross-validation backend)."""
        return cls(**cls._stabilizer_config(hamiltonian, noise_model,
                                            trajectories, seed))
