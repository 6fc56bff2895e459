"""Energy (expectation value) evaluators backing the VQE loop.

Since the execution-API redesign every evaluator dispatches through the
unified execution layer, which adds fingerprint-keyed LRU caching, in-batch
deduplication and regime-aware routing on top of the paper's three execution
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
* pass ``backend="auto"`` to the constructor to route per circuit, or any
  registry name.

All evaluators share the ``evaluate(circuit) -> float`` interface and count
their invocations, which the optimizers report.
"""

from __future__ import annotations

from typing import Optional, Union

from ..circuits.circuit import QuantumCircuit
from ..circuits.transpile import decompose_to_clifford_rz, merge_rz_runs
from ..execution.backend import Backend
from ..execution.executor import Executor, default_executor
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
    ``"pauli_propagation"``), ``"auto"`` for regime-aware
    routing, or a :class:`~repro.execution.backend.Backend` instance.
    ``canonicalize`` rewrites the circuit over Clifford+Rz before execution
    (the gate set the regimes' noise models are calibrated against).

    Each evaluation takes the grouped-observable path: the circuit is
    evolved **once** and every Pauli term of the Hamiltonian is read off the
    final state, with per-(circuit, term) caching so overlapping
    Hamiltonians and repeated optimizer queries skip the evolution
    entirely.  Example::

        evaluator = BackendEnergyEvaluator(hamiltonian, backend="auto")
        energy = evaluator(ansatz.build().bind_parameters(theta))
    """

    def __init__(self, hamiltonian: PauliSum,
                 backend: Union[str, Backend] = "auto",
                 noise_model: Optional[NoiseModel] = None,
                 canonicalize: bool = False,
                 include_idle: bool = True,
                 executor: Optional[Executor] = None,
                 use_cache: bool = True,
                 policy=None):
        super().__init__(hamiltonian)
        self.backend = backend
        self.noise_model = noise_model
        self.canonicalize = canonicalize
        self.include_idle = include_idle
        self.use_cache = use_cache
        # Fan-out policy forwarded to every executor call: an
        # ExecutionPolicy (mode and workers in one value), or
        # None to defer to the executor's own defaults.
        self.policy = policy
        self._executor = executor

    def _prepare_circuit(self, circuit: QuantumCircuit) -> QuantumCircuit:
        if self.canonicalize:
            circuit = merge_rz_runs(decompose_to_clifford_rz(circuit))
        return circuit

    def evaluate(self, circuit: QuantumCircuit) -> float:
        executor = self._executor or default_executor()
        return executor.evaluate_observable(
            self._prepare_circuit(circuit), self.hamiltonian,
            noise_model=self.noise_model, backend=self.backend,
            include_idle=self.include_idle,
            use_cache=self.use_cache, policy=self.policy)[0]

    def evaluate_point(self, template: QuantumCircuit, values) -> float:
        """⟨H⟩ of ``template`` bound at ``values``: exactly what
        ``self(template.bind_parameters(values))`` returns, counted as one
        evaluation.

        The per-step entry of point-by-point optimizers.  A noiseless
        statevector evaluation goes through
        :meth:`repro.execution.Executor.evaluate_point`, which serves the
        point from the cached template program with no circuit bound,
        hashed or compiled; canonicalizing and subclassed evaluators bind
        the circuit as :meth:`evaluate` expects.
        """
        if (self.canonicalize
                or type(self).evaluate is not BackendEnergyEvaluator.evaluate):
            return self(template.bind_parameters(list(values)))
        self.num_evaluations += 1
        executor = self._executor or default_executor()
        return executor.evaluate_point(
            template, values, self.hamiltonian,
            noise_model=self.noise_model, backend=self.backend,
            include_idle=self.include_idle,
            use_cache=self.use_cache, policy=self.policy)

    def evaluate_sweep(self, template: QuantumCircuit,
                       parameter_sets) -> list:
        """⟨H⟩ at every point of a parameter sweep over one ansatz template.

        The batched optimizer entry point: instead of one :meth:`evaluate`
        call per parameter vector, the whole sweep goes through
        :meth:`repro.execution.Executor.evaluate_sweep` — the template is
        compiled once, each point only rebinds the parametric gate matrices,
        and noiseless statevector sweeps execute as a single stacked NumPy
        pass.  SPSA ± pairs, parameter-shift pairs and genetic populations
        all ride this.  A noiseless Pauli-propagation
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
                backend=self.backend, include_idle=self.include_idle,
                use_cache=self.use_cache, policy=self.policy)
        return executor.evaluate_sweep(
            template, parameter_sets, self.hamiltonian,
            noise_model=self.noise_model, backend=self.backend,
            include_idle=self.include_idle,
            use_cache=self.use_cache, policy=self.policy)

    # -- regime presets ------------------------------------------------------
    @classmethod
    def exact(cls, hamiltonian: PauliSum) -> "BackendEnergyEvaluator":
        """Noiseless statevector preset."""
        return cls(hamiltonian, backend="statevector")

    @classmethod
    def density_matrix(cls, hamiltonian: PauliSum,
                       noise_model: Optional[NoiseModel] = None,
                       canonicalize: bool = True) -> "BackendEnergyEvaluator":
        """Exact-noisy density-matrix preset (the 8–12 qubit flow)."""
        return cls(hamiltonian, backend="density_matrix",
                   noise_model=noise_model, canonicalize=canonicalize)

    @classmethod
    def clifford(cls, hamiltonian: PauliSum,
                 noise_model: Optional[NoiseModel] = None,
                 canonicalize: bool = True,
                 include_idle: bool = True) -> "BackendEnergyEvaluator":
        """Pauli-propagation preset (the 16–100 qubit stabilizer proxy)."""
        return cls(hamiltonian, backend="pauli_propagation",
                   noise_model=noise_model, canonicalize=canonicalize,
                   include_idle=include_idle)
