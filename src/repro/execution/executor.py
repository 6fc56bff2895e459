"""The batched, cached, regime-aware ``execute()`` entry point.

Pipeline for one :meth:`Executor.run` call:

1. **Resolve** — every task is assigned a backend: its own ``backend`` field,
   the call-level ``backend=`` argument, or regime-aware auto-routing
   (:func:`repro.execution.router.route_task`).
2. **Cache lookup** — deterministic expectation tasks are looked up in the
   expectation cache: the in-memory LRU first, then (when a persistent
   cache directory is configured — ``cache_dir=`` or ``REPRO_CACHE_DIR``)
   the on-disk L2 (:mod:`repro.execution.disk_cache`).
3. **Deduplicate** — remaining identical deterministic tasks collapse to a
   single simulator invocation per distinct key.
4. **Dispatch** — unique tasks are grouped per backend and fanned out
   through :func:`~repro.execution.sharding.fan_out` under a
   :class:`~repro.execution.sharding.ShardPlanner` plan: worker
   **processes** for CPU-bound simulator batches (``parallel="process"``,
   the auto default once a batch is big enough), a thread pool for
   backends that hint it, or inline for small batches.
5. **Assemble** — results come back in input order, each labelled with the
   backend that ran it and whether it was served from cache or dedup.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import Backend
from .broker import make_broker
from .cache import CacheStats, ExpectationCache
from .disk_cache import (DiskCacheStats, DiskExpectationCache,
                         TieredExpectationCache, disk_cache_from_env)
from .errors import BackendCapabilityError, ExecutionError, SweepShapeError
from .observables import (_Slot, count_grouped_tasks, energies,
                          run_grouped, track_program_cache)
from .policy import ExecutionPolicy
from .registry import BackendRegistry, DEFAULT_REGISTRY
from .router import route_sweep, route_task
from .sharding import (FaultReport, ShardGroup, ShardPlan, ShardPlanner,
                       _clifford_sweep_shard, _run_batch_shard,
                       _sweep_points_shard, fan_out, resolve_workers)
from .task import ExecutionResult, ExecutionTask

#: Upper bound on complex amplitudes one stacked sweep batch may hold
#: (batch size × 2^n).  64M amplitudes ≈ 1 GB per live temporary.
_SWEEP_BATCH_AMPLITUDES = 1 << 26


@dataclass
class ExecutionStats:
    """Aggregate counters for one :class:`Executor` across all calls.

    ``grouped_tasks`` counts tasks served by the grouped-observable engine
    and ``term_cache_hits`` the per-(circuit, term) cache hits it scored;
    ``backend_invocations`` counts circuit evolutions either pipeline spent.
    ``programs_compiled`` / ``program_cache_hits`` track the circuit-compile
    layer (:mod:`repro.simulators.program`): how many circuits were lowered
    to :class:`~repro.simulators.program.CompiledProgram` objects during this
    executor's dispatches and how many lowerings were skipped because the
    fingerprint-keyed program cache already held them, in worker processes
    too.  ``process_shards`` counts shard payloads handed to the
    process broker (the fork pool or a spool).

    The fault counters aggregate the shard supervisor's
    :class:`~repro.execution.sharding.FaultReport`\\ s: ``shard_retries``
    re-dispatched shards, ``shard_timeouts`` per-shard wall-clock timeouts,
    ``pool_respawns`` worker-pool invalidations (crash or timeout), and
    ``degraded_shards`` shards that fell back to inline execution after
    the retry budget.  All stay 0 on a healthy run.
    """

    tasks_submitted: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    grouped_tasks: int = 0
    term_cache_hits: int = 0
    programs_compiled: int = 0
    program_cache_hits: int = 0
    process_shards: int = 0
    shard_retries: int = 0
    shard_timeouts: int = 0
    pool_respawns: int = 0
    degraded_shards: int = 0
    backend_invocations: Dict[str, int] = field(default_factory=dict)

    @property
    def simulator_invocations(self) -> int:
        return sum(self.backend_invocations.values())

    def __repr__(self):
        return (f"ExecutionStats(submitted={self.tasks_submitted}, "
                f"cache_hits={self.cache_hits}, dedup_hits={self.dedup_hits}, "
                f"grouped={self.grouped_tasks}, "
                f"term_cache_hits={self.term_cache_hits}, "
                f"programs={self.programs_compiled}/"
                f"{self.program_cache_hits} compiled/cached, "
                f"process_shards={self.process_shards}, "
                f"faults={self.shard_retries}/{self.shard_timeouts}/"
                f"{self.pool_respawns}/{self.degraded_shards} "
                f"retries/timeouts/respawns/degraded, "
                f"invocations={dict(self.backend_invocations)})")


class Executor:
    """Batches tasks onto backends with caching, dedup and threading.

    One executor owns one expectation cache and one stats block; the
    module-level :func:`execute` uses a shared default instance so all
    layers of the package benefit from each other's cache entries.
    """

    def __init__(self, registry: Optional[BackendRegistry] = None,
                 cache=None,
                 cache_size: int = 4096,
                 max_workers: Optional[int] = None,
                 use_cache: bool = True,
                 parallel: Optional[str] = None,
                 cache_dir=None,
                 policy: Optional[ExecutionPolicy] = None):
        """``policy`` is the executor-default
        :class:`~repro.execution.policy.ExecutionPolicy` — fan-out mode,
        worker count, shard broker and retry budget in one value; the
        legacy ``parallel`` (``"auto"``, ``"process"``, ``"thread"``,
        ``"none"``) and ``max_workers`` keywords coerce into it and win
        over its fields.  Unset fields defer to the environment
        (:meth:`ExecutionPolicy.from_env` — ``REPRO_WORKERS``,
        ``REPRO_BROKER_SPOOL``, ``REPRO_SHARD_*``) at dispatch time, then
        to built-in defaults.

        ``cache_dir`` (or, when no explicit ``cache``/``cache_dir`` is given,
        the ``REPRO_CACHE_DIR`` environment variable — read once, here)
        attaches a persistent on-disk L2
        (:class:`~repro.execution.disk_cache.DiskExpectationCache`) under
        the in-memory LRU, so deterministic expectation values survive the
        process and are shared across runs.
        """
        self.registry = registry or DEFAULT_REGISTRY
        memory = cache if cache is not None \
            else ExpectationCache(max_size=cache_size)
        disk = None
        if cache_dir is not None:
            disk = (cache_dir if isinstance(cache_dir, DiskExpectationCache)
                    else DiskExpectationCache(cache_dir))
        elif cache is None:
            disk = disk_cache_from_env()
        if isinstance(memory, TieredExpectationCache):
            if disk is not None:
                if memory.disk is None:
                    memory.disk = disk
                else:
                    raise ExecutionError(
                        "conflicting persistent caches: the provided "
                        "TieredExpectationCache already has a disk tier and "
                        "cache_dir= names another one")
        elif disk is not None:
            memory = TieredExpectationCache(memory=memory, disk=disk)
        self.cache = memory
        self.policy = ExecutionPolicy.coerce(policy, parallel=parallel,
                                             max_workers=max_workers)
        self.max_workers = self.policy.max_workers
        self.use_cache = use_cache
        self.planner = ShardPlanner(parallel=self.policy.parallel or "auto",
                                    max_workers=self.policy.max_workers)
        self.stats = ExecutionStats()
        self.final_disk_stats: Optional[DiskCacheStats] = None
        #: Recent shard-supervisor FaultReports (bounded; newest last).
        self.fault_reports: Deque = collections.deque(maxlen=32)
        self._lock = threading.Lock()

    # -- resolution ----------------------------------------------------------
    def _resolve_policy(self, policy: Optional[ExecutionPolicy] = None, *,
                        parallel: Optional[str] = None,
                        max_workers: Optional[int] = None
                        ) -> ExecutionPolicy:
        """The effective :class:`ExecutionPolicy` for one call: per-call
        keywords > per-call policy > this executor's policy > environment.
        Fields still ``None`` after the merge mean the built-in defaults
        (auto mode, usable-CPU workers, local broker, env retry budget)."""
        return (ExecutionPolicy.coerce(policy, parallel=parallel,
                                       max_workers=max_workers)
                .merged_over(self.policy)
                .merged_over(ExecutionPolicy.from_env()))

    def _resolve_backend(self, task: ExecutionTask,
                         backend: Union[str, Backend]
                         ) -> Tuple[Backend, bool]:
        """The backend for ``task`` plus whether it was explicitly chosen.

        Explicit choices (a Backend instance, a task-level name, or a named
        call-level backend) may exceed the advisory qubit ceilings, exactly
        like calling the underlying simulator directly; auto-routing never
        does.
        """
        if isinstance(backend, Backend):
            return backend, True
        if task.backend is not None:
            return self.registry.get(task.backend), True
        if backend == "auto":
            return self.registry.get(route_task(task, self.registry)), False
        return self.registry.get(backend), True

    # -- execution -----------------------------------------------------------
    def run(self, tasks: Union[ExecutionTask, Sequence[ExecutionTask]],
            backend: Union[str, Backend] = "auto",
            max_workers: Optional[int] = None,
            use_cache: Optional[bool] = None,
            parallel: Optional[str] = None,
            policy: Optional[ExecutionPolicy] = None) -> List[ExecutionResult]:
        """Execute ``tasks``; returns results aligned with the input order.

        ``backend`` may be ``"auto"`` (route each task), a registry name, or
        a :class:`Backend` instance (used for every task, bypassing the
        registry).  A single task is accepted and still yields a list.
        ``policy`` (or the legacy ``parallel`` / ``max_workers`` keywords,
        which win over it) overrides the executor's fan-out policy for this
        call; sharding never changes results — see
        :mod:`repro.execution.sharding`.
        """
        if isinstance(tasks, ExecutionTask):
            tasks = [tasks]
        else:
            tasks = list(tasks)
        for task in tasks:
            if not isinstance(task, ExecutionTask):
                raise ExecutionError(
                    f"execute() expects ExecutionTask objects, got "
                    f"{type(task).__name__}")
        use_cache = self.use_cache if use_cache is None else use_cache
        with self._lock:
            self.stats.tasks_submitted += len(tasks)
        if not tasks:
            return []

        backends: List[Backend] = []
        keys: List[Optional[Tuple]] = []
        results: List[Optional[ExecutionResult]] = [None] * len(tasks)
        for task in tasks:
            resolved, explicit = self._resolve_backend(task, backend)
            reason = resolved.unsupported_reason(
                task, enforce_qubit_limit=not explicit)
            if reason is not None:
                raise BackendCapabilityError(f"{reason} (task: {task!r})")
            backends.append(resolved)
            # Only deterministic expectation values are safe to share; the
            # backend's cache token folds in configuration (e.g. a Monte-
            # Carlo seed) that the task fields alone do not carry.
            cacheable = (task.is_expectation
                         and resolved.is_deterministic_for(task))
            keys.append(task.cache_key(resolved.cache_token(task))
                        if cacheable else None)

        # Cache lookup + in-batch dedup bookkeeping.
        pending: Dict[Tuple, List[int]] = {}
        to_run: List[int] = []
        for index, (task, key) in enumerate(zip(tasks, keys)):
            if key is not None and use_cache:
                hit = self.cache.get(key)
                if hit is not None:
                    results[index] = ExecutionResult(
                        task=task, backend_name=backends[index].name,
                        value=hit, source="cache")
                    with self._lock:
                        self.stats.cache_hits += 1
                    continue
            if key is not None:
                owners = pending.setdefault(key, [])
                owners.append(index)
                if len(owners) > 1:
                    continue  # an identical task already leads this key
            to_run.append(index)

        with track_program_cache(self):
            self._dispatch(tasks, backends, to_run, results, max_workers,
                           parallel, policy)

        # Fill cache and duplicate slots from the leaders that actually ran.
        for key, owners in pending.items():
            leader = owners[0]
            leader_result = results[leader]
            if leader_result is None:
                raise ExecutionError("internal error: leader task not run")
            if use_cache:
                self.cache.put(key, leader_result.value)
            for follower in owners[1:]:
                results[follower] = ExecutionResult(
                    task=tasks[follower], backend_name=leader_result.backend_name,
                    value=leader_result.value, source="dedup")
                with self._lock:
                    self.stats.dedup_hits += 1
        return results  # type: ignore[return-value]

    def _dispatch(self, tasks: Sequence[ExecutionTask],
                  backends: Sequence[Backend], to_run: Sequence[int],
                  results: List[Optional[ExecutionResult]],
                  max_workers: Optional[int],
                  parallel: Optional[str] = None,
                  policy: Optional[ExecutionPolicy] = None) -> None:
        """Run the given task indices, grouped per backend, in one
        :func:`~repro.execution.sharding.fan_out` dispatch."""
        by_backend: Dict[int, Tuple[Backend, List[int]]] = {}
        for index in to_run:
            entry = by_backend.setdefault(id(backends[index]),
                                          (backends[index], []))
            entry[1].append(index)
        if not by_backend:
            return

        effective = self._resolve_policy(policy, parallel=parallel,
                                         max_workers=max_workers)
        hints = [backend.capabilities().parallel_hint
                 for backend, _ in by_backend.values()]
        plan = self.planner.plan(len(to_run), hints=hints,
                                 parallel=effective.parallel,
                                 max_workers=effective.max_workers)
        run = fan_out(self, effective, plan, [
            ShardGroup(_run_batch_shard, (backend,),
                       [tasks[i] for i in indices])
            for backend, indices in by_backend.values()])
        for (backend, indices), batches in zip(by_backend.values(),
                                               run.values):
            # Pickled results carry value-equal copies of the tasks:
            # re-attach the caller's objects.
            batch = [result for chunk in batches for result in chunk]
            for i, result in zip(indices, batch):
                results[i] = (result if result.task is tasks[i] else
                              dataclasses.replace(result, task=tasks[i]))
            with self._lock:
                counters = self.stats.backend_invocations
                counters[backend.name] = counters.get(backend.name, 0) \
                    + len(indices)

    # -- grouped observables -------------------------------------------------
    def term_expectations(self, circuit, observable, *,
                          noise_model=None,
                          backend: Union[str, Backend] = "auto",
                          trajectories: Optional[int] = None,
                          include_idle: bool = True,
                          use_cache: Optional[bool] = None,
                          parallel: Optional[str] = None,
                          max_workers: Optional[int] = None,
                          policy: Optional[ExecutionPolicy] = None
                          ) -> "np.ndarray":
        """Per-term ⟨P_i⟩ of ``observable``'s terms from **one** evolution.

        The returned float array aligns with ``observable.terms()`` and does
        not include the coefficients — this is what term-resolved consumers
        (VarSaw's readout inversion, diagnostics) want.  Values are cached
        per (circuit, term), so later calls that share terms — or a
        Hamiltonian that only overlaps this one — skip the evolution
        entirely.  Example::

            values = executor.term_expectations(circuit, hamiltonian)
            for (pauli, coeff), value in zip(hamiltonian.terms(), values):
                print(pauli.label, value)
        """
        task = ExecutionTask(circuit=circuit, observable=observable,
                             noise_model=noise_model,
                             trajectories=trajectories,
                             include_idle=include_idle)
        return run_grouped(self, [task], backend=backend,
                           use_cache=use_cache, parallel=parallel,
                           max_workers=max_workers, policy=policy)[0]

    def evaluate_observable(self, circuits, observable, *,
                            noise_model=None,
                            backend: Union[str, Backend] = "auto",
                            trajectories: Optional[int] = None,
                            include_idle: bool = True,
                            use_cache: Optional[bool] = None,
                            max_workers: Optional[int] = None,
                            parallel: Optional[str] = None,
                            policy: Optional[ExecutionPolicy] = None
                            ) -> List[float]:
        """⟨H⟩ for one or many circuits, evolving each circuit **once**.

        The grouped fast path for many-term Hamiltonians: instead of one
        simulator run per Pauli term, every unique circuit is evolved a
        single time per backend and all term expectations are read off the
        final state (vectorized bitmask kernels on the dense simulators, one
        QWC basis rotation per commuting group on the stabilizer tableau,
        one pass for Pauli propagation).  Accepts a single circuit or a
        sequence; always returns a list of energies aligned with the input.
        Example::

            energies = executor.evaluate_observable(
                [ansatz.bind_parameters(theta) for theta in sweep],
                hamiltonian, backend="auto")
        """
        from ..circuits.circuit import QuantumCircuit
        if isinstance(circuits, QuantumCircuit):
            circuits = [circuits]
        else:
            circuits = list(circuits)
        tasks = [ExecutionTask(circuit=circuit, observable=observable,
                               noise_model=noise_model,
                               trajectories=trajectories,
                               include_idle=include_idle)
                 for circuit in circuits]
        return energies(observable, run_grouped(
            self, tasks, backend=backend, use_cache=use_cache,
            max_workers=max_workers, parallel=parallel, policy=policy))

    # -- batched parameter sweeps --------------------------------------------
    def evaluate_sweep(self, template, parameter_sets, observable, *,
                       noise_model=None,
                       backend: Union[str, Backend] = "auto",
                       trajectories: Optional[int] = None,
                       include_idle: bool = True,
                       use_cache: Optional[bool] = None,
                       max_workers: Optional[int] = None,
                       parallel: Optional[str] = None,
                       policy: Optional[ExecutionPolicy] = None
                       ) -> List[float]:
        """⟨H⟩ at every point of a parameter sweep over one circuit template.

        The batched fast path of the compile layer.  Two engines serve a
        noiseless sweep from a template compiled **once**, with no circuit
        bound per point:

        * ``statevector`` — :func:`repro.simulators.program.compile_circuit`
          (served by the fingerprint-keyed program cache on repeat sweeps);
          each parameter set only rebinds the parametric matrices, and all
          uncached points execute as a single stacked ``(B, 2^n)``
          :func:`~repro.simulators.program.run_batch` pass with one
          vectorized term-readout kernel over the whole batch;
        * ``pauli_propagation`` (named explicitly) —
          :func:`repro.simulators.pauli_propagation.compile_clifford` lowers
          the canonicalized symbolic template to a Clifford op table, and
          every uncached point rides one bit-sliced propagation pass.  A
          point that puts a rotation off a multiple of π/2 raises
          :class:`BackendCapabilityError`.

        Values are cached per ``(template, parameter tuple, term, engine)``
        — a sweep-specific key space, separate from the grouped engine's
        per-circuit keys — so repeated points (SPSA ± re-queries, genetic
        elites) cost a dictionary lookup across sweep calls.  ``"auto"``
        routes every point from the template alone
        (:func:`~repro.execution.router.route_sweep`: the verdict
        :func:`~repro.execution.router.route_task` would give the bound
        circuit, with no circuit bound); a noiseless sweep whose every point
        routes to ``statevector`` takes the compiled path above.  Sweeps
        that route elsewhere (noise models, a Clifford point under
        ``"auto"``, custom backends) fall back to one grouped
        :meth:`evaluate_observable` batch over the bound circuits.  A point
        whose length differs from the template's parameter count raises
        :class:`SweepShapeError` (an :class:`ExecutionError` and a
        ``ValueError``).  Returns energies
        aligned with ``parameter_sets``.  Example::

            energies = executor.evaluate_sweep(
                ansatz.build(), sweep_points, hamiltonian,
                backend="statevector")
        """
        parameter_sets = [[float(value) for value in values]
                          for values in parameter_sets]
        if not parameter_sets:
            return []
        num_parameters = len(template.ordered_parameters())
        for values in parameter_sets:
            if len(values) != num_parameters:
                raise SweepShapeError(
                    f"template has {num_parameters} free parameters, got a "
                    f"sweep point with {len(values)}")
        use_cache = self.use_cache if use_cache is None else use_cache

        engine = self.compiled_sweep_engine(backend, noise_model)
        if engine is None and backend == "auto" and not (
                noise_model is not None and noise_model.has_noise()):
            # The template task validates like every bound point's would.
            ExecutionTask(circuit=template, observable=observable,
                          trajectories=trajectories, include_idle=include_idle)
            if all(name == "statevector"
                   for name in route_sweep(template, parameter_sets)):
                engine = self.compiled_sweep_engine("statevector")
        if engine is None:
            bound_circuits = [template.bind_parameters(values)
                              for values in parameter_sets]
            return self.evaluate_observable(
                bound_circuits, observable, noise_model=noise_model,
                backend=backend, trajectories=trajectories,
                include_idle=include_idle, use_cache=use_cache,
                max_workers=max_workers, parallel=parallel, policy=policy)
        resolved = (backend if isinstance(backend, Backend)
                    else self.registry.get(engine))
        return self._sweep_compiled(template, parameter_sets, observable,
                                    resolved, use_cache, parallel=parallel,
                                    max_workers=max_workers, policy=policy)

    def evaluate_point(self, template, values, observable, *,
                       noise_model=None,
                       backend: Union[str, Backend] = "auto",
                       trajectories: Optional[int] = None,
                       include_idle: bool = True,
                       use_cache: Optional[bool] = None,
                       max_workers: Optional[int] = None,
                       parallel: Optional[str] = None,
                       policy: Optional[ExecutionPolicy] = None) -> float:
        """⟨H⟩ at one parameter point of a circuit template: the per-step
        entry of point-by-point optimizers (COBYLA, Nelder–Mead).

        Returns exactly (``==``) what :meth:`evaluate_observable` returns
        for ``template.bind_parameters(values)``, and shares its cache
        entries: values are keyed under the bound circuit's own per-term
        keys, its fingerprint derived from the template
        (:meth:`~repro.circuits.circuit.QuantumCircuit.bound_fingerprint`),
        so either path — and the disk tier — serves the other.  A point
        that runs on ``statevector`` (named, or routed there by ``"auto"``
        through :func:`~repro.execution.router.route_sweep`) binds no
        circuit: the cached template program is bound at ``values``
        (:meth:`~repro.simulators.program.CompiledProgram.point_program`,
        op for op the bound circuit's lowering) and read out with the same
        single-state kernel, in-process (one evolution has nothing to
        shard, so ``parallel``, ``max_workers`` and ``policy`` only reach
        the fallback).  Noisy points, other backends and templates with
        measurements, resets or barriers bind the circuit and take
        :meth:`evaluate_observable`.  Example::

            energy = executor.evaluate_point(ansatz.build(), theta,
                                             hamiltonian,
                                             backend="statevector")
        """
        from ..simulators.kernels import statevector_term_expectations
        from ..simulators.program import compile_circuit
        values = [float(value) for value in values]
        num_parameters = len(template.ordered_parameters())
        if len(values) != num_parameters:
            raise SweepShapeError(
                f"template has {num_parameters} free parameters, got "
                f"{len(values)} values")
        task = ExecutionTask(circuit=template, observable=observable,
                             noise_model=noise_model,
                             trajectories=trajectories,
                             include_idle=include_idle)
        engine = None
        if not task.has_noise and not any(
                inst.name in ("measure", "reset", "barrier")
                for inst in template):
            engine = (next(route_sweep(template, [values]))
                      if backend == "auto"
                      else self.compiled_sweep_engine(backend))
        if engine != "statevector":
            return self.evaluate_observable(
                template.bind_parameters(values), observable,
                noise_model=noise_model, backend=backend,
                trajectories=trajectories, include_idle=include_idle,
                use_cache=use_cache, max_workers=max_workers,
                parallel=parallel, policy=policy)[0]
        resolved = (backend if isinstance(backend, Backend)
                    else self.registry.get("statevector" if backend == "auto"
                                           else backend))
        use_cache = self.use_cache if use_cache is None else use_cache
        count_grouped_tasks(self, 1)
        # run_grouped's slot for the bound circuit, keyed by its fingerprint
        # derived from the template: same keys, stats and cache fill.
        slot = _Slot(task, resolved, resolved.is_deterministic_for(task),
                     template.bound_fingerprint(values))
        slot.absorb(0, task)
        missing = slot.probe(self, use_cache)
        if missing:
            with track_program_cache(self):
                program = compile_circuit(template).point_program(values)
            # The bound path's readout: the missing terms, one kernel pass.
            resolved._count_invocations()
            slot.record(self, missing, statevector_term_expectations(
                program.run_statevector(),
                observable=slot.synthetic_task(missing).observable),
                use_cache)
        return energies(observable, [slot.term_values(task)])[0]

    def compiled_sweep_engine(self, backend: Union[str, Backend],
                              noise_model=None) -> Optional[str]:
        """The engine that serves a sweep on ``backend`` from a compiled
        template — ``"statevector"`` or ``"pauli_propagation"`` — or None
        when the engine depends on the points (``"auto"``, routed per point
        by :meth:`evaluate_sweep`) or the sweep binds a circuit per point
        (noise models, other or custom backends)."""
        from .adapters import PauliPropagationBackend, StatevectorBackend
        if noise_model is not None and noise_model.has_noise():
            return None
        if not isinstance(backend, Backend):
            if backend == "auto":
                return None
            backend = self.registry.get(backend)
        for engine, kind in (("statevector", StatevectorBackend),
                             ("pauli_propagation", PauliPropagationBackend)):
            if isinstance(backend, kind) and backend.name == engine:
                return engine
        return None

    @staticmethod
    def _sweep_cache_keys(template_fingerprint: str, point_key: Tuple,
                          term_keys, engine: str) -> List[Tuple]:
        """Value-cache keys of one sweep point — no circuit binding needed."""
        return [("sweep", template_fingerprint, point_key, term_key, engine)
                for term_key in term_keys]

    def _sweep_kernel(self, engine: str, template, fingerprint: str,
                      observable, points):
        """``(shard function, head, planner hint, block cap)`` of one
        compiled sweep engine over the sweep's uncached points; a chunk of
        points runs as ``shard(*head, chunk)``."""
        if engine == "pauli_propagation":
            from ..simulators.pauli_propagation import compile_clifford
            try:
                program = compile_clifford(template, fingerprint)
                program.quarter_turns(points)
            except ValueError as error:
                raise BackendCapabilityError(
                    f"backend 'pauli_propagation' cannot run this sweep: "
                    f"{error}") from error
            # One bit-sliced pass costs microseconds per point: never worth
            # a fork under "auto".
            return _clifford_sweep_shard, (program, observable), "inline", 64
        # A template with nothing to strip is used as is: a copy would
        # re-hash its fingerprint and miss its program-cache view.
        bare_template = (template.without_measurements()
                         if any(inst.name in ("measure", "reset", "barrier")
                                for inst in template) else template)
        # A point block fits one stacked batch under the amplitude bound
        # (it is capped at an eighth of it), and up to 8 concurrent
        # workers each holding one block stay inside the ~1 GB bound; the
        # inline batch chunks under the same bound.
        return (_sweep_points_shard,
                (bare_template, observable, _SWEEP_BATCH_AMPLITUDES),
                "process",
                _SWEEP_BATCH_AMPLITUDES // (8 << int(bare_template.num_qubits)))

    def _sweep_compiled(self, template, parameter_sets, observable,
                        backend: Backend, use_cache: bool,
                        parallel: Optional[str] = None,
                        max_workers: Optional[int] = None,
                        policy: Optional[ExecutionPolicy] = None
                        ) -> List[float]:
        """One compiled batch over the uncached points of a noiseless sweep
        on ``backend``, whose name is the engine and whose ``invocations``
        count the unique points evaluated.

        Cached values are keyed per ``("sweep", template fingerprint,
        parameter tuple, term, engine)`` — derived without binding a circuit
        per point, which keeps the repeat-query hot path at dictionary-lookup
        cost.  Identical uncached points share one evaluation (counted as
        ``dedup_hits``).  Process sweeps run their uncached points in
        fixed-size **point blocks** whose size depends only on the engine,
        the qubit count and the unique-point count — never on the worker
        count or broker — so pooled and spool-brokered sweeps submit
        byte-identical shard payloads (a spool's content-named result files
        stay valid across run shapes, and fine-grained blocks let elastic
        workers load-balance).  Each block's term values flush through the
        cache (and its disk tier) **as the block lands**, so a killed
        multi-worker sweep resumes warm: already-flushed points are served
        from cache and recompute nothing.  Inline and thread sweeps run the
        same shard function over all their points as one compiled batch.
        """
        engine = backend.name
        num_points = len(parameter_sets)
        count_grouped_tasks(self, num_points)
        term_keys = [pauli.key() for pauli, _ in observable.terms()]
        values_per_point: List[Optional[np.ndarray]] = [None] * num_points
        point_keys = [tuple(values) for values in parameter_sets]
        with track_program_cache(self):
            template_fingerprint = template.fingerprint()

            def cache_keys(point_key: Tuple) -> List[Tuple]:
                return self._sweep_cache_keys(template_fingerprint,
                                              point_key, term_keys, engine)

            missing: List[int] = []
            if use_cache:
                width = len(term_keys)
                cached = self.cache.get_many([
                    key for point_key in point_keys
                    for key in cache_keys(point_key)])
                for index in range(num_points):
                    row = cached[index * width:(index + 1) * width]
                    if all(value is not None for value in row):
                        values_per_point[index] = np.array(row)
                    else:
                        missing.append(index)
                with self._lock:
                    self.stats.term_cache_hits += \
                        (num_points - len(missing)) * width
            else:
                missing = list(range(num_points))
            if missing:
                # In-batch dedup: identical sweep points share one evolution.
                leaders: Dict[Tuple, int] = {}
                unique: List[int] = []
                for index in missing:
                    if point_keys[index] in leaders:
                        continue
                    leaders[point_keys[index]] = len(unique)
                    unique.append(index)
                points = [parameter_sets[index] for index in unique]
                shard, head, hint, block_cap = self._sweep_kernel(
                    engine, template, template_fingerprint, observable,
                    points)
                effective = self._resolve_policy(policy, parallel=parallel,
                                                 max_workers=max_workers)
                plan = self.planner.plan(len(unique), hints=(hint,),
                                         parallel=effective.parallel,
                                         max_workers=effective.max_workers)
                if plan.mode != "process":
                    # Only process sweeps cut point blocks; a thread plan
                    # runs the one inline batch, like an inline plan.
                    plan = ShardPlan("none", 1)

                def flush_block(block: list, block_values) -> None:
                    self.cache.put_many(
                        entry for point, row in zip(block, block_values)
                        for entry in zip(cache_keys(tuple(point)),
                                         (float(v) for v in row)))

                # Each landed block checkpoints through the cache; the /16
                # keeps ~16 blocks on big sweeps, so elastic workers can
                # load-balance and checkpoints stay fine-grained.
                blocks = fan_out(
                    self, effective, plan, [ShardGroup(shard, head, points)],
                    block=max(1, min(64, block_cap, -(-len(unique) // 16))),
                    on_result=flush_block if use_cache else None).values[0]
                unique_values = (blocks[0] if len(blocks) == 1
                                 else np.concatenate(blocks, axis=0))
                for index in missing:
                    values_per_point[index] = \
                        unique_values[leaders[point_keys[index]]]
                # No shard sees the backend: count its evolutions here.
                backend._count_invocations(len(unique))
                with self._lock:
                    counters = self.stats.backend_invocations
                    counters[engine] = counters.get(engine, 0) + len(unique)
                    self.stats.dedup_hits += len(missing) - len(unique)
        return energies(observable, values_per_point)

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> Optional[DiskCacheStats]:
        """Retire the worker-process pool and flush disk-cache accounting.

        Long-running hosts (the :mod:`repro.service` job server) need a
        clean lifecycle: before this method the persistent
        ``ProcessPoolExecutor`` only died with the interpreter.  ``wait=True``
        lets in-flight shard payloads finish; ``wait=False`` abandons them.
        The final :class:`~repro.execution.disk_cache.DiskCacheStats`
        snapshot is captured on :attr:`final_disk_stats` and returned (None
        when no persistent cache is configured), so a server's shutdown path
        can log lifetime hit/miss/eviction counts after the pool is gone.

        Shutdown is idempotent and deliberately non-poisoning: the pool is
        process-global (shared by every executor), so a later dispatch from
        any executor lazily recreates it.  Executors support the context
        manager protocol — ``with Executor() as executor: ...`` shuts down
        on exit.
        """
        from .sharding import shutdown_process_pool
        shutdown_process_pool(wait=wait)
        self.final_disk_stats = self.disk_cache_stats
        return self.final_disk_stats

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # -- introspection -------------------------------------------------------
    def note_fault_report(self, report: FaultReport) -> None:
        """Fold one shard-supervisor :class:`FaultReport` into the stats.

        Wired as the ``on_fault`` callback of every
        :func:`~repro.execution.sharding.fan_out` dispatch this executor
        plans (its own dispatches and executor-routed pipelines like
        :mod:`repro.qec.sampling`), so recoveries are never
        silent: counters land in :attr:`stats` and the report itself is
        kept on the bounded :attr:`fault_reports` deque for inspection.
        """
        with self._lock:
            self.stats.shard_retries += len(report.retried)
            self.stats.shard_timeouts += report.timeouts
            self.stats.pool_respawns += report.respawns
            self.stats.degraded_shards += report.inline_shards
        self.fault_reports.append(report)

    def broker_workers(self) -> List[dict]:
        """The configured broker's current worker census (JSON-able dicts).

        For the default local broker this is the fork pool's live worker
        processes; for a filesystem broker it is the spool's worker census
        files — what a service's ``stats()`` endpoint reports as
        ``workers``.
        """
        effective = self._resolve_policy()
        broker = make_broker(effective.broker,
                             resolve_workers(effective.max_workers))
        return broker.workers()

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def disk_cache(self) -> Optional[DiskExpectationCache]:
        """The persistent L2 store, or None when not configured."""
        if isinstance(self.cache, TieredExpectationCache):
            return self.cache.disk
        return None

    @property
    def disk_cache_stats(self) -> Optional[DiskCacheStats]:
        """Hit/miss/write/eviction counters of the L2 store, or None."""
        disk = self.disk_cache
        return disk.stats if disk is not None else None

    def reset_stats(self) -> None:
        self.stats = ExecutionStats()


_default_executor: Optional[Executor] = None
_default_lock = threading.Lock()


def default_executor() -> Executor:
    """The process-wide executor behind :func:`execute` (created lazily)."""
    global _default_executor
    with _default_lock:
        if _default_executor is None:
            _default_executor = Executor()
        return _default_executor


def reset_default_executor() -> None:
    """Drop the shared executor (and its cache/stats); mainly for tests."""
    global _default_executor
    with _default_lock:
        _default_executor = None


def execute(tasks: Union[ExecutionTask, Sequence[ExecutionTask]],
            backend: Union[str, Backend] = "auto",
            max_workers: Optional[int] = None,
            use_cache: Optional[bool] = None,
            parallel: Optional[str] = None,
            policy: Optional[ExecutionPolicy] = None) -> List[ExecutionResult]:
    """Run tasks through the shared default executor (see :class:`Executor`).

    This is the one call every consumer in the package dispatches through::

        results = execute([ExecutionTask(circuit, observable=hamiltonian)])
        energy = results[0].value

    ``parallel="process"`` fans a CPU-bound batch out across worker
    processes (``max_workers``, or the ``REPRO_WORKERS`` environment
    override); results are identical to an inline run — see
    :mod:`repro.execution.sharding` for the determinism contract.
    """
    return default_executor().run(tasks, backend=backend,
                                  max_workers=max_workers,
                                  use_cache=use_cache, parallel=parallel,
                                  policy=policy)


def execute_one(task: ExecutionTask,
                backend: Union[str, Backend] = "auto",
                use_cache: Optional[bool] = None) -> ExecutionResult:
    """Convenience wrapper: run a single task and return its result."""
    return execute(task, backend=backend, use_cache=use_cache)[0]


def evaluate_observable(circuits, observable, *, noise_model=None,
                        backend: Union[str, Backend] = "auto",
                        trajectories: Optional[int] = None,
                        include_idle: bool = True,
                        use_cache: Optional[bool] = None,
                        max_workers: Optional[int] = None,
                        parallel: Optional[str] = None,
                        policy: Optional[ExecutionPolicy] = None
                        ) -> List[float]:
    """⟨H⟩ for one or many circuits through the shared default executor.

    The grouped-observable fast path: each unique circuit is evolved
    **once** per backend and every Pauli term of ``observable`` is read off
    the final state, with per-(circuit, term) caching — see
    :meth:`Executor.evaluate_observable`.  Example::

        from repro.execution import evaluate_observable

        [energy] = evaluate_observable(circuit, hamiltonian)
    """
    return default_executor().evaluate_observable(
        circuits, observable, noise_model=noise_model, backend=backend,
        trajectories=trajectories, include_idle=include_idle,
        use_cache=use_cache, max_workers=max_workers, parallel=parallel,
        policy=policy)


def evaluate_sweep(template, parameter_sets, observable, *, noise_model=None,
                   backend: Union[str, Backend] = "auto",
                   trajectories: Optional[int] = None,
                   include_idle: bool = True,
                   use_cache: Optional[bool] = None,
                   max_workers: Optional[int] = None,
                   parallel: Optional[str] = None,
                   policy: Optional[ExecutionPolicy] = None) -> List[float]:
    """⟨H⟩ over a whole parameter sweep through the shared default executor.

    The batched sweep entry point: the parametric ``template`` is compiled
    once; noiseless statevector sweeps execute as a single stacked NumPy
    pass and noiseless ``pauli_propagation`` sweeps as one bit-sliced
    Clifford pass — see :meth:`Executor.evaluate_sweep`.  Other regimes fall
    back to one grouped :func:`evaluate_observable` batch over the bound
    circuits.
    Example::

        from repro.execution import evaluate_sweep

        energies = evaluate_sweep(ansatz.build(), sweep_points, hamiltonian)
    """
    return default_executor().evaluate_sweep(
        template, parameter_sets, observable, noise_model=noise_model,
        backend=backend, trajectories=trajectories, include_idle=include_idle,
        use_cache=use_cache, max_workers=max_workers, parallel=parallel,
        policy=policy)


def term_expectations(circuit, observable, *, noise_model=None,
                      backend: Union[str, Backend] = "auto",
                      trajectories: Optional[int] = None,
                      include_idle: bool = True,
                      use_cache: Optional[bool] = None,
                      parallel: Optional[str] = None,
                      max_workers: Optional[int] = None,
                      policy: Optional[ExecutionPolicy] = None
                      ) -> "np.ndarray":
    """Per-term ⟨P_i⟩ from one evolution, via the shared default executor.

    See :meth:`Executor.term_expectations`; values align with
    ``observable.terms()`` and exclude the coefficients.
    """
    return default_executor().term_expectations(
        circuit, observable, noise_model=noise_model, backend=backend,
        trajectories=trajectories, include_idle=include_idle,
        use_cache=use_cache, parallel=parallel, max_workers=max_workers,
        policy=policy)
