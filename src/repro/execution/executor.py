"""The batched, cached, regime-aware ``execute()`` entry point.

Pipeline for one :meth:`Executor.run` call:

1. **Resolve** — every task is assigned a backend: its own ``backend`` field,
   the call-level ``backend=`` argument, or regime-aware auto-routing
   (:func:`repro.execution.router.route_task`).
2. **Cache lookup** — expectation tasks are looked up in the executor's
   one in-memory expectation cache.
3. **Deduplicate** — remaining identical expectation tasks collapse to a
   single simulator invocation per distinct key.
4. **Dispatch** — unique tasks are grouped per backend and run through
   :func:`~repro.execution.sharding.fan_out` under a
   :class:`~repro.execution.sharding.ShardPlanner` plan: inline by
   default, or across worker **processes** on the shared fork pool when
   the policy says ``ExecutionPolicy(parallel="process")``.
5. **Assemble** — results come back in input order, each labelled with the
   backend that ran it and whether it was served from cache or dedup.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import Backend
from .cache import CacheStats, ExpectationCache
from .errors import BackendCapabilityError, ExecutionError, SweepShapeError
from .observables import (count_backend_invocations, count_grouped_tasks,
                          energies, run_grouped, track_program_cache)
from .policy import ExecutionPolicy
from .registry import BackendRegistry, DEFAULT_REGISTRY
from .router import point_router, route_sweep, route_task
from .sharding import (ShardGroup, ShardPlan, ShardPlanner,
                       _clifford_sweep_shard, _run_batch_shard,
                       _sweep_points_shard, fan_out)
from .task import ExecutionResult, ExecutionTask, observable_fingerprint
from ..simulators.kernels import statevector_term_expectations
from ..simulators.program import _program_nbytes, cached_plan, compile_circuit

#: Upper bound on complex amplitudes one stacked sweep batch may hold
#: (batch size × 2^n).  64M amplitudes ≈ 1 GB per live temporary.
_SWEEP_BATCH_AMPLITUDES = 1 << 26


@dataclass
class ExecutionStats:
    """Aggregate counters for one :class:`Executor` across all calls.

    ``grouped_tasks`` counts tasks served by the grouped-observable engine
    and ``term_cache_hits`` the per-(circuit, term) cache hits it scored
    (a compiled sweep's cached point counts one per term);
    ``backend_invocations`` counts circuit evolutions either pipeline spent.
    ``programs_compiled`` / ``program_cache_hits`` track the circuit-compile
    layer (:mod:`repro.simulators.program`): how many circuits were lowered
    to :class:`~repro.simulators.program.CompiledProgram` objects during this
    executor's dispatches and how many lowerings were skipped because the
    fingerprint-keyed program cache already held them, in worker processes
    too.  ``process_shards`` counts shard payloads handed to the
    fork pool.

    The recovery counters count what
    :func:`~repro.execution.sharding.run_sharded` did about dead pool
    workers: ``pool_respawns`` broken pools retired, ``degraded_shards``
    shards rerun in the caller.  Both stay 0 on a healthy run.
    """

    tasks_submitted: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    grouped_tasks: int = 0
    term_cache_hits: int = 0
    programs_compiled: int = 0
    program_cache_hits: int = 0
    process_shards: int = 0
    shard_retries: int = 0  # always 0; read only by perfbench/report.py
    shard_timeouts: int = 0  # always 0; read only by perfbench/report.py
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
                f"recoveries={self.pool_respawns}/{self.degraded_shards} "
                f"respawns/degraded, "
                f"invocations={dict(self.backend_invocations)})")


def _checked_policy(policy) -> Optional[ExecutionPolicy]:
    """``policy`` itself: an :class:`ExecutionPolicy` or None, anything
    else (a payload dict, a mode string) is an :class:`ExecutionError`."""
    if policy is not None and not isinstance(policy, ExecutionPolicy):
        raise ExecutionError(
            f"policy must be an ExecutionPolicy or None, got "
            f"{type(policy).__name__}")
    return policy


class _PointPlan:
    """What every :meth:`Executor.evaluate_point` step of one (template,
    observable, backend, include_idle) shares, worked out on its first step.

    ``program`` is the compiled template, or None when a point binds a
    circuit instead (a measure, reset or barrier in the template, or a
    backend whose engine is not the statevector); ``route`` is the
    template half of the ``"auto"`` route
    (:func:`~repro.execution.router.point_router`), None for a named
    backend; ``terms`` holds each term's component of its cache key, in
    ``terms()`` order.  The template, view and backend are held so that
    the identities the plan is keyed by stay unique while it is kept.
    """

    __slots__ = ("template", "view", "backend", "route", "program", "terms")

    def __init__(self, template, view, backend, route, program):
        self.template = template
        self.view = view
        self.backend = backend
        self.route = route
        self.program = program
        self.terms = [("term",) + key for key in view.keys]

    def nbytes(self) -> int:
        """The bytes a plan keeps alive: its term arrays and its program
        (charged again here, so the cache's ceiling holds even when the
        program's own entry is evicted first)."""
        view = self.view
        total = (view.x_bits.nbytes + view.z_bits.nbytes
                 + view.coefficients.nbytes)
        if self.program is not None:
            total += _program_nbytes(self.program)
        return total


class Executor:
    """Batches tasks onto backends with caching, dedup and fan-out.

    One executor owns one expectation cache and one stats block; the
    module-level :func:`execute` uses a shared default instance so all
    layers of the package benefit from each other's cache entries.
    """

    def __init__(self, registry: Optional[BackendRegistry] = None,
                 cache=None,
                 cache_size: int = 4096,
                 use_cache: bool = True,
                 policy: Optional[ExecutionPolicy] = None):
        """``policy`` is the executor-default
        :class:`~repro.execution.policy.ExecutionPolicy` — fan-out mode and
        worker count in one value.  Unset fields defer to the environment
        (:meth:`ExecutionPolicy.from_env` — ``REPRO_WORKERS``) at dispatch
        time, then to built-in defaults.
        """
        self.registry = registry or DEFAULT_REGISTRY
        self.cache = cache if cache is not None \
            else ExpectationCache(max_size=cache_size)
        self.policy = _checked_policy(policy) or ExecutionPolicy()
        self.use_cache = use_cache
        self.stats = ExecutionStats()
        self._lock = threading.Lock()

    # -- resolution ----------------------------------------------------------
    def _resolve_policy(self, policy: Optional[ExecutionPolicy] = None
                        ) -> ExecutionPolicy:
        """The effective :class:`ExecutionPolicy` for one call: per-call
        policy > this executor's policy > environment.  Fields still
        ``None`` after the merge mean the built-in defaults (inline,
        usable-CPU workers)."""
        return (_checked_policy(policy) or ExecutionPolicy()) \
            .merged_over(self.policy).merged_over(ExecutionPolicy.from_env())

    def _plan(self, policy: Optional[ExecutionPolicy], num_items: int
              ) -> Tuple[ExecutionPolicy, ShardPlan]:
        """The resolved policy and the :class:`ShardPlan` of one dispatch —
        the one place every sharded pipeline plans."""
        effective = self._resolve_policy(policy)
        return effective, ShardPlanner(
            effective.parallel, effective.max_workers).plan(num_items)

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
            use_cache: Optional[bool] = None,
            policy: Optional[ExecutionPolicy] = None) -> List[ExecutionResult]:
        """Execute ``tasks``; returns results aligned with the input order.

        ``backend`` may be ``"auto"`` (route each task), a registry name, or
        a :class:`Backend` instance (used for every task, bypassing the
        registry).  A single task is accepted and still yields a list.
        ``policy`` overrides the executor's fan-out policy for this call;
        sharding never changes results — see
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
            # Expectation values are shared; sampled counts never are.
            keys.append(task.cache_key(resolved.name)
                        if task.is_expectation else None)

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
            self._dispatch(tasks, backends, to_run, results, policy)

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

        effective, plan = self._plan(policy, len(to_run))
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
                          include_idle: bool = True,
                          use_cache: Optional[bool] = None,
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
                             include_idle=include_idle)
        return run_grouped(self, [task], backend=backend,
                           use_cache=use_cache, policy=policy)[0]

    def evaluate_observable(self, circuits, observable, *,
                            noise_model=None,
                            backend: Union[str, Backend] = "auto",
                            include_idle: bool = True,
                            use_cache: Optional[bool] = None,
                            policy: Optional[ExecutionPolicy] = None
                            ) -> List[float]:
        """⟨H⟩ for one or many circuits, evolving each circuit **once**.

        The grouped fast path for many-term Hamiltonians: instead of one
        simulator run per Pauli term, every unique circuit is evolved a
        single time per backend and all term expectations are read off the
        final state (vectorized bitmask kernels on the dense simulators, one
        pass for Pauli propagation).  Accepts a single circuit or a
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
                               include_idle=include_idle)
                 for circuit in circuits]
        return energies(observable, run_grouped(
            self, tasks, backend=backend, use_cache=use_cache, policy=policy))

    # -- batched parameter sweeps --------------------------------------------
    def evaluate_sweep(self, template, parameter_sets, observable, *,
                       noise_model=None,
                       backend: Union[str, Backend] = "auto",
                       include_idle: bool = True,
                       use_cache: Optional[bool] = None,
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

        Energies are cached per ``(template, parameter tuple, observable,
        engine)`` — one entry per point, in a sweep-specific key space
        separate from the grouped engine's per-(circuit, term) keys — so
        repeated points (SPSA ± re-queries, genetic elites) cost a
        dictionary lookup across sweep calls.  ``"auto"``
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
                          include_idle=include_idle)
            if all(name == "statevector"
                   for name in route_sweep(template, parameter_sets)):
                engine = self.compiled_sweep_engine("statevector")
        if engine is None:
            bound_circuits = [template.bind_parameters(values)
                              for values in parameter_sets]
            return self.evaluate_observable(
                bound_circuits, observable, noise_model=noise_model,
                backend=backend,
                include_idle=include_idle, use_cache=use_cache, policy=policy)
        resolved = (backend if isinstance(backend, Backend)
                    else self.registry.get(engine))
        return self._sweep_compiled(template, parameter_sets, observable,
                                    resolved, use_cache, policy)

    def evaluate_point(self, template, values, observable, *,
                       noise_model=None,
                       backend: Union[str, Backend] = "auto",
                       include_idle: bool = True,
                       use_cache: Optional[bool] = None,
                       policy: Optional[ExecutionPolicy] = None) -> float:
        """⟨H⟩ at one parameter point of a circuit template: the per-step
        entry of point-by-point optimizers (COBYLA, Nelder–Mead).

        Returns exactly (``==``) what :meth:`evaluate_observable` returns
        for ``template.bind_parameters(values)``, and shares its cache
        entries: values are keyed under the bound circuit's own per-term
        keys, its fingerprint derived from the template
        (:meth:`~repro.circuits.circuit.QuantumCircuit.bound_fingerprint`),
        so either path serves the other, and the stats book alike.  A
        point that runs on ``statevector`` (named, or routed there by
        ``"auto"`` through :func:`~repro.execution.router.route_sweep`'s
        verdict) binds no circuit: the cached template program is bound at
        ``values`` (:meth:`~repro.simulators.program.CompiledProgram.
        point_program`, op for op the bound circuit's lowering, one stacked
        bind per group of parametric ops) and read out with the same
        single-state kernel, in-process (one evolution has nothing to
        shard, so ``policy`` only reaches the fallback).

        What depends only on the template, the observable, the backend and
        ``include_idle`` is worked out on the first step and kept as a
        point plan in the program cache: the template's measure, reset and
        barrier scan, the engine verdict (under ``"auto"``, the template
        half of the route), the compiled program, and the observable's term
        keys, bit matrices and weights
        (:meth:`~repro.operators.pauli.PauliSum.term_view`).  A later step
        derives its fingerprint, probes the cache once, binds, evolves,
        reads out the missing terms, fills the cache once and takes one
        dot.  Editing the template or the observable keys a new plan.
        Noisy points, other backends and templates with measurements,
        resets or barriers bind the circuit and take
        :meth:`evaluate_observable`.  Example::

            energy = executor.evaluate_point(ansatz.build(), theta,
                                             hamiltonian,
                                             backend="statevector")
        """
        values = [float(value) for value in values]
        num_parameters = len(template.ordered_parameters())
        if len(values) != num_parameters:
            raise SweepShapeError(
                f"template has {num_parameters} free parameters, got "
                f"{len(values)} values")
        resolved = None
        if not (noise_model is not None and noise_model.has_noise()):
            chosen = (None if isinstance(backend, str) and backend == "auto"
                      else backend if isinstance(backend, Backend)
                      else self.registry.get(backend))
            plan = self._point_plan(template, observable, chosen,
                                    include_idle)
            if plan.program is not None:
                resolved = chosen
                if plan.route is not None and \
                        plan.route(values) == "statevector":
                    resolved = self.registry.get("statevector")
        if resolved is None:
            return self.evaluate_observable(
                template.bind_parameters(values), observable,
                noise_model=noise_model, backend=backend,
                include_idle=include_idle,
                use_cache=use_cache, policy=policy)[0]
        use_cache = self.use_cache if use_cache is None else use_cache
        count_grouped_tasks(self, 1)
        # The bound circuit's per-term keys, as run_grouped's slot builds
        # them: same keys, stats and cache fill.
        fingerprint = template.bound_fingerprint(values)
        name = resolved.name
        keys = [(fingerprint, term, None, name, include_idle)
                for term in plan.terms]
        row = (self.cache.get_many(keys) if use_cache
               else [None] * len(keys))
        missing = [index for index, value in enumerate(row) if value is None]
        if len(missing) < len(row):
            with self._lock:
                self.stats.term_cache_hits += len(row) - len(missing)
        if missing:
            view = plan.view
            x_bits, z_bits = view.x_bits, view.z_bits
            if len(missing) < len(row):
                x_bits, z_bits = x_bits[missing], z_bits[missing]
            resolved._count_invocations()
            state = plan.program.point_program(values).run_statevector()
            fresh = statevector_term_expectations(state, x_bits,
                                                  z_bits).tolist()
            for index, value in zip(missing, fresh):
                row[index] = value
            count_backend_invocations(self, resolved, len(missing))
            if use_cache:
                self.cache.put_many([(keys[index], row[index])
                                     for index in missing])
        return float(np.dot(plan.view.coefficients, row))

    def _point_plan(self, template, observable, backend: Optional[Backend],
                    include_idle: bool) -> "_PointPlan":
        """The point plan of one (template, observable, backend,
        include_idle): kept in the program cache under the identities of
        the template (with its fingerprint, which an edit changes), of the
        observable's current term view and of the resolved backend (None
        for ``"auto"``); the plan holds each, so no identity is reused
        while it is kept."""
        view = observable.term_view()
        key = ("point-plan", id(template), template.fingerprint(), id(view),
               backend, include_idle)

        def build() -> _PointPlan:
            # The template task validates like every bound point's would.
            ExecutionTask(circuit=template, observable=observable,
                          include_idle=include_idle)
            program = route = None
            if not any(inst.name in ("measure", "reset", "barrier")
                       for inst in template):
                if backend is None:
                    route = point_router(template)
                if route is not None or self.compiled_sweep_engine(
                        backend) == "statevector":
                    with track_program_cache(self):
                        program = compile_circuit(template)
            return _PointPlan(template, view, backend, route, program)

        return cached_plan(key, build, _PointPlan.nbytes)

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

    def _sweep_kernel(self, engine: str, template, fingerprint: str,
                      observable, points):
        """``(shard function, head, block cap)`` of one compiled sweep
        engine over the sweep's uncached points; a chunk of points runs as
        ``shard(*head, chunk)``."""
        if engine == "pauli_propagation":
            from ..simulators.pauli_propagation import compile_clifford
            try:
                program = compile_clifford(template, fingerprint)
                program.quarter_turns(points)
            except ValueError as error:
                raise BackendCapabilityError(
                    f"backend 'pauli_propagation' cannot run this sweep: "
                    f"{error}") from error
            return _clifford_sweep_shard, (program, observable), 64
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
                _SWEEP_BATCH_AMPLITUDES // (8 << int(bare_template.num_qubits)))

    def _sweep_compiled(self, template, parameter_sets, observable,
                        backend: Backend, use_cache: bool,
                        policy: Optional[ExecutionPolicy] = None
                        ) -> List[float]:
        """One compiled batch over the uncached points of a noiseless sweep
        on ``backend``, whose name is the engine and whose ``invocations``
        count the unique points evaluated.

        Each point's energy is cached under one ``("sweep", template
        fingerprint, parameter tuple, observable fingerprint, engine)`` key —
        derived without binding a circuit, so a repeat query costs one
        dictionary lookup per point; ``term_cache_hits`` still counts the
        terms a hit point covers.  Identical uncached points share one
        evaluation (counted as ``dedup_hits``).  Process sweeps run their
        uncached points in fixed-size **point blocks** whose size depends
        only on the engine, the qubit count and the unique-point count —
        never on the worker count — so a sweep submits byte-identical shard
        payloads at every worker count, and fine-grained blocks let pool
        workers load-balance.  Each block's energies flush through the
        cache **as the block lands**, so a killed multi-worker sweep
        resumes warm: already-flushed points are served
        from cache and recompute nothing.  An inline sweep runs the same
        shard function over all its points as one compiled batch.
        """
        engine = backend.name
        num_points = len(parameter_sets)
        count_grouped_tasks(self, num_points)
        point_keys = [tuple(values) for values in parameter_sets]
        observable_key = observable_fingerprint(observable)
        with track_program_cache(self):
            template_fingerprint = template.fingerprint()

            def cache_key(point_key: Tuple) -> Tuple:
                return ("sweep", template_fingerprint, point_key,
                        observable_key, engine)

            point_energies: List[Optional[float]] = (
                self.cache.get_many([cache_key(point_key)
                                     for point_key in point_keys])
                if use_cache else [None] * num_points)
            missing = [index for index, energy in enumerate(point_energies)
                       if energy is None]
            with self._lock:
                self.stats.term_cache_hits += \
                    (num_points - len(missing)) * observable.num_terms
            if missing:
                # In-batch dedup: identical sweep points share one evolution.
                points = [list(point) for point in dict.fromkeys(
                    point_keys[index] for index in missing)]
                shard, head, block_cap = self._sweep_kernel(
                    engine, template, template_fingerprint, observable,
                    points)
                effective, plan = self._plan(policy, len(points))

                landed: Dict[Tuple, float] = {}

                def flush_block(block: list, block_values) -> None:
                    keys = [tuple(point) for point in block]
                    values = energies(observable, block_values)
                    landed.update(zip(keys, values))
                    if use_cache:
                        self.cache.put_many(
                            (cache_key(key), value)
                            for key, value in zip(keys, values))

                # Each landed block checkpoints through the cache; the /16
                # keeps ~16 blocks on big sweeps, so pool workers can
                # load-balance and checkpoints stay fine-grained.
                fan_out(self, effective, plan,
                        [ShardGroup(shard, head, points)],
                        block=max(1, min(64, block_cap,
                                         -(-len(points) // 16))),
                        on_result=flush_block)
                for index in missing:
                    point_energies[index] = landed[point_keys[index]]
                # No shard sees the backend: count its evolutions here.
                backend._count_invocations(len(points))
                with self._lock:
                    counters = self.stats.backend_invocations
                    counters[engine] = counters.get(engine, 0) + len(points)
                    self.stats.dedup_hits += len(missing) - len(points)
        return point_energies

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Retire the worker-process pool.

        Long-running hosts (the :mod:`repro.service` job server) need a
        clean lifecycle: before this method the persistent
        ``ProcessPoolExecutor`` only died with the interpreter.  ``wait=True``
        lets in-flight shard payloads finish; ``wait=False`` abandons them.

        Shutdown is idempotent and deliberately non-poisoning: the pool is
        process-global (shared by every executor), so a later dispatch from
        any executor lazily recreates it.  Executors support the context
        manager protocol — ``with Executor() as executor: ...`` shuts down
        on exit.
        """
        from .sharding import shutdown_process_pool
        shutdown_process_pool(wait=wait)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # -- introspection -------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

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
            use_cache: Optional[bool] = None,
            policy: Optional[ExecutionPolicy] = None) -> List[ExecutionResult]:
    """Run tasks through the shared default executor (see :class:`Executor`).

    This is the one call every consumer in the package dispatches through::

        results = execute([ExecutionTask(circuit, observable=hamiltonian)])
        energy = results[0].value

    ``policy=ExecutionPolicy(parallel="process")`` fans a CPU-bound batch
    out across worker processes (its ``max_workers``, or the
    ``REPRO_WORKERS`` environment override); results are identical to an
    inline run — see :mod:`repro.execution.sharding` for the determinism
    contract.
    """
    return default_executor().run(tasks, backend=backend,
                                  use_cache=use_cache, policy=policy)


def execute_one(task: ExecutionTask,
                backend: Union[str, Backend] = "auto",
                use_cache: Optional[bool] = None) -> ExecutionResult:
    """Convenience wrapper: run a single task and return its result."""
    return execute(task, backend=backend, use_cache=use_cache)[0]


def evaluate_observable(circuits, observable, *, noise_model=None,
                        backend: Union[str, Backend] = "auto",
                        include_idle: bool = True,
                        use_cache: Optional[bool] = None,
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
        include_idle=include_idle,
        use_cache=use_cache, policy=policy)


def evaluate_sweep(template, parameter_sets, observable, *, noise_model=None,
                   backend: Union[str, Backend] = "auto",
                   include_idle: bool = True,
                   use_cache: Optional[bool] = None,
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
        backend=backend, include_idle=include_idle,
        use_cache=use_cache, policy=policy)


def term_expectations(circuit, observable, *, noise_model=None,
                      backend: Union[str, Backend] = "auto",
                      include_idle: bool = True,
                      use_cache: Optional[bool] = None,
                      policy: Optional[ExecutionPolicy] = None
                      ) -> "np.ndarray":
    """Per-term ⟨P_i⟩ from one evolution, via the shared default executor.

    See :meth:`Executor.term_expectations`; values align with
    ``observable.terms()`` and exclude the coefficients.
    """
    return default_executor().term_expectations(
        circuit, observable, noise_model=noise_model, backend=backend,
        include_idle=include_idle,
        use_cache=use_cache, policy=policy)
