"""The grouped-observable expectation engine.

This is the single-evolution fast path behind
:meth:`repro.execution.executor.Executor.evaluate_observable` and
:meth:`~repro.execution.executor.Executor.term_expectations`.  Where the plain
``execute()`` pipeline treats an expectation task as one opaque number, this
engine works at *term* granularity:

1. **Slot formation** — tasks are grouped into slots by (backend, circuit
   fingerprint, noise model, backend options).  Every slot corresponds to at
   most one circuit evolution, no matter how many tasks or Hamiltonian terms
   land in it.
2. **Per-term cache lookup** — each slot's union of Pauli terms is probed in
   the expectation cache under per-(circuit, term) keys
   (:meth:`repro.execution.task.ExecutionTask.term_cache_key`), so a
   Hamiltonian that merely *overlaps* a previously evaluated one hits the
   cached terms and only the genuinely new ones are computed.
3. **Single evolution** — the missing terms are bundled into one synthetic
   observable and handed to :meth:`repro.execution.backend.Backend.term_expectations`,
   which evolves the circuit once and reads every term off the final state
   (vectorized bitmask kernels on the dense simulators, one propagation
   pass for Pauli propagation).
4. **Assembly** — per-task term values are gathered back in each task's own
   ``observable.terms()`` order; energies are ``Σ Re(c_i)·⟨P_i⟩``.

Slots that need an evolution fan out in one
:func:`~repro.execution.sharding.fan_out` dispatch under the executor's
:class:`~repro.execution.sharding.ShardPlanner` plan: CPU-bound simulator
slots shard across worker **processes**, thread-hinting custom backends use
a thread pool, and small batches run inline.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..operators.pauli import PauliString, PauliSum
from ..simulators.program import program_cache_counters
from .backend import Backend
from .errors import BackendCapabilityError, ExecutionError
from .sharding import ShardGroup, fan_out, _term_expectations_shard
from .task import ExecutionTask, noise_token

TermKey = Tuple[bytes, bytes]


@contextmanager
def track_program_cache(executor):
    """Attribute circuit-compilation activity to an executor's stats.

    The program cache (:mod:`repro.simulators.program`) is process-wide; this
    samples its counters around a dispatch phase and adds the deltas to the
    executor's ``programs_compiled`` / ``program_cache_hits`` stats.  A
    process shard's compiles and hits land in those counters when
    :func:`~.sharding.fan_out` folds its result home, so a dispatch inside
    this window is attributed whole, wherever its shards ran.
    Concurrent executors may attribute each other's compiles — the counters
    are throughput telemetry, not an exact ledger.
    """
    compiled_before, hits_before = program_cache_counters()
    try:
        yield
    finally:
        compiled_after, hits_after = program_cache_counters()
        with executor._lock:
            executor.stats.programs_compiled += compiled_after - compiled_before
            executor.stats.program_cache_hits += hits_after - hits_before


def pauli_from_key(num_qubits: int, key: TermKey) -> PauliString:
    """Reconstruct the bare Pauli string identified by a symplectic key."""
    x_bits = np.frombuffer(key[0], dtype=np.uint8)
    z_bits = np.frombuffer(key[1], dtype=np.uint8)
    if len(x_bits) != num_qubits:
        raise ExecutionError(
            f"term key covers {len(x_bits)} qubits, expected {num_qubits}")
    return PauliString(x_bits, z_bits)


class _Slot:
    """All tasks that share one circuit evolution on one backend."""

    __slots__ = ("task", "backend", "fingerprint", "task_indices",
                 "term_keys", "values", "_cache_keys")

    def __init__(self, task: ExecutionTask, backend: Backend,
                 fingerprint: str):
        self.task = task
        self.backend = backend
        # Hash the circuit once per slot; term keys reuse it.
        self.fingerprint = fingerprint
        self.task_indices: List[int] = []
        # Ordered union of the member tasks' term keys.
        self.term_keys: Dict[TermKey, None] = {}
        self.values: Dict[TermKey, float] = {}
        # Each term's expectation-cache key, built once for probe and record.
        self._cache_keys: Dict[TermKey, Tuple] = {}

    def absorb(self, index: int, task: ExecutionTask) -> None:
        self.task_indices.append(index)
        for pauli, _ in task.observable.terms():
            self.term_keys.setdefault(pauli.key(), None)

    def missing_keys(self) -> List[TermKey]:
        return [key for key in self.term_keys if key not in self.values]

    def cache_keys(self, keys: Sequence[TermKey]) -> List[Tuple]:
        built = self._cache_keys
        backend_name = None
        for key in keys:
            if key not in built:
                # A backend's name is read off a fresh capabilities record.
                backend_name = backend_name or self.backend.name
                built[key] = self.task.term_cache_key(
                    backend_name, key, circuit_fingerprint=self.fingerprint)
        return [built[key] for key in keys]

    def probe(self, executor, use_cache: bool) -> List[TermKey]:
        """Fill this slot's cached term values; return the missing keys."""
        if use_cache:
            keys = list(self.term_keys)
            hits = 0
            for key, value in zip(keys, executor.cache.get_many(
                    self.cache_keys(keys))):
                if value is not None:
                    self.values[key] = value
                    hits += 1
            if hits:
                with executor._lock:
                    executor.stats.term_cache_hits += hits
        return self.missing_keys()

    def record(self, executor, missing: Sequence[TermKey],
               values: np.ndarray, use_cache: bool) -> None:
        """Store freshly computed term values (+ stats and cache fill)."""
        for key, value in zip(missing, values):
            self.values[key] = float(value)
        # Adapters evolve once per call; a backend still on the base-class
        # term_expectations fallback spends one run per term instead.
        uses_fallback = (type(self.backend).term_expectations
                         is Backend.term_expectations)
        spent = len(missing) if uses_fallback else 1
        name = self.backend.name
        with executor._lock:
            counters = executor.stats.backend_invocations
            counters[name] = counters.get(name, 0) + spent
        if use_cache:
            executor.cache.put_many(list(zip(
                self.cache_keys(missing),
                (self.values[key] for key in missing))))

    def term_values(self, task: ExecutionTask) -> np.ndarray:
        """A member task's term values in its own ``observable.terms()``
        order."""
        return np.array([self.values[pauli.key()]
                         for pauli, _ in task.observable.terms()])

    def synthetic_task(self, keys: Sequence[TermKey]) -> ExecutionTask:
        """The task whose observable carries exactly the missing terms."""
        num_qubits = self.task.observable.num_qubits
        observable = PauliSum(num_qubits,
                              [(pauli_from_key(num_qubits, key), 1.0)
                               for key in keys])
        return dataclasses.replace(self.task, observable=observable)


def count_grouped_tasks(executor, count: int) -> None:
    """Book ``count`` tasks entering the grouped engine."""
    with executor._lock:
        executor.stats.tasks_submitted += count
        executor.stats.grouped_tasks += count


def energies(observable: PauliSum, rows) -> List[float]:
    """``Σ Re(c_i)·⟨P_i⟩`` for each row of term values (aligned with
    ``observable.terms()``): the one dot every grouped energy takes, per
    circuit, per sweep point and per template point."""
    coefficients = np.array([float(np.real(coeff))
                             for _, coeff in observable.terms()])
    return [float(np.dot(coefficients, values)) for values in rows]


def run_grouped(executor, tasks: Sequence[ExecutionTask],
                backend: Union[str, Backend] = "auto",
                use_cache: Optional[bool] = None,
                policy=None) -> List[np.ndarray]:
    """Per-term expectation values for every task, one evolution per slot.

    Returns one float array per input task, aligned with that task's
    ``observable.terms()`` order (coefficients are not applied).  ``executor``
    supplies backend resolution, the expectation cache, the shard planner
    and the stats block.
    """
    tasks = list(tasks)
    for task in tasks:
        if not isinstance(task, ExecutionTask):
            raise ExecutionError(
                f"grouped evaluation expects ExecutionTask objects, got "
                f"{type(task).__name__}")
        if not task.is_expectation:
            raise ExecutionError(
                "grouped evaluation only handles expectation tasks")
    use_cache = executor.use_cache if use_cache is None else use_cache
    count_grouped_tasks(executor, len(tasks))
    if not tasks:
        return []

    # 1. Slot formation: one slot per (backend, circuit, noise, options).
    slots: Dict[Tuple, _Slot] = {}
    slot_of_task: List[_Slot] = []
    for index, task in enumerate(tasks):
        resolved, explicit = executor._resolve_backend(task, backend)
        reason = resolved.unsupported_reason(
            task, enforce_qubit_limit=not explicit)
        if reason is not None:
            raise BackendCapabilityError(f"{reason} (task: {task!r})")
        fingerprint = task.circuit.fingerprint()
        key = (id(resolved), fingerprint, noise_token(task.noise_model),
               task.include_idle)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot(task, resolved, fingerprint)
        slot.absorb(index, task)
        slot_of_task.append(slot)

    # 2. Per-term cache lookup.
    pending: List[Tuple[_Slot, List[TermKey]]] = []
    for slot in slots.values():
        missing = slot.probe(executor, use_cache)
        if missing:
            pending.append((slot, missing))

    # 3. Evolve each slot with missing terms exactly once.
    hints = {slot.backend.capabilities().parallel_hint
             for slot, _ in pending}
    effective, plan = executor._plan(policy, len(pending),
                                     hints=sorted(hints))
    with track_program_cache(executor):
        _evolve(executor, pending, plan, effective, use_cache)

    # 4. Assemble per-task value arrays in each task's own term order.
    return [slot.term_values(task)
            for task, slot in zip(tasks, slot_of_task)]


def _evolve(executor, pending, plan, policy, use_cache: bool) -> None:
    """Evolve the pending slots in one :func:`fan_out` dispatch: slots are
    grouped per backend and their synthetic tasks fan out as contiguous
    chunks, one ``term_expectations`` call per slot."""
    by_backend: Dict[int, Tuple[Backend, list]] = {}
    for slot, missing in pending:
        by_backend.setdefault(id(slot.backend), (slot.backend, []))[1] \
            .append((slot, missing, slot.synthetic_task(missing)))
    groups = [ShardGroup(_term_expectations_shard, (backend,),
                         [synthetic for _, _, synthetic in entries])
              for backend, entries in by_backend.values()]
    run = fan_out(executor, policy, plan, groups)
    for (_, entries), chunk_values in zip(by_backend.values(), run.values):
        rows = [row for chunk in chunk_values for row in chunk]
        for (slot, missing, _), row in zip(entries, rows):
            slot.record(executor, missing, row, use_cache)
