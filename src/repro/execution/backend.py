"""The backend protocol every execution path implements.

A backend is a batch-oriented wrapper around one simulation engine: it
advertises what it can run through :meth:`Backend.capabilities` and turns a
list of :class:`~repro.execution.task.ExecutionTask` objects into a list of
:class:`~repro.execution.task.ExecutionResult` objects through
:meth:`Backend.run_batch`.  The executor never talks to a simulator directly —
adding a new execution path (a remote service, a GPU engine) means
implementing this interface and registering it.  A backend says nothing
about fan-out: every backend's batches run inline unless the caller's
:class:`~repro.execution.policy.ExecutionPolicy` asks for
``parallel="process"``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from .errors import BackendCapabilityError
from .task import ExecutionResult, ExecutionTask


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can run, used by routing and validation.

    ``max_qubits`` is an advisory ceiling (dense simulators blow up past it).
    Expectation values are assumed to be pure functions of the task: the
    executor caches and deduplicates them on the task's content key, with
    the backend name standing for the backend.
    """

    name: str
    description: str = ""
    supports_noise: bool = True
    supports_expectation: bool = True
    supports_sampling: bool = True
    clifford_only: bool = False
    max_qubits: Optional[int] = None


class Backend(abc.ABC):
    """Abstract execution backend with batch submission and task validation."""

    #: :mod:`repro.obs` instance counters: a process shard's movement of
    #: them comes home through the fan-out (:func:`repro.obs.absorb_instances`).
    obs_counters = ("invocations",)

    def __init__(self):
        self.invocations = 0

    def _count_invocations(self, count: int = 1) -> None:
        obs.bump(self, "invocations", count)

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend supports."""

    @abc.abstractmethod
    def _run_task(self, task: ExecutionTask):
        """Execute one validated task; returns the expectation value (float)
        for expectation tasks or the counts histogram (dict) for sampling
        tasks."""

    @property
    def name(self) -> str:
        return self.capabilities().name

    # -- validation ----------------------------------------------------------
    def unsupported_reason(self, task: ExecutionTask, *,
                           enforce_qubit_limit: bool = True) -> Optional[str]:
        """Why this backend cannot run ``task``, or None when it can.

        ``max_qubits`` is advisory: auto-routing honours it
        (``enforce_qubit_limit=True``), but a caller who names this backend
        explicitly may exceed it and accept the memory/time cost
        (``enforce_qubit_limit=False``) — matching the behaviour of calling
        the underlying simulator directly.
        """
        caps = self.capabilities()
        if task.is_expectation and not caps.supports_expectation:
            return f"backend {caps.name!r} cannot compute expectation values"
        if task.is_sampling and not caps.supports_sampling:
            return f"backend {caps.name!r} cannot sample measurement outcomes"
        if task.has_noise and not caps.supports_noise:
            return f"backend {caps.name!r} is noiseless-only"
        if caps.clifford_only and not task.is_clifford():
            return (f"backend {caps.name!r} only runs Clifford circuits "
                    f"(rotations at multiples of pi/2)")
        if enforce_qubit_limit and caps.max_qubits is not None \
                and task.num_qubits > caps.max_qubits:
            return (f"backend {caps.name!r} is limited to {caps.max_qubits} "
                    f"qubits; task has {task.num_qubits}")
        return None

    def supports(self, task: ExecutionTask) -> bool:
        return self.unsupported_reason(task) is None

    # -- execution -----------------------------------------------------------
    def run_batch(self, tasks: Sequence[ExecutionTask]) -> List[ExecutionResult]:
        """Execute every task, in order; raises on the first unsupported one."""
        results: List[ExecutionResult] = []
        for task in tasks:
            # Calling run_batch is an explicit backend choice, so the
            # advisory qubit ceiling is not enforced here.
            reason = self.unsupported_reason(task, enforce_qubit_limit=False)
            if reason is not None:
                raise BackendCapabilityError(f"{reason} (task: {task!r})")
            start = time.perf_counter()
            payload = self._run_task(task)
            self._count_invocations()
            results.append(ExecutionResult(
                task=task, backend_name=self.name,
                value=float(payload) if task.is_expectation else None,
                counts=payload if task.is_sampling else None,
                source="backend", elapsed=time.perf_counter() - start))
        return results

    # -- grouped observables ---------------------------------------------------
    def term_expectations(self, task: ExecutionTask):
        """Per-term ⟨P_i⟩ of the task's observable, aligned with
        ``task.observable.terms()`` (coefficients are **not** applied).

        This is the grouped-observable entry point: adapters override it to
        evolve the circuit **once** and read every term off the final state
        (vectorized kernels on the dense simulators, one propagation pass
        for Pauli propagation).  The base implementation is the correctness fallback
        for custom backends — it runs one single-term task per term, which
        is exactly the per-term cost the overrides avoid.
        """
        reason = self.unsupported_reason(task, enforce_qubit_limit=False)
        if reason is not None:
            raise BackendCapabilityError(f"{reason} (task: {task!r})")
        if not task.is_expectation:
            raise BackendCapabilityError(
                "term_expectations requires an expectation task")
        values = [float(self._run_task(subtask))
                  for subtask in task.split_terms()]
        self._count_invocations(len(values))
        return np.asarray(values)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"
