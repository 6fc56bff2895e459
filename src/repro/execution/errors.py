"""Exception hierarchy for the execution layer."""

from __future__ import annotations


class ExecutionError(RuntimeError):
    """Base class for failures in the :mod:`repro.execution` layer."""


class UnknownBackendError(ExecutionError, KeyError):
    """A backend name was requested that the registry does not know."""

    def __init__(self, name: str, available):
        self.backend_name = name
        self.available = tuple(sorted(available))
        super().__init__(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(self.available) or '(none)'}")

    def __str__(self) -> str:  # KeyError quotes its payload; keep the message
        return self.args[0]


class BackendCapabilityError(ExecutionError):
    """A task was dispatched to a backend that cannot run it."""


class SweepShapeError(ExecutionError, ValueError):
    """A sweep point's length differs from the template's parameter count.

    Also a ``ValueError``, like binding a wrong-length parameter list with
    :meth:`~repro.circuits.circuit.QuantumCircuit.bind_parameters`.
    """


class RoutingError(ExecutionError):
    """Auto-routing could not find a backend able to run a task."""


class TransientFault(ExecutionError):
    """A retryable, non-deterministic failure inside a shard or job.

    Raised by the fault-injection harness (:mod:`repro.execution.faults`)
    and available to custom backends/jobs that want a failure class the
    shard supervisor treats as retryable rather than fatal: the supervisor
    retries the affected shard with backoff, while any other exception
    type propagates immediately (a deterministic bug would fail the retry
    identically, so retrying it only wastes the budget).
    """
