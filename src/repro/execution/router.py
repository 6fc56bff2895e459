"""Regime-aware routing of tasks onto backends.

Mirrors the paper's evaluation methodology (Sec. 5.2): Clifford
("stabilizer-proxy") circuits go to the stabilizer tableau when noiseless and
to exact Pauli propagation when noisy; small noisy non-Clifford circuits go
to the dense density-matrix simulator; everything noiseless and non-Clifford
goes to the statevector reference.  Routing never picks a backend that
rejects the task — when nothing fits, a :class:`RoutingError` explains why.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..circuits.gates import is_clifford_at
from ..circuits.parameters import evaluate_form
from .adapters import MAX_DENSITY_MATRIX_QUBITS, MAX_STATEVECTOR_QUBITS
from .errors import RoutingError
from .registry import BackendRegistry, DEFAULT_REGISTRY
from .task import ExecutionTask


def route_task(task: ExecutionTask,
               registry: Optional[BackendRegistry] = None) -> str:
    """Canonical name of the backend an ``"auto"`` dispatch should use.

    A task-level ``task.backend`` override short-circuits the decision (it is
    resolved against the registry but otherwise trusted).
    """
    registry = registry or DEFAULT_REGISTRY
    if task.backend is not None:
        return registry.canonical_name(task.backend)

    clifford = task.is_clifford()
    noisy = task.has_noise

    if task.is_sampling:
        if clifford and (noisy or task.num_qubits > MAX_STATEVECTOR_QUBITS):
            return "stabilizer"
        if not noisy:
            if task.num_qubits > MAX_STATEVECTOR_QUBITS:
                raise RoutingError(
                    f"no backend can sample a noiseless non-Clifford "
                    f"{task.num_qubits}-qubit circuit (statevector tops out "
                    f"at {MAX_STATEVECTOR_QUBITS} qubits)")
            return "statevector"
        if task.num_qubits <= MAX_DENSITY_MATRIX_QUBITS:
            return "density_matrix"
        raise RoutingError(
            f"no backend can sample a noisy non-Clifford "
            f"{task.num_qubits}-qubit circuit (density matrix tops out at "
            f"{MAX_DENSITY_MATRIX_QUBITS} qubits)")

    return _route_expectation(clifford, noisy, task.num_qubits)


def _route_expectation(clifford: bool, noisy: bool, num_qubits: int) -> str:
    """Backend name for an expectation-value task of this regime."""
    if clifford:
        # Noisy Clifford work is exactly what Pauli propagation solves
        # deterministically; noiseless Clifford states are exact on the
        # tableau at any size.
        return "pauli_propagation" if noisy else "stabilizer"
    if not noisy:
        if num_qubits > MAX_STATEVECTOR_QUBITS:
            raise RoutingError(
                f"no backend can evaluate a noiseless non-Clifford "
                f"{num_qubits}-qubit circuit exactly; restrict the "
                f"circuit to Clifford angles or reduce it below "
                f"{MAX_STATEVECTOR_QUBITS} qubits")
        return "statevector"
    if num_qubits <= MAX_DENSITY_MATRIX_QUBITS:
        return "density_matrix"
    raise RoutingError(
        f"no backend can evaluate a noisy non-Clifford {num_qubits}-"
        f"qubit circuit: density matrix tops out at "
        f"{MAX_DENSITY_MATRIX_QUBITS} qubits and the Clifford backends "
        f"require rotations at multiples of pi/2")


def route_sweep(template, parameter_sets: Sequence[Sequence[float]]
                ) -> Iterator[str]:
    """:func:`route_task`'s verdict on each bound point of a noiseless
    expectation sweep, read off the template without binding a circuit.

    A bound point is Clifford exactly when every unitary is Clifford at its
    bound angle: static gates are checked once, and each parametric slot per
    point with :func:`~repro.circuits.gates.is_clifford_at` on the angles
    :meth:`~repro.circuits.circuit.QuantumCircuit.bind_parameters` would
    give it.  Verdicts are yielded lazily, point by point, so a
    :class:`RoutingError` surfaces where the bound tasks' would.
    """
    slots = [(template[index].name, forms)
             for index, forms in template.parametric_slots()]
    static_clifford = all(inst.gate.is_clifford for inst in template
                          if inst.gate.is_unitary
                          and not inst.gate.is_parameterized)
    for values in parameter_sets:
        clifford = static_clifford and all(
            is_clifford_at(name, [evaluate_form(form, values)
                                  for form in forms])
            for name, forms in slots)
        yield _route_expectation(clifford, False, template.num_qubits)
