"""Regime-aware routing of tasks onto backends.

Mirrors the paper's evaluation methodology (Sec. 5.2): Clifford
("stabilizer-proxy") expectation values go to exact Pauli propagation, noisy
or not; small noisy non-Clifford circuits go to the dense density-matrix
simulator; everything noiseless and non-Clifford goes to the statevector
reference.  Sampling needs a state, so it goes to the statevector when
noiseless and to the density matrix when noisy, Clifford or not.  Routing
never picks a backend that rejects the task — when nothing fits, a
:class:`RoutingError` explains why.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

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

    noisy = task.has_noise
    if task.is_sampling:
        if not noisy:
            if task.num_qubits > MAX_STATEVECTOR_QUBITS:
                raise RoutingError(
                    f"no backend can sample a noiseless {task.num_qubits}-"
                    f"qubit circuit (statevector tops out at "
                    f"{MAX_STATEVECTOR_QUBITS} qubits)")
            return "statevector"
        if task.num_qubits <= MAX_DENSITY_MATRIX_QUBITS:
            return "density_matrix"
        raise RoutingError(
            f"no backend can sample a noisy {task.num_qubits}-qubit circuit "
            f"(density matrix tops out at {MAX_DENSITY_MATRIX_QUBITS} "
            f"qubits)")

    return _route_expectation(task.is_clifford(), noisy, task.num_qubits)


def _route_expectation(clifford: bool, noisy: bool, num_qubits: int) -> str:
    """Backend name for an expectation-value task of this regime."""
    if clifford:
        # Pauli propagation is exact for Clifford circuits under Pauli
        # noise, noiseless included, at any size.
        return "pauli_propagation"
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
        f"{MAX_DENSITY_MATRIX_QUBITS} qubits and Pauli propagation "
        f"requires rotations at multiples of pi/2")


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
    route = point_router(template)
    for values in parameter_sets:
        yield route(values)


def point_router(template) -> Callable[[Sequence[float]], str]:
    """:func:`route_sweep`'s verdict for one point, as a function of the
    point: the template's static-Clifford verdict and parametric slots are
    read once per template (memoized on it), not per router."""
    slots, static_clifford = template._memoized(
        "point_router", lambda: _router_facts(template))
    num_qubits = template.num_qubits

    def route(values: Sequence[float]) -> str:
        clifford = static_clifford and all(
            is_clifford_at(name, [evaluate_form(form, values)
                                  for form in forms])
            for name, forms in slots)
        return _route_expectation(clifford, False, num_qubits)

    return route


def _router_facts(template):
    """The parametric slots ``(gate name, forms)`` and the static-Clifford
    verdict of a template."""
    slots = [(template[index].name, forms)
             for index, forms in template.parametric_slots()]
    static_clifford = all(inst.gate.is_clifford for inst in template
                          if inst.gate.is_unitary
                          and not inst.gate.is_parameterized)
    return slots, static_clifford
