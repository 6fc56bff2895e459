"""Auto-routed parameter sweeps decide their engine from the template.

``Executor.evaluate_sweep(..., backend="auto")`` asks
:func:`repro.execution.router.route_sweep` which backend each point would
route to, without binding a circuit.  These differential tests hold that
verdict to :func:`~repro.execution.router.route_task` on the bound circuit,
point by point, over random templates mixing static T gates, rotations at
Clifford and non-Clifford angles and affine parameter expressions; they
check that sweeps with a Clifford point still take the bound-circuit path
with identical values, that all-statevector sweeps bind nothing, and that
the >24-qubit :class:`RoutingError` is unchanged.
"""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.execution import Executor, ExecutionTask
from repro.execution.adapters import MAX_STATEVECTOR_QUBITS
from repro.execution.errors import ExecutionError, RoutingError
from repro.execution.router import route_sweep, route_task
from repro.operators import ising_hamiltonian

_ROTATIONS = ("rx", "ry", "rz", "rzz")


def _angle(rng, clifford):
    quarter = int(rng.integers(-4, 5)) * math.pi / 2
    return quarter if clifford else quarter + float(rng.uniform(0.1, 1.4))


def random_template(rng, num_qubits=3, depth=14, with_t=True, with_u3=False):
    """Static gates (T optional), static rotations at Clifford and
    non-Clifford angles, and parametric rotations whose angles are affine
    expressions over reused parameters (``2θ+π/2``, ``-θ``, ``θ-φ``)."""
    params = [Parameter(f"p{i}") for i in range(3)]

    def expression():
        a, b = rng.choice(len(params), size=2, replace=False)
        theta, phi = params[a], params[b]
        return [theta, 2 * theta + math.pi / 2, -theta, theta - phi,
                0.5 * theta + phi - math.pi][int(rng.integers(5))]

    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        choice = int(rng.integers(8 if with_u3 else 7))
        qubit = int(rng.integers(num_qubits))
        other = (qubit + 1 + int(rng.integers(num_qubits - 1))) % num_qubits
        if choice == 0:
            circuit.h(qubit).cx(qubit, other)
        elif choice == 1:
            if with_t:
                circuit.t(qubit)
            else:
                circuit.s(qubit)
        elif choice == 2:
            name = _ROTATIONS[int(rng.integers(4))]
            angle = _angle(rng, clifford=bool(rng.integers(2)) or not with_t)
            if name == "rzz":
                circuit.rzz(angle, qubit, other)
            else:
                getattr(circuit, name)(angle, qubit)
        elif choice == 7:
            circuit.u3(expression(), 0.2, 0.4, qubit)
        else:
            name = _ROTATIONS[int(rng.integers(4))]
            if name == "rzz":
                circuit.rzz(expression(), qubit, other)
            else:
                getattr(circuit, name)(expression(), qubit)
    for param in params:  # every parameter appears somewhere
        circuit.rz(param, int(rng.integers(num_qubits)))
    return circuit


def random_points(rng, template, count=6):
    """Points on the Clifford lattice (k·π/4 turns some affine forms
    Clifford and others not) mixed with generic angles."""
    size = len(template.ordered_parameters())
    points = []
    for _ in range(count):
        kind = int(rng.integers(3))
        if kind == 0:
            point = rng.integers(-4, 5, size) * math.pi / 2
        elif kind == 1:
            point = rng.integers(-8, 9, size) * math.pi / 4
        else:
            point = rng.uniform(-math.pi, math.pi, size)
        points.append([float(value) for value in point])
    return points


@pytest.mark.parametrize("seed", range(40))
def test_template_verdict_matches_route_task_on_every_point(seed):
    rng = np.random.default_rng(seed)
    template = random_template(rng, with_t=seed % 3 != 0,
                               with_u3=seed % 5 == 0)
    points = random_points(rng, template)
    observable = ising_hamiltonian(template.num_qubits)
    expected = [route_task(ExecutionTask(
        circuit=template.bind_parameters(point), observable=observable))
        for point in points]
    assert list(route_sweep(template, points)) == expected


def test_lattice_points_cover_both_verdicts():
    # The random family above must exercise Clifford and non-Clifford
    # points, or the differential test proves little.
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        template = random_template(rng, with_t=seed % 3 != 0,
                                   with_u3=seed % 5 == 0)
        seen.update(route_sweep(template, random_points(rng, template)))
    assert seen == {"pauli_propagation", "statevector"}


def test_parametric_u3_is_non_clifford_at_every_angle():
    theta = Parameter("theta")
    template = QuantumCircuit(2)
    template.h(0).u3(theta, 0.0, 0.0, 0).cx(0, 1).rz(theta, 1)
    points = [[0.0], [math.pi / 2], [0.3]]
    observable = ising_hamiltonian(2)
    assert list(route_sweep(template, points)) == [route_task(ExecutionTask(
        circuit=template.bind_parameters(point), observable=observable))
        for point in points] == ["statevector"] * 3


class _BindCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = QuantumCircuit.bind_parameters

        def counting(circuit, bindings):
            self.calls += 1
            return original(circuit, bindings)

        monkeypatch.setattr(QuantumCircuit, "bind_parameters", counting)


def _clifford_free_template():
    """A template with no static non-Clifford gate, so the points decide."""
    theta, phi = Parameter("theta"), Parameter("phi")
    circuit = QuantumCircuit(3)
    circuit.h(0).rx(theta, 0).cx(0, 1).rz(2 * theta + math.pi / 2, 1)
    circuit.ry(phi, 2).rzz(theta - phi, 1, 2).h(2)
    return circuit


@pytest.mark.parametrize("points,engine", [
    ([[math.pi / 2, 0.0], [0.3, 1.1], [math.pi, -math.pi / 2]], "mixed"),
    ([[math.pi / 2, 0.0], [math.pi, -math.pi / 2]], "clifford"),
])
def test_clifford_points_take_the_bound_circuit_path(monkeypatch, points,
                                                     engine):
    template = _clifford_free_template()
    observable = ising_hamiltonian(3)
    reference = Executor().evaluate_observable(
        [template.bind_parameters(point) for point in points], observable,
        backend="auto")
    counter = _BindCounter(monkeypatch)
    executor = Executor()
    energies = executor.evaluate_sweep(template, points, observable,
                                       backend="auto")
    assert energies == reference
    assert counter.calls == len(points)
    invocations = executor.stats.backend_invocations
    assert invocations.get("pauli_propagation", 0) >= 1
    if engine == "clifford":
        assert "statevector" not in invocations


def test_statevector_sweep_binds_no_circuit(monkeypatch):
    template = _clifford_free_template()
    observable = ising_hamiltonian(3)
    points = [[0.3, 1.1], [-0.7, 2.9], [0.3, 1.1]]
    explicit = Executor().evaluate_sweep(template, points, observable,
                                         backend="statevector")
    counter = _BindCounter(monkeypatch)
    executor = Executor()
    energies = executor.evaluate_sweep(template, points, observable,
                                       backend="auto")
    assert counter.calls == 0
    assert energies == explicit
    assert executor.stats.backend_invocations == {"statevector": 2}
    assert executor.stats.dedup_hits == 1


def test_auto_sweep_validates_the_observable_width():
    template = _clifford_free_template()
    with pytest.raises(ExecutionError, match="observable acts on 4 qubits"):
        Executor().evaluate_sweep(template, [[0.3, 1.1]],
                                  ising_hamiltonian(4), backend="auto")


def _wide_template():
    theta = Parameter("theta")
    circuit = QuantumCircuit(MAX_STATEVECTOR_QUBITS + 1)
    circuit.h(0).rx(theta, 0).cx(0, 1)
    return circuit


def _bound_routing_error(template, point):
    with pytest.raises(RoutingError) as raised:
        route_task(ExecutionTask(
            circuit=template.bind_parameters(point),
            observable=ising_hamiltonian(template.num_qubits)))
    return str(raised.value)


@pytest.mark.parametrize("points", [
    [[0.3]],
    [[0.3], [math.pi / 2]],
    [[math.pi / 2], [0.3]],
])
def test_wide_non_clifford_points_raise_the_same_routing_error(points):
    template = _wide_template()
    expected = _bound_routing_error(template, [0.3])
    with pytest.raises(RoutingError) as raised:
        Executor().evaluate_sweep(template, points,
                                  ising_hamiltonian(template.num_qubits),
                                  backend="auto")
    assert str(raised.value) == expected


def test_wide_clifford_sweep_routes_to_pauli_propagation():
    template = _wide_template()
    observable = ising_hamiltonian(template.num_qubits)
    points = [[math.pi / 2], [math.pi]]
    assert list(route_sweep(template, points)) \
        == ["pauli_propagation"] * 2
    executor = Executor()
    energies = executor.evaluate_sweep(template, points, observable,
                                       backend="auto")
    reference = Executor().evaluate_observable(
        [template.bind_parameters(point) for point in points], observable,
        backend="pauli_propagation")
    assert energies == reference
