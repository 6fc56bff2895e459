"""Gate definitions and unitary matrices.

The gate set follows the paper's needs:

* Clifford gates: I, X, Y, Z, H, S, Sdg, SX, CX, CZ, SWAP — error-corrected in
  the pQEC regime.
* Non-Clifford gates: T, Tdg and the continuous rotations RX, RY, RZ, RZZ —
  the rotations are the gates implemented by magic-state injection in pQEC, or
  Gridsynth-decomposed into Clifford+T in ``qec-conventional``.
* ``measure`` and ``reset`` pseudo-gates consumed by the simulators.

Each gate knows its matrix, arity, whether it is Clifford (for a given angle,
in the case of rotations), and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .parameters import ParameterExpression

# --------------------------------------------------------------------------
# Static matrices
# --------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_MATRIX = np.array([[1, 0], [0, -1j]], dtype=complex)
T_MATRIX = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG_MATRIX = np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

# Multi-qubit matrices follow the little-endian convention used throughout the
# simulators: for a gate applied to ``qubits = (q0, q1, ...)``, q0 is the
# *least-significant* bit of the matrix index.  For CX, qubits[0] is the
# control and qubits[1] the target, hence the control is index bit 0.
CX_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]], dtype=complex)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

PAULI_MATRICES = {"I": I2, "X": X_MATRIX, "Y": Y_MATRIX, "Z": Z_MATRIX}


def rx_matrix(theta: float) -> np.ndarray:
    """Unitary of a rotation about the X axis by ``theta``."""
    half = theta / 2.0
    return np.array(
        [[math.cos(half), -1j * math.sin(half)],
         [-1j * math.sin(half), math.cos(half)]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Unitary of a rotation about the Y axis by ``theta``."""
    half = theta / 2.0
    return np.array(
        [[math.cos(half), -math.sin(half)],
         [math.sin(half), math.cos(half)]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """Unitary of a rotation about the Z axis by ``theta``."""
    half = theta / 2.0
    return np.array(
        [[np.exp(-1j * half), 0],
         [0, np.exp(1j * half)]], dtype=complex)


def rzz_matrix(theta: float) -> np.ndarray:
    """Unitary of exp(-i θ/2 Z⊗Z)."""
    half = theta / 2.0
    phase = np.exp(-1j * half)
    conj = np.exp(1j * half)
    return np.diag([phase, conj, conj, phase]).astype(complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary U3(θ, φ, λ)."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [[cos, -np.exp(1j * lam) * sin],
         [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos]],
        dtype=complex)


# --------------------------------------------------------------------------
# Gate metadata
# --------------------------------------------------------------------------

#: Gates that are Clifford for every parameter value (or have no parameter).
CLIFFORD_GATE_NAMES = frozenset(
    {"i", "id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cnot",
     "cz", "swap"})

#: Single-qubit gate names.
ONE_QUBIT_GATE_NAMES = frozenset(
    {"i", "id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "t", "tdg",
     "rx", "ry", "rz", "u3"})

#: Two-qubit gate names.
TWO_QUBIT_GATE_NAMES = frozenset({"cx", "cnot", "cz", "swap", "rzz"})

#: Non-unitary pseudo operations.
NON_UNITARY_NAMES = frozenset({"measure", "reset", "barrier"})

#: Parametric gate names and their parameter counts.
PARAMETRIC_GATES = {"rx": 1, "ry": 1, "rz": 1, "rzz": 1, "u3": 3}

#: Gates whose unitary is diagonal in the computational basis.  The circuit
#: compiler (:mod:`repro.simulators.program`) applies these as elementwise
#: phase vectors instead of tensor contractions.
DIAGONAL_GATE_NAMES = frozenset(
    {"i", "id", "z", "s", "sdg", "t", "tdg", "rz", "cz", "rzz"})


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A read-only copy, safe to hand out from a cache without re-copying."""
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


_STATIC_MATRICES = {name: _frozen(matrix) for name, matrix in {
    "i": I2, "id": I2,
    "x": X_MATRIX, "y": Y_MATRIX, "z": Z_MATRIX,
    "h": H_MATRIX, "s": S_MATRIX, "sdg": SDG_MATRIX,
    "sx": SX_MATRIX, "sxdg": SX_MATRIX.conj().T,
    "t": T_MATRIX, "tdg": TDG_MATRIX,
    "cx": CX_MATRIX, "cnot": CX_MATRIX,
    "cz": CZ_MATRIX, "swap": SWAP_MATRIX,
}.items()}

_PARAMETRIC_MATRIX_BUILDERS = {
    "rx": lambda params: rx_matrix(params[0]),
    "ry": lambda params: ry_matrix(params[0]),
    "rz": lambda params: rz_matrix(params[0]),
    "rzz": lambda params: rzz_matrix(params[0]),
    "u3": lambda params: u3_matrix(*params),
}


def parametric_matrix(name: str, params: tuple) -> np.ndarray:
    """Memoized read-only unitary of a parametric gate at bound angles.

    Optimizer loops re-evaluate the same angles constantly (repeated COBYLA
    queries, SPSA ± pairs at shared base points, Clifford angles k·π/2), so
    rebuilding trig matrices per call is measurable on the simulation hot
    path.  The returned array is shared and read-only — copy before mutating.
    """
    # 0.0 == -0.0 under one hash, so a point with a zero angle also keys
    # each angle's sign: the two zeros build matrices whose zero parts
    # differ in sign, and a bare-angle key would serve whichever was built
    # first.  Points without a zero angle key on the angles alone.
    signs = (tuple(math.copysign(1.0, value) for value in params)
             if 0.0 in params else None)
    return _parametric_matrix(name, params, signs)


@lru_cache(maxsize=4096)
def _parametric_matrix(name: str, params: tuple,
                       signs: Optional[tuple]) -> np.ndarray:
    builder = _PARAMETRIC_MATRIX_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"no matrix builder for gate {name!r}")
    matrix = builder(params)
    matrix.setflags(write=False)
    return matrix

_INVERSE_NAMES = {
    "i": "i", "id": "id", "x": "x", "y": "y", "z": "z", "h": "h",
    "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
    "sx": "sxdg", "sxdg": "sx",
    "cx": "cx", "cnot": "cnot", "cz": "cz", "swap": "swap",
}

#: Angle granularity at which a rotation becomes Clifford: multiples of π/2.
CLIFFORD_ANGLE_ATOL = 1e-9


def gate_arity(name: str) -> int:
    """Number of qubits a gate named ``name`` acts on."""
    lowered = name.lower()
    if lowered in ONE_QUBIT_GATE_NAMES or lowered in {"measure", "reset"}:
        return 1
    if lowered in TWO_QUBIT_GATE_NAMES:
        return 2
    if lowered == "barrier":
        return 0
    raise ValueError(f"unknown gate name: {name!r}")


def is_clifford_angle(theta: float, atol: float = CLIFFORD_ANGLE_ATOL) -> bool:
    """True when a rotation by ``theta`` about a Pauli axis is a Clifford gate.

    Rotations by integer multiples of π/2 map Paulis to Paulis and therefore
    lie in the Clifford group.  This predicate drives the Clifford-restricted
    ("stabilizer proxy") evaluation used for 16+ qubit experiments.
    """
    ratio = theta / (math.pi / 2.0)
    return abs(ratio - round(ratio)) <= atol


def is_clifford_at(name: str, angles: Sequence[float]) -> bool:
    """True when gate ``name`` with bound parameter values ``angles`` is a
    Clifford gate: a named Clifford, or rx/ry/rz/rzz at a multiple of π/2.
    Every other gate (T, u3, ...) is non-Clifford at every angle."""
    if name in CLIFFORD_GATE_NAMES:
        return True
    if name in {"rx", "ry", "rz", "rzz"}:
        return is_clifford_angle(float(angles[0]))
    return False


@dataclass(frozen=True)
class Gate:
    """An abstract gate: a name plus parameter values (possibly symbolic).

    A :class:`Gate` does not carry qubit indices; an
    :class:`~repro.circuits.circuit.Instruction` binds a gate to qubits.
    """

    name: str
    params: tuple = ()

    def __post_init__(self):
        lowered = self.name.lower()
        object.__setattr__(self, "name", lowered)
        expected = PARAMETRIC_GATES.get(lowered, 0)
        if lowered in NON_UNITARY_NAMES:
            expected = len(self.params)
        if len(self.params) != expected:
            raise ValueError(
                f"gate {lowered!r} expects {expected} parameter(s), "
                f"got {len(self.params)}")
        object.__setattr__(self, "params", tuple(self.params))

    # -- classification ----------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return gate_arity(self.name)

    @property
    def is_parametric(self) -> bool:
        return self.name in PARAMETRIC_GATES

    @property
    def is_parameterized(self) -> bool:
        """True if any parameter is still a free symbolic expression."""
        return any(isinstance(p, ParameterExpression) and not p.is_bound
                   for p in self.params)

    @property
    def is_unitary(self) -> bool:
        return self.name not in NON_UNITARY_NAMES

    @property
    def is_clifford(self) -> bool:
        """True when the gate (at its bound parameter values) is Clifford."""
        return (not self.is_parameterized
                and is_clifford_at(self.name, self.params))

    @property
    def is_rotation(self) -> bool:
        return self.name in {"rx", "ry", "rz", "rzz", "u3"}

    # -- numerics ------------------------------------------------------------
    def bound_params(self) -> tuple[float, ...]:
        """Parameter values as floats; raises if any parameter is unbound."""
        values = []
        for param in self.params:
            if isinstance(param, ParameterExpression):
                values.append(float(param))
            else:
                values.append(float(param))
        return tuple(values)

    def matrix(self) -> np.ndarray:
        """The gate unitary as a dense numpy array.

        Returned arrays are cached and **read-only**: static gates share one
        frozen array per gate name, parametric gates are memoized per bound
        parameter tuple.  Callers that need to mutate must copy first.
        """
        if not self.is_unitary:
            raise ValueError(f"gate {self.name!r} has no unitary matrix")
        if self.name in _STATIC_MATRICES:
            return _STATIC_MATRICES[self.name]
        return parametric_matrix(self.name, self.bound_params())

    def inverse(self) -> "Gate":
        """The inverse gate."""
        if self.name in _INVERSE_NAMES:
            return Gate(_INVERSE_NAMES[self.name], ())
        if self.name in {"rx", "ry", "rz", "rzz"}:
            return Gate(self.name, (-self.params[0] if not isinstance(
                self.params[0], ParameterExpression) else -self.params[0],))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", (-theta, -lam, -phi))
        raise ValueError(f"cannot invert gate {self.name!r}")

    def bind(self, bindings: Mapping) -> "Gate":
        """Bind symbolic parameters, returning a new gate."""
        from .parameters import bind_value
        new_params = tuple(bind_value(p, bindings) for p in self.params)
        return Gate(self.name, new_params)

    def __repr__(self):
        if self.params:
            rendered = ", ".join(
                repr(p) if isinstance(p, ParameterExpression) else f"{p:g}"
                for p in self.params)
            return f"{self.name}({rendered})"
        return self.name


def controlled_on_matrix(target_matrix: np.ndarray) -> np.ndarray:
    """Two-qubit controlled-U matrix (control = qubits[0] = index bit 0).

    Follows the same little-endian convention as :data:`CX_MATRIX`: the
    control qubit is the least-significant index bit, so the U block sits on
    the odd-index rows/columns.
    """
    if target_matrix.shape != (2, 2):
        raise ValueError("controlled_on_matrix expects a 2x2 unitary")
    out = np.eye(4, dtype=complex)
    out[np.ix_([1, 3], [1, 3])] = target_matrix
    return out


def gate_fidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Average gate fidelity between two unitaries of the same dimension."""
    if actual.shape != target.shape:
        raise ValueError("unitaries must have identical shape")
    dim = actual.shape[0]
    overlap = abs(np.trace(target.conj().T @ actual)) ** 2
    return float((overlap / dim + 1.0) / (dim + 1.0))
