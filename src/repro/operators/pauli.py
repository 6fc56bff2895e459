"""Pauli-string algebra.

Hamiltonians in the paper's evaluation (Ising, Heisenberg, molecular) are sums
of Pauli strings.  This module provides

* :class:`PauliString` — an n-qubit Pauli operator stored in the symplectic
  (x-bits, z-bits) representation together with a phase from {±1, ±i};
* :class:`PauliSum` — a linear combination of Pauli strings (the Hamiltonian
  container), with arithmetic, matrix export, expectation values and
  qubit-wise-commuting grouping (used by measurement scheduling and VarSaw).

The symplectic representation is what the Pauli-propagation expectation
engine operates on, so conversions are essentially free.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from ..circuits.gates import PAULI_MATRICES

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_LABEL_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def _levi_civita_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i picked up when multiplying single-qubit Paulis (1)·(2)."""
    # Multiplication table for P1 * P2 expressed as i^k * P3 with
    # P3 = (x1^x2, z1^z2).  Values derived from the Pauli group relations.
    p1 = _XZ_TO_LABEL[(x1, z1)]
    p2 = _XZ_TO_LABEL[(x2, z2)]
    table = {
        ("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1,
        ("Y", "X"): 3, ("Z", "Y"): 3, ("X", "Z"): 3,
    }
    return table.get((p1, p2), 0)


class PauliString:
    """An n-qubit Pauli operator ``phase · P_{n-1} ⊗ … ⊗ P_0``.

    The label convention is *little-endian in qubit index but written
    left-to-right from qubit 0*: ``PauliString("XYZ")`` acts with X on qubit 0,
    Y on qubit 1 and Z on qubit 2.  This matches the circuit IR's qubit
    ordering and keeps Hamiltonian-building code readable.
    """

    __slots__ = ("_x", "_z", "_phase_power")

    def __init__(self, label_or_x, z: Optional[np.ndarray] = None,
                 phase_power: int = 0):
        if isinstance(label_or_x, str):
            label = label_or_x.upper()
            x_bits = np.zeros(len(label), dtype=np.uint8)
            z_bits = np.zeros(len(label), dtype=np.uint8)
            for index, char in enumerate(label):
                if char not in _LABEL_TO_XZ:
                    raise ValueError(f"invalid Pauli character {char!r} in {label!r}")
                x_bits[index], z_bits[index] = _LABEL_TO_XZ[char]
            self._x = x_bits
            self._z = z_bits
        else:
            self._x = np.asarray(label_or_x, dtype=np.uint8).copy()
            self._z = np.asarray(z, dtype=np.uint8).copy()
            if self._x.shape != self._z.shape:
                raise ValueError("x and z bit vectors must have equal length")
        self._phase_power = int(phase_power) % 4

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(np.zeros(num_qubits, dtype=np.uint8),
                   np.zeros(num_qubits, dtype=np.uint8))

    @classmethod
    def single(cls, num_qubits: int, qubit: int, pauli: str) -> "PauliString":
        """A single-qubit Pauli ``pauli`` on ``qubit`` padded with identities."""
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        chars = ["I"] * num_qubits
        chars[qubit] = pauli.upper()
        return cls("".join(chars))

    @classmethod
    def from_sparse(cls, num_qubits: int,
                    terms: Mapping[int, str]) -> "PauliString":
        """Build from a ``{qubit: pauli_char}`` mapping."""
        chars = ["I"] * num_qubits
        for qubit, char in terms.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range")
            chars[qubit] = char.upper()
        return cls("".join(chars))

    # -- properties -----------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self._x)

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def z(self) -> np.ndarray:
        return self._z

    @property
    def phase(self) -> complex:
        return _PHASES[self._phase_power]

    @property
    def phase_power(self) -> int:
        return self._phase_power

    @property
    def label(self) -> str:
        return "".join(_XZ_TO_LABEL[(int(xb), int(zb))]
                       for xb, zb in zip(self._x, self._z))

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return int(np.count_nonzero(self._x | self._z))

    def support(self) -> Tuple[int, ...]:
        """Qubits on which the operator acts non-trivially."""
        return tuple(int(q) for q in np.nonzero(self._x | self._z)[0])

    def is_identity(self) -> bool:
        return self.weight() == 0

    def pauli_on(self, qubit: int) -> str:
        return _XZ_TO_LABEL[(int(self._x[qubit]), int(self._z[qubit]))]

    # -- algebra ----------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two Pauli operators commute."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        symplectic = int(np.sum(self._x & other._z) + np.sum(self._z & other._x))
        return symplectic % 2 == 0

    def qubitwise_commutes_with(self, other: "PauliString") -> bool:
        """True when the operators commute qubit-by-qubit (same-basis measurable)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        for xa, za, xb, zb in zip(self._x, self._z, other._x, other._z):
            a_id = xa == 0 and za == 0
            b_id = xb == 0 and zb == 0
            if a_id or b_id:
                continue
            if (xa, za) != (xb, zb):
                return False
        return True

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        phase_power = self._phase_power + other._phase_power
        for xa, za, xb, zb in zip(self._x, self._z, other._x, other._z):
            phase_power += _levi_civita_phase(int(xa), int(za), int(xb), int(zb))
        return PauliString(self._x ^ other._x, self._z ^ other._z, phase_power)

    def with_phase_power(self, phase_power: int) -> "PauliString":
        return PauliString(self._x, self._z, phase_power)

    def bare(self) -> "PauliString":
        """The same operator with phase reset to +1."""
        return PauliString(self._x, self._z, 0)

    # -- matrices ---------------------------------------------------------------
    def to_matrix(self, sparse_output: bool = False):
        """Dense (or scipy-sparse) matrix of the operator, including phase.

        Qubit 0 is the least-significant bit of the computational-basis index.
        """
        result = sparse.identity(1, dtype=complex, format="csr")
        for xb, zb in zip(self._x, self._z):
            factor = sparse.csr_matrix(PAULI_MATRICES[_XZ_TO_LABEL[(int(xb), int(zb))]])
            result = sparse.kron(factor, result, format="csr")
        result = result * self.phase
        if sparse_output:
            return result
        return np.asarray(result.todense())

    def expectation(self, statevector: np.ndarray) -> complex:
        """⟨ψ| P |ψ⟩ for a dense statevector ``ψ`` (little-endian)."""
        statevector = np.asarray(statevector, dtype=complex).ravel()
        matrix = self.to_matrix(sparse_output=True)
        return complex(np.vdot(statevector, matrix.dot(statevector)))

    # -- comparison ---------------------------------------------------------------
    def key(self) -> Tuple[bytes, bytes]:
        """Hashable phase-free key (used by :class:`PauliSum`)."""
        return (self._x.tobytes(), self._z.tobytes())

    def __eq__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        return (np.array_equal(self._x, other._x)
                and np.array_equal(self._z, other._z)
                and self._phase_power == other._phase_power)

    def __hash__(self):
        return hash((self.key(), self._phase_power))

    def __repr__(self):
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self._phase_power]
        return f"{prefix}{self.label}"


class PauliSum:
    """A Hermitian (or general) linear combination of Pauli strings.

    Internally a dict mapping the phase-free symplectic key to a complex
    coefficient; phases of constituent strings are folded into the
    coefficients.
    """

    def __init__(self, num_qubits: int,
                 terms: Optional[Iterable[Tuple[PauliString, complex]]] = None):
        if num_qubits < 1:
            raise ValueError("PauliSum needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._coeffs: Dict[Tuple[bytes, bytes], complex] = {}
        self._strings: Dict[Tuple[bytes, bytes], PauliString] = {}
        if terms:
            for pauli, coeff in terms:
                self.add_term(pauli, coeff)

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_label_dict(cls, labels: Mapping[str, complex]) -> "PauliSum":
        """Build from ``{"XXI": 0.5, "IZZ": -1.0, ...}``."""
        if not labels:
            raise ValueError("label dict must not be empty")
        lengths = {len(label) for label in labels}
        if len(lengths) != 1:
            raise ValueError("all labels must have the same length")
        num_qubits = lengths.pop()
        op = cls(num_qubits)
        for label, coeff in labels.items():
            op.add_term(PauliString(label), coeff)
        return op

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliSum":
        return cls(num_qubits)

    # -- mutation --------------------------------------------------------------------
    def add_term(self, pauli: PauliString, coeff: complex = 1.0) -> "PauliSum":
        """Accumulate ``coeff · pauli`` into the sum (in place)."""
        if pauli.num_qubits != self._num_qubits:
            raise ValueError(
                f"term has {pauli.num_qubits} qubits, operator has {self._num_qubits}")
        total = complex(coeff) * pauli.phase
        key = pauli.key()
        self._coeffs[key] = self._coeffs.get(key, 0.0) + total
        if key not in self._strings:
            self._strings[key] = pauli.bare()
        return self

    def add_label(self, label: str, coeff: complex = 1.0) -> "PauliSum":
        return self.add_term(PauliString(label), coeff)

    def simplify(self, atol: float = 1e-12) -> "PauliSum":
        """Drop terms with negligible coefficients (in place); returns self."""
        for key in [k for k, c in self._coeffs.items() if abs(c) <= atol]:
            del self._coeffs[key]
            del self._strings[key]
        return self

    # -- queries -------------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._coeffs)

    def terms(self) -> Iterator[Tuple[PauliString, complex]]:
        """Iterate ``(phase-free PauliString, coefficient)`` pairs."""
        for key, coeff in self._coeffs.items():
            yield self._strings[key], coeff

    def coefficient(self, pauli: PauliString) -> complex:
        return self._coeffs.get(pauli.bare().key(), 0.0) * np.conj(1.0)

    def identity_coefficient(self) -> complex:
        return self._coeffs.get(PauliString.identity(self._num_qubits).key(), 0.0)

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(coeff.imag) <= atol for coeff in self._coeffs.values())

    def max_weight(self) -> int:
        return max((pauli.weight() for pauli, _ in self.terms()), default=0)

    def one_norm(self) -> float:
        """Sum of absolute coefficients (excluding nothing)."""
        return float(sum(abs(c) for c in self._coeffs.values()))

    # -- arithmetic ------------------------------------------------------------------------
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.num_qubits != self._num_qubits:
            raise ValueError("operators act on different numbers of qubits")
        out = PauliSum(self._num_qubits, list(self.terms()))
        for pauli, coeff in other.terms():
            out.add_term(pauli, coeff)
        return out.simplify()

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "PauliSum":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        out = PauliSum(self._num_qubits)
        for pauli, coeff in self.terms():
            out.add_term(pauli, coeff * scalar)
        return out

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product (expands into Pauli strings)."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.num_qubits != self._num_qubits:
            raise ValueError("operators act on different numbers of qubits")
        out = PauliSum(self._num_qubits)
        for pa, ca in self.terms():
            for pb, cb in other.terms():
                product = pa * pb
                out.add_term(product, ca * cb)
        return out.simplify()

    # -- matrices / spectra ---------------------------------------------------------------------
    def to_sparse_matrix(self) -> sparse.csr_matrix:
        dim = 2 ** self._num_qubits
        result = sparse.csr_matrix((dim, dim), dtype=complex)
        for pauli, coeff in self.terms():
            result = result + coeff * pauli.to_matrix(sparse_output=True)
        return result.tocsr()

    def to_matrix(self) -> np.ndarray:
        return np.asarray(self.to_sparse_matrix().todense())

    def ground_state_energy(self, sparse_threshold: int = 6) -> float:
        """Lowest eigenvalue of the operator.

        Uses dense diagonalization for small systems and sparse Lanczos
        (``eigsh``) above ``sparse_threshold`` qubits.  This is the reference
        energy E0 of the paper's γ metric for ≤12-qubit Hamiltonians.
        """
        if not self.is_hermitian():
            raise ValueError("ground_state_energy requires a Hermitian operator")
        if self._num_qubits <= sparse_threshold:
            eigenvalues = np.linalg.eigvalsh(self.to_matrix().real)
            return float(eigenvalues[0])
        matrix = self.to_sparse_matrix().real
        from scipy.sparse.linalg import eigsh
        eigenvalues = eigsh(matrix, k=1, which="SA",
                            return_eigenvectors=False, maxiter=5000)
        return float(eigenvalues[0])

    def bit_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(coefficients, x_bits, z_bits)`` arrays in ``terms()`` order.

        The bit matrices are the ``(num_terms, num_qubits)`` symplectic
        representation consumed by the vectorized expectation kernels in
        :mod:`repro.simulators.kernels`.
        """
        from ..simulators.kernels import observable_bit_matrices
        return observable_bit_matrices(self)

    def expectation(self, statevector: np.ndarray) -> float:
        """⟨ψ|H|ψ⟩ for a dense statevector.

        Evaluated with the vectorized bitmask/phase kernel
        (:func:`repro.simulators.kernels.statevector_term_expectations`), so
        the cost is one ``O(2^n)`` gather-reduce per term rather than a
        sparse-matrix product.
        """
        from ..simulators.kernels import statevector_term_expectations
        statevector = np.asarray(statevector, dtype=complex).ravel()
        coefficients, x_bits, z_bits = self.bit_matrices()
        if not len(coefficients):
            return 0.0
        values = statevector_term_expectations(statevector, x_bits, z_bits)
        return float(np.real(np.sum(coefficients * values)))

    # -- measurement grouping ------------------------------------------------------------------------
    def group_qubitwise_commuting(self) -> List[List[Tuple[PauliString, complex]]]:
        """Greedy grouping into qubit-wise commuting sets.

        Every group can be measured with a single measurement basis; the
        VarSaw-style mitigation and the measurement-cost model both consume
        this grouping.
        """
        groups: List[List[Tuple[PauliString, complex]]] = []
        for pauli, coeff in sorted(self.terms(), key=lambda t: -t[0].weight()):
            placed = False
            for group in groups:
                if all(pauli.qubitwise_commutes_with(member) for member, _ in group):
                    group.append((pauli, coeff))
                    placed = True
                    break
            if not placed:
                groups.append([(pauli, coeff)])
        return groups

    # -- presentation -----------------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self._num_qubits != other._num_qubits:
            return False
        keys = set(self._coeffs) | set(other._coeffs)
        return all(abs(self._coeffs.get(k, 0.0) - other._coeffs.get(k, 0.0)) < 1e-10
                   for k in keys)

    def __repr__(self):
        pieces = []
        for pauli, coeff in list(self.terms())[:6]:
            pieces.append(f"({coeff:.3g})·{pauli.label}")
        suffix = " + ..." if self.num_terms > 6 else ""
        return (f"PauliSum(qubits={self._num_qubits}, terms={self.num_terms}: "
                + " + ".join(pieces) + suffix + ")")
