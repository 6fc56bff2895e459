"""Typed work units flowing through the execution layer.

An :class:`ExecutionTask` bundles everything a backend needs to produce one
number (an expectation value) or one histogram (measurement counts): the
circuit, the observable or shot count, the noise model and any backend
options.  Tasks are value objects — their :meth:`ExecutionTask.cache_key` is
what the executor deduplicates and caches on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..operators.pauli import PauliSum
from ..simulators.noise import NoiseModel
from .errors import ExecutionError


def observable_fingerprint(observable: PauliSum) -> str:
    """Stable content hash of a Pauli-sum observable (hex digest).

    Terms are hashed in ``terms()`` order, coefficients included: an energy
    sums its terms in that order, so a permuted observable can differ in
    the last ulp and must not share cached energies.  ``PauliSum`` is
    mutable, so the hash is recomputed on every call.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(observable.num_qubits).encode())
    for pauli, coeff in observable.terms():
        x_bytes, z_bytes = pauli.key()
        hasher.update(x_bytes)
        hasher.update(z_bytes)
        hasher.update(repr(complex(coeff)).encode())
    return hasher.hexdigest()


def noise_token(noise_model: Optional[NoiseModel]):
    """Cache-key component identifying a noise model.

    ``None`` (or a model with no noise) normalizes to ``None`` so noiseless
    tasks share cache entries regardless of how "no noise" was spelled.
    Nontrivial models are identified by their **content fingerprint**
    (:meth:`repro.simulators.noise.NoiseModel.fingerprint`): an in-place
    ``add_*`` edit changes the content and invalidates prior entries, two
    independently built but bit-identical models share entries, and —
    because the token is a pure content hash rather than an object identity —
    keys are stable across processes and interpreter runs, which is what the
    persistent :class:`~repro.execution.disk_cache.DiskExpectationCache`
    relies on.
    """
    if noise_model is None or not noise_model.has_noise():
        return None
    return noise_model.fingerprint()


@dataclass(frozen=True)
class ExecutionTask:
    """One unit of simulator work: a circuit plus what to extract from it.

    Exactly one of ``observable`` (expectation-value task) or ``shots``
    (sampling task) must be set.  ``observable`` is a full (possibly
    many-term) :class:`~repro.operators.pauli.PauliSum`: the grouped engine
    evolves the circuit once and reads every term off the final state, and
    :meth:`split_terms` recovers the legacy one-task-per-term pattern when a
    per-term submission is explicitly wanted.  ``backend`` optionally pins
    the task to a named backend, overriding auto-routing.  ``metadata`` is
    caller-owned and never affects scheduling, caching or results.
    Example::

        task = ExecutionTask(circuit, observable=hamiltonian,
                             noise_model=noise)
        [result] = execute([task], backend="auto")
    """

    circuit: QuantumCircuit
    observable: Optional[PauliSum] = None
    shots: Optional[int] = None
    noise_model: Optional[NoiseModel] = None
    backend: Optional[str] = None
    include_idle: bool = True
    metadata: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if (self.observable is None) == (self.shots is None):
            raise ExecutionError(
                "an ExecutionTask needs exactly one of `observable` "
                "(expectation task) or `shots` (sampling task)")
        # Normalize shot counts to plain ints (callers often pass numpy
        # scalars from sweep configs) so keys are canonical and disk-stable.
        if self.shots is not None:
            object.__setattr__(self, "shots", int(self.shots))
        if self.shots is not None and self.shots < 1:
            raise ExecutionError("shots must be a positive integer")
        if (self.observable is not None
                and self.observable.num_qubits != self.circuit.num_qubits):
            raise ExecutionError(
                f"observable acts on {self.observable.num_qubits} qubits but "
                f"the circuit has {self.circuit.num_qubits}")

    # -- classification ------------------------------------------------------
    @property
    def is_expectation(self) -> bool:
        return self.observable is not None

    @property
    def is_sampling(self) -> bool:
        return self.shots is not None

    @property
    def has_noise(self) -> bool:
        return (self.noise_model is not None
                and self.noise_model.has_noise())

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def num_observable_terms(self) -> int:
        """Number of Pauli terms the observable carries (0 for sampling)."""
        return self.observable.num_terms if self.is_expectation else 0

    def is_clifford(self) -> bool:
        return self.circuit.is_clifford()

    def split_terms(self) -> list:
        """One single-term expectation task per Pauli term of the observable.

        This is the legacy per-term submission pattern the grouped engine
        replaces — each subtask re-evolves the circuit — retained for
        correctness cross-checks and benchmarking the grouped speedup.
        Identity terms are included (their expectation is exactly 1), so
        re-assembling ``Σ coeff_i · value_i`` reproduces the full energy.
        """
        if not self.is_expectation:
            raise ExecutionError("only expectation tasks can be split by term")
        subtasks = []
        for pauli, _ in self.observable.terms():
            observable = PauliSum(self.observable.num_qubits, [(pauli, 1.0)])
            subtasks.append(ExecutionTask(
                circuit=self.circuit, observable=observable,
                noise_model=self.noise_model, backend=self.backend,
                include_idle=self.include_idle,
                metadata=dict(self.metadata)))
        return subtasks

    # -- identity ------------------------------------------------------------
    def cache_key(self, backend_name) -> Tuple:
        """Hashable identity of this task when run on ``backend_name``.

        Two tasks with equal keys are interchangeable: same circuit
        structure, observable/shots, noise model and backend options, bound
        for the same backend.  Every component is content-derived, so keys
        are stable across processes and feed the persistent disk cache
        unchanged.
        """
        if self.is_expectation:
            payload = ("expval", observable_fingerprint(self.observable))
        else:
            payload = ("sample", int(self.shots))
        return (self.circuit.fingerprint(), payload,
                noise_token(self.noise_model), backend_name,
                self.include_idle)

    def term_cache_key(self, backend_name,
                      term_key: Tuple[bytes, bytes],
                      circuit_fingerprint: Optional[str] = None) -> Tuple:
        """Cache key for one Pauli term of this task's observable.

        ``term_key`` is :meth:`repro.operators.pauli.PauliString.key` — the
        phase-free symplectic identity of the term.  Per-term entries are what
        let a later Hamiltonian that only *overlaps* this task's observable
        hit the cache term-by-term instead of missing on the whole-observable
        fingerprint.  Callers building keys for many terms of one circuit
        pass the precomputed ``circuit_fingerprint`` so the circuit is hashed
        once, not once per term.
        """
        if circuit_fingerprint is None:
            circuit_fingerprint = self.circuit.fingerprint()
        return (circuit_fingerprint, ("term",) + tuple(term_key),
                noise_token(self.noise_model), backend_name,
                self.include_idle)

    def __repr__(self):
        kind = "expval" if self.is_expectation else f"sample[{self.shots}]"
        return (f"ExecutionTask({kind}, qubits={self.num_qubits}, "
                f"noisy={self.has_noise}, backend={self.backend!r})")


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one :class:`ExecutionTask`.

    ``value`` holds the expectation value (expectation tasks), ``counts`` the
    bitstring histogram (sampling tasks).  ``source`` records how the result
    was produced: ``"backend"`` (a simulator ran), ``"cache"`` (served from
    the cross-call expectation cache) or ``"dedup"`` (shared with an
    identical task in the same batch).
    """

    task: ExecutionTask
    backend_name: str
    value: Optional[float] = None
    counts: Optional[Dict[str, int]] = None
    source: str = "backend"
    elapsed: float = 0.0

    @property
    def cached(self) -> bool:
        """True when no simulator invocation was spent on this result."""
        return self.source in ("cache", "dedup")

    def __repr__(self):
        payload = (f"value={self.value:.6g}" if self.value is not None
                   else f"counts[{len(self.counts or {})}]")
        return (f"ExecutionResult({payload}, backend={self.backend_name!r}, "
                f"source={self.source!r})")
