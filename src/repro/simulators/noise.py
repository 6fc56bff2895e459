"""Noise channels and noise models.

The paper's two simulation flows use the following error channels
(Sec. 5.2.1):

* NISQ regime — gate errors are depolarizing + thermal relaxation, measurement
  errors are bit-flip + thermal relaxation, idling errors are thermal
  relaxation;
* pQEC regime — gate and memory errors are depolarizing, measurement errors
  are bit-flips, and the injected ``Rz(θ)`` gates carry the Lao–Criger
  injection error rate.

This module provides the Kraus-operator channels consumed by the
density-matrix simulator, their Pauli-twirled approximations consumed by the
stabilizer / Pauli-propagation evaluators, and :class:`NoiseModel`, which maps
gate names to channels and knows how to annotate a circuit with error
locations.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import PAULI_MATRICES

_PAULI_LABELS_1Q = ("I", "X", "Y", "Z")


def _kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for matrix in matrices:
        out = np.kron(matrix, out)
    return out


def pauli_label_matrix(label: str) -> np.ndarray:
    """Matrix of a multi-qubit Pauli label (qubit 0 = least significant)."""
    return _kron_all([PAULI_MATRICES[c] for c in label])


class QuantumChannel:
    """A completely-positive trace-preserving map given by Kraus operators."""

    def __init__(self, kraus_operators: Sequence[np.ndarray], name: str = "channel"):
        ops = [np.array(op, dtype=complex) for op in kraus_operators]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("all Kraus operators must be square and equal-sized")
            op.setflags(write=False)
        self._kraus = ops
        self._dim = dim
        self.name = name
        self._validate()
        self._clear_memos()

    # A channel is immutable once built, so its derived forms are computed on
    # first use and kept.  They are not pickled: shard and spool payloads
    # carry only the Kraus operators and rebuild the forms where needed.
    # ``_damping_table`` is the Pauli-propagation class-factor table
    # (:mod:`repro.simulators.pauli_propagation`).
    _MEMOS = ("_superoperator", "_twirl_probabilities", "_twirl",
              "_damping_table")

    def _clear_memos(self) -> None:
        for attribute in self._MEMOS:
            setattr(self, attribute, None)

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in self._MEMOS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for op in self._kraus:
            op.setflags(write=False)
        self._clear_memos()

    def _validate(self, atol: float = 1e-8) -> None:
        total = sum(op.conj().T @ op for op in self._kraus)
        if not np.allclose(total, np.eye(self._dim), atol=atol):
            raise ValueError(
                f"Kraus operators of {self.name!r} do not satisfy "
                f"Σ K†K = I (deviation {np.max(np.abs(total - np.eye(self._dim))):.2e})")

    @property
    def kraus_operators(self) -> List[np.ndarray]:
        """The Kraus operators (shared read-only arrays; copy to mutate)."""
        return list(self._kraus)

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self._dim)))

    def superoperator(self) -> np.ndarray:
        """The channel's Liouville superoperator ``Σ_k K_k ⊗ K̄_k``.

        A ``4^k × 4^k`` read-only array, computed once per channel: on the
        row-major vectorization of ρ, ``vec(Σ_k K_k ρ K_k†) = S · vec(ρ)``,
        so a channel of any Kraus rank applies as one matrix product.
        """
        if self._superoperator is None:
            kraus = np.stack(self._kraus)
            superoperator = np.einsum("kia,kjb->ijab", kraus, kraus.conj())
            superoperator = superoperator.reshape(self._dim ** 2,
                                                  self._dim ** 2)
            superoperator.setflags(write=False)
            self._superoperator = superoperator
        return self._superoperator

    def apply_to_density_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        rho = np.asarray(rho, dtype=complex)
        return (self.superoperator() @ rho.reshape(-1)).reshape(rho.shape)

    def compose(self, other: "QuantumChannel") -> "QuantumChannel":
        """Channel composition ``self ∘ other`` (other applied first)."""
        if self._dim != other._dim:
            raise ValueError("cannot compose channels of different dimension")
        ops = [a @ b for a in self._kraus for b in other._kraus]
        return QuantumChannel(ops, name=f"{self.name}∘{other.name}")

    def is_identity(self, atol: float = 1e-12) -> bool:
        probs = self.pauli_twirl_probabilities()
        identity_label = "I" * self.num_qubits
        return abs(probs.get(identity_label, 0.0) - 1.0) <= atol

    def fingerprint(self) -> str:
        """Stable content hash of the channel's Kraus operators (hex digest).

        Two channels built independently from bit-identical operator arrays
        share a fingerprint across processes and interpreter runs — the
        channel ``name`` does not contribute.  This is what lets the
        execution layer key caches on a noise model's *content* rather than
        its object identity.
        """
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(struct.pack("<I", self._dim))
        for op in self._kraus:
            hasher.update(np.ascontiguousarray(op, dtype=complex).tobytes())
        return hasher.hexdigest()

    def pauli_twirl_probabilities(self) -> Dict[str, float]:
        """Pauli-twirled approximation of the channel.

        Returns ``{pauli_label: probability}``; the probability of label P is
        ``Σ_k |Tr(P K_k)|² / dim²``, i.e. the diagonal of the chi matrix in
        the Pauli basis.  For a channel that is already a Pauli channel this
        is exact; for coherent / amplitude-damping channels this is the
        standard twirling approximation the paper cites (Ghosh et al.) for
        Clifford-level simulation.  Computed once per channel; every call
        returns a fresh dict.
        """
        if self._twirl_probabilities is None:
            labels = ["".join(combo) for combo in
                      itertools.product(_PAULI_LABELS_1Q,
                                        repeat=self.num_qubits)]
            probabilities: Dict[str, float] = {}
            for label in labels:
                pauli = pauli_label_matrix(label)
                weight = 0.0
                for op in self._kraus:
                    weight += abs(np.trace(pauli.conj().T @ op)) ** 2
                probabilities[label] = float(weight) / (self._dim ** 2)
            total = sum(probabilities.values())
            if total <= 0:
                raise ValueError("degenerate channel: zero total twirl weight")
            self._twirl_probabilities = {
                label: prob / total for label, prob in probabilities.items()}
        return dict(self._twirl_probabilities)

    def __repr__(self):
        return f"QuantumChannel(name={self.name!r}, qubits={self.num_qubits}, kraus={len(self._kraus)})"


class PauliChannel(QuantumChannel):
    """A stochastic Pauli channel ``ρ → Σ_P p_P P ρ P``.

    This is the channel family that stabilizer simulation and the
    Pauli-propagation expectation engine can treat exactly.
    """

    def __init__(self, probabilities: Mapping[str, float], name: str = "pauli"):
        probs = {label.upper(): float(p) for label, p in probabilities.items()
                 if float(p) > 0.0}
        if not probs:
            raise ValueError("Pauli channel needs at least one nonzero probability")
        lengths = {len(label) for label in probs}
        if len(lengths) != 1:
            raise ValueError("all Pauli labels must have equal length")
        total = sum(probs.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"Pauli probabilities sum to {total} > 1")
        identity = "I" * lengths.pop()
        probs[identity] = probs.get(identity, 0.0) + max(0.0, 1.0 - total)
        self._probabilities = probs
        kraus = [math.sqrt(p) * pauli_label_matrix(label)
                 for label, p in probs.items()]
        super().__init__(kraus, name=name)

    @property
    def probabilities(self) -> Dict[str, float]:
        return dict(self._probabilities)

    def pauli_twirl_probabilities(self) -> Dict[str, float]:
        if self._twirl_probabilities is None:
            labels = ["".join(combo) for combo in
                      itertools.product(_PAULI_LABELS_1Q,
                                        repeat=self.num_qubits)]
            self._twirl_probabilities = {
                label: self._probabilities.get(label, 0.0) for label in labels}
        return dict(self._twirl_probabilities)

    def error_probability(self) -> float:
        """Probability that a non-identity Pauli is applied."""
        identity = "I" * self.num_qubits
        return 1.0 - self._probabilities.get(identity, 0.0)

    def sample(self, rng: np.random.Generator) -> str:
        labels = list(self._probabilities)
        probs = np.array([self._probabilities[l] for l in labels])
        probs = probs / probs.sum()
        return labels[int(rng.choice(len(labels), p=probs))]


# --------------------------------------------------------------------------
# Channel constructors
# --------------------------------------------------------------------------

def depolarizing_channel(error_probability: float, num_qubits: int = 1) -> PauliChannel:
    """Uniform depolarizing channel on ``num_qubits`` qubits.

    With probability ``error_probability`` one of the ``4^n - 1`` non-identity
    Paulis is applied uniformly at random.
    """
    if not 0.0 <= error_probability <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    labels = ["".join(c) for c in itertools.product(_PAULI_LABELS_1Q, repeat=num_qubits)]
    identity = "I" * num_qubits
    non_identity = [label for label in labels if label != identity]
    each = error_probability / len(non_identity)
    probs = {label: each for label in non_identity}
    probs[identity] = 1.0 - error_probability
    return PauliChannel(probs, name=f"depolarizing({error_probability:g}, {num_qubits}q)")


def bit_flip_channel(error_probability: float) -> PauliChannel:
    """X-error (bit flip) channel; models measurement flips in the paper."""
    return PauliChannel({"I": 1.0 - error_probability, "X": error_probability},
                        name=f"bit_flip({error_probability:g})")


def phase_flip_channel(error_probability: float) -> PauliChannel:
    return PauliChannel({"I": 1.0 - error_probability, "Z": error_probability},
                        name=f"phase_flip({error_probability:g})")


def pauli_error_channel(px: float, py: float, pz: float) -> PauliChannel:
    return PauliChannel({"I": 1.0 - px - py - pz, "X": px, "Y": py, "Z": pz},
                        name=f"pauli({px:g},{py:g},{pz:g})")


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Amplitude damping (T1 decay) with damping probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel([k0, k1], name=f"amplitude_damping({gamma:g})")


def phase_damping_channel(lam: float) -> QuantumChannel:
    """Pure dephasing with dephasing probability ``lam``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return QuantumChannel([k0, k1], name=f"phase_damping({lam:g})")


def thermal_relaxation_channel(t1: float, t2: float, gate_time: float) -> QuantumChannel:
    """Thermal relaxation channel for a gate of duration ``gate_time``.

    Modelled as amplitude damping with ``γ = 1 - exp(-t/T1)`` composed with
    pure dephasing chosen so the total coherence decay matches
    ``exp(-t/T2)``.  Requires ``T2 ≤ 2·T1``.
    """
    if t1 <= 0 or t2 <= 0 or gate_time < 0:
        raise ValueError("T1, T2 must be positive and gate_time non-negative")
    if t2 > 2 * t1 + 1e-12:
        raise ValueError("unphysical relaxation times: T2 must be ≤ 2·T1")
    gamma = 1.0 - math.exp(-gate_time / t1)
    total_dephasing = math.exp(-gate_time / t2)
    amplitude_part = math.exp(-gate_time / (2.0 * t1))
    residual = total_dephasing / amplitude_part
    residual = min(max(residual, 0.0), 1.0)
    lam = 1.0 - residual ** 2
    channel = amplitude_damping_channel(gamma).compose(phase_damping_channel(lam))
    channel.name = f"thermal_relaxation(T1={t1:g}, T2={t2:g}, t={gate_time:g})"
    return channel


#: The qubit-reset channel: project onto |0⟩/|1⟩, then re-prepare |0⟩.
#: Hoisted to a module constant so the density-matrix hot path (and the
#: circuit compiler) never rebuilds — and never re-validates — its Kraus
#: operators per reset instruction.
RESET_CHANNEL = QuantumChannel(
    [np.array([[1, 0], [0, 0]], dtype=complex),   # keep |0⟩
     np.array([[0, 1], [0, 0]], dtype=complex)],  # lower |1⟩ → |0⟩
    name="reset")


def two_qubit_tensor_channel(channel_a: QuantumChannel,
                             channel_b: QuantumChannel) -> QuantumChannel:
    """Tensor product channel acting independently on two qubits."""
    kraus = [np.kron(kb, ka)
             for ka in channel_a.kraus_operators
             for kb in channel_b.kraus_operators]
    return QuantumChannel(kraus, name=f"{channel_a.name}⊗{channel_b.name}")


def pauli_twirl(channel: QuantumChannel) -> PauliChannel:
    """The Pauli-twirled (stochastic Pauli) approximation of a channel.

    Memoized per channel: repeated calls return the same
    :class:`PauliChannel` (rebuilt only if the channel was renamed since).
    """
    name = f"twirl({channel.name})"
    twirl = channel._twirl
    if twirl is None or twirl.name != name:
        twirl = PauliChannel(channel.pauli_twirl_probabilities(), name=name)
        channel._twirl = twirl
    return twirl


# --------------------------------------------------------------------------
# Noise model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorLocation:
    """A noise channel attached to specific qubits at a specific circuit point."""

    channel: QuantumChannel
    qubits: Tuple[int, ...]
    instruction_index: int
    kind: str  # "gate", "idle", "measure", "injection"

    @property
    def pauli_probabilities(self) -> Dict[str, float]:
        return self.channel.pauli_twirl_probabilities()


class NoiseModel:
    """Maps gate names to error channels and annotates circuits with them.

    * ``add_gate_error(channel, gate_names)`` — channel applied after each
      matching gate, on the gate's qubits;
    * ``add_readout_error(p)`` — classical bit-flip probability applied to
      measurement outcomes (also exposed as a bit-flip channel location so
      the expectation-based evaluators can account for it);
    * ``add_idle_error(channel)`` — channel applied to every idle qubit in
      every layer of the scheduled circuit (the paper's idling / memory
      errors).
    """

    def __init__(self, name: str = "noise_model"):
        self.name = name
        self._gate_errors: Dict[str, List[QuantumChannel]] = {}
        self._idle_channel: Optional[QuantumChannel] = None
        self._readout_error: float = 0.0
        self._version = 0
        self._fingerprint_cache: Optional[Tuple[int, str]] = None

    # -- construction ---------------------------------------------------------
    def add_gate_error(self, channel: QuantumChannel,
                       gate_names: Iterable[str]) -> "NoiseModel":
        for name in gate_names:
            self._gate_errors.setdefault(name.lower(), []).append(channel)
        self._version += 1
        return self

    def add_idle_error(self, channel: QuantumChannel) -> "NoiseModel":
        if channel.num_qubits != 1:
            raise ValueError("idle error must be a single-qubit channel")
        self._idle_channel = channel
        self._version += 1
        return self

    def add_readout_error(self, probability: float) -> "NoiseModel":
        if not 0.0 <= probability <= 1.0:
            raise ValueError("readout error probability must be in [0, 1]")
        self._readout_error = float(probability)
        self._version += 1
        return self

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every ``add_*`` call.

        Consumers that key caches on a noise model's identity combine it
        with this counter so in-place edits invalidate stale entries.
        """
        return self._version

    def fingerprint(self) -> str:
        """Stable content hash of the model (hex digest).

        Covers every gate channel (by gate name and attachment order), the
        idle channel and the readout-error probability; the model ``name``
        does not contribute.  Two models with bit-identical channels share a
        fingerprint across processes and runs, which is what the execution
        layer's persistent :class:`~repro.execution.disk_cache.DiskExpectationCache`
        keys entries on; an in-place ``add_*`` edit changes the content and
        therefore the fingerprint.  The digest is memoized per
        :attr:`version`, so hot cache-key paths do not rehash Kraus arrays.
        """
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        hasher = hashlib.blake2b(digest_size=16)
        for gate_name in sorted(self._gate_errors):
            hasher.update(b"g" + gate_name.encode("utf-8") + b"\x00")
            for channel in self._gate_errors[gate_name]:
                hasher.update(channel.fingerprint().encode("ascii"))
        if self._idle_channel is not None:
            hasher.update(b"i" + self._idle_channel.fingerprint().encode("ascii"))
        hasher.update(b"r" + struct.pack("<d", self._readout_error))
        digest = hasher.hexdigest()
        self._fingerprint_cache = (self._version, digest)
        return digest

    # -- queries -----------------------------------------------------------------
    @property
    def readout_error(self) -> float:
        return self._readout_error

    @property
    def idle_channel(self) -> Optional[QuantumChannel]:
        return self._idle_channel

    def gate_channels(self, gate_name: str) -> List[QuantumChannel]:
        return list(self._gate_errors.get(gate_name.lower(), []))

    def has_noise(self) -> bool:
        return bool(self._gate_errors) or self._idle_channel is not None \
            or self._readout_error > 0

    # -- circuit annotation ----------------------------------------------------------
    def error_locations(self, circuit: QuantumCircuit,
                        include_idle: bool = True) -> List[ErrorLocation]:
        """All error locations induced by this model on ``circuit``.

        Gate errors are attached per instruction.  Idle errors are attached
        per (layer, idle qubit) pair using the circuit's greedy layering,
        indexed by the layer's last instruction.  Readout errors appear as
        bit-flip locations on measured qubits.
        """
        locations: List[ErrorLocation] = []
        for index, inst in enumerate(circuit):
            if inst.name in ("barrier",):
                continue
            if inst.name == "measure":
                if self._readout_error > 0:
                    locations.append(ErrorLocation(
                        bit_flip_channel(self._readout_error),
                        inst.qubits, index, "measure"))
                continue
            for channel in self._gate_errors.get(inst.name, []):
                if channel.num_qubits != len(inst.qubits):
                    raise ValueError(
                        f"channel {channel.name!r} acts on {channel.num_qubits} qubits "
                        f"but gate {inst.name!r} acts on {len(inst.qubits)}")
                locations.append(ErrorLocation(channel, inst.qubits, index, "gate"))
        if include_idle and self._idle_channel is not None:
            instruction_positions = {id(inst): i for i, inst in enumerate(circuit)}
            for layer in circuit.layers():
                busy = set()
                for inst in layer:
                    busy.update(inst.qubits)
                last_index = max(instruction_positions[id(inst)] for inst in layer)
                for qubit in range(circuit.num_qubits):
                    if qubit not in busy:
                        locations.append(ErrorLocation(
                            self._idle_channel, (qubit,), last_index, "idle"))
        return locations

    def __repr__(self):
        gates = {name: len(chs) for name, chs in self._gate_errors.items()}
        return (f"NoiseModel(name={self.name!r}, gate_errors={gates}, "
                f"idle={self._idle_channel is not None}, "
                f"readout={self._readout_error:g})")
