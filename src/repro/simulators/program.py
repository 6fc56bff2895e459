"""Compiled circuit programs and batched parameter-sweep execution.

The interpreted simulator loops pay Python-level costs per gate per run:
``Gate.matrix()`` resolution, tensor-axis derivation, one generic
``tensordot`` per instruction — and every optimizer step (COBYLA/SPSA
queries, parameter-shift pairs, genetic populations) re-simulates near-identical circuits one at a time.  This module
lowers a :class:`~repro.circuits.circuit.QuantumCircuit` **once** into a flat
:class:`CompiledProgram` and executes it — alone or across a whole parameter
sweep in one NumPy pass.  The gate-by-gate loop it replaced is the test
suite's reference (``tests/reference/statevector.py``), not a second
execution path:

* **compile** — :func:`compile_circuit` resolves every gate matrix, derives
  tensor axes, fuses adjacent same-qubit unitaries (2×2/4×4 matmuls at
  compile time) and lowers diagonal gates (``rz``/``cz``/``rzz``/``z``/``s``/
  ``t``/…) to elementwise phase vectors instead of tensordots.  Compiling
  with a :class:`~repro.simulators.noise.NoiseModel` produces the
  density-matrix program: layer-ordered ops with one **pre-merged** channel
  per noisy slot plus idle/readout channel ops, each carrying the channel's
  memoized superoperator so it applies as one contraction whatever its
  Kraus rank (fusion is skipped so channels keep their exact positions).
  Value-independent lowering is computed once per process: the monomial
  form of each named static gate (``cx``/``x``/``swap``/…; never a bound
  rotation, whose name does not fix its matrix) and the full-index gather
  table of each run of monomial ops, kept read-only in a byte-capped LRU
  shared between programs.
* **cache** — lowerings are cached by ``circuit.fingerprint()`` (+ the
  noise model's identity and mutation ``version``), so optimizer re-queries
  and repeated executor traffic skip compilation entirely; structurally
  identical templates built from distinct ``Parameter`` objects get cheap
  views over one lowering.  :func:`program_cache_counters` feeds the
  execution layer's ``programs_compiled`` / ``program_cache_hits`` stats.
* **bind** — a program compiled from a parametric template keeps its
  structure and rebuilds only the parametric matrices from linear forms
  over positional parameters: ``program.bind(theta)`` binds one point,
  :meth:`CompiledProgram.run_sweep` a whole sweep in one stacked pass.
  :meth:`CompiledProgram.point_program` binds one point and lowers it the
  way compiling the bound circuit would (monomial ops become gathers), so
  a per-step optimizer query needs no bound circuit.
* **batch** — :func:`run_batch` executes ``B`` structure-sharing bound
  programs as one ``(B, 2^n)`` stacked pass: every op is applied across the
  whole batch in a single (batched) matmul or broadcast multiply, which is
  what serves SPSA ± pairs, gradient pairs, genetic populations and
  parameter sweeps at NumPy speed.

Example::

    template = ansatz.build()                      # free parameters
    program = compile_circuit(template)            # compiled once, cached
    states = program.run_sweep(sweep)              # bitwise equal to
    # run_batch([program.bind(theta) for theta in sweep]);
    # states.shape == (len(sweep), 2 ** n)
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import (DIAGONAL_GATE_NAMES, _STATIC_MATRICES,
                              parametric_matrix)
from ..circuits.parameters import (LinearForm, Parameter, evaluate_form,
                                   linear_form)
from .memo import ByteMemo
from .noise import NoiseModel, QuantumChannel, RESET_CHANNEL, bit_flip_channel

__all__ = [
    "CompiledOp",
    "CompiledProgram",
    "compile_circuit",
    "run_batch",
    "clear_program_cache",
    "program_cache_counters",
    "OP_UNITARY",
    "OP_DIAG",
    "OP_RESET",
    "OP_CHANNEL",
    "OP_MEASURE_NOISE",
]

# Op kinds -------------------------------------------------------------------
OP_UNITARY = "unitary"          # dense k-qubit matrix, tensor contraction
OP_DIAG = "diag"                # k-qubit diagonal, elementwise phase multiply
OP_PERM = "perm"                # monomial matrix (CX/SWAP/X/...), index gather
OP_RESET = "reset"              # projective reset to |0> (stochastic on kets)
OP_CHANNEL = "channel"          # channel superoperator (density-matrix programs)
OP_MEASURE_NOISE = "measure_noise"  # readout flip channel, applied on demand

#: Above this qubit count the per-op full-index gather tables of the
#: permutation fast path (O(2^n) int64 entries) cost more than they save.
_MAX_PERM_QUBITS = 20


def _diag_vector(matrix: np.ndarray) -> np.ndarray:
    """The diagonal of a (known-diagonal) gate unitary."""
    return np.ascontiguousarray(np.diag(matrix))


def _parametric_diag(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Diagonal phase vector of a parametric diagonal gate (rz / rzz)."""
    half = params[0] / 2.0
    phase, conj = np.exp(-1j * half), np.exp(1j * half)
    if name == "rz":
        return np.array([phase, conj])
    if name == "rzz":
        return np.array([phase, conj, conj, phase])
    raise ValueError(f"gate {name!r} is not a parametric diagonal gate")


def _broadcast_diag(diag: np.ndarray, qubits: Tuple[int, ...],
                    num_qubits: int) -> np.ndarray:
    """Reshape a ``2^k`` diagonal so it broadcasts onto the state tensor.

    The returned array has ``num_qubits`` axes: size 2 at the state-tensor
    axis of each target qubit (axis ``n-1-q`` for qubit ``q``), size 1
    elsewhere.  Multiplying the ``(…, 2, 2, …)`` state tensor by it applies
    the diagonal gate; a leading batch axis broadcasts for free.  A
    ``(B, 2^k)`` stack of diagonals keeps its leading axis.
    """
    k = len(qubits)
    diag = np.asarray(diag, dtype=complex)
    lead = diag.shape[:-1]
    tensor = diag.reshape(lead + (2,) * k)
    # tensor axis for qubits[j] is k-1-j (qubits[0] = least significant bit).
    # Reorder axes so they land in ascending state-tensor axis order, which
    # is descending qubit order.
    order = sorted(range(k), key=lambda j: qubits[j], reverse=True)
    tensor = np.transpose(tensor, axes=list(range(len(lead))) + [
        len(lead) + k - 1 - j for j in order])
    shape = [1] * num_qubits
    for qubit in qubits:
        shape[num_qubits - 1 - qubit] = 2
    return np.ascontiguousarray(tensor).reshape(lead + tuple(shape))


_ARANGE_CACHE: Dict[int, np.ndarray] = {}


def _index_arange(dim: int) -> np.ndarray:
    """A shared read-only ``arange(dim)`` (index tables are built often)."""
    cached = _ARANGE_CACHE.get(dim)
    if cached is None:
        cached = np.arange(dim, dtype=np.int64)
        cached.setflags(write=False)
        _ARANGE_CACHE[dim] = cached
    return cached


def _perm_apply_to_values(values: np.ndarray, qubits: Tuple[int, ...],
                          columns: np.ndarray,
                          phases: Optional[np.ndarray]
                          ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply a monomial op's index action elementwise to ``values``.

    Treating each entry of ``values`` as a basis index, replaces its target-
    qubit bits through the op's column permutation and extracts the matching
    phase factors — pure bit arithmetic, no gather tables.  This is both how
    a single perm op materializes its full table and how a whole run of perm
    ops composes into one (apply each op's action to the evolving table).
    """
    small = (values >> qubits[0]) & 1
    for j in range(1, len(qubits)):
        small = small | (((values >> qubits[j]) & 1) << j)
    mapped = columns[small]
    mask = 0
    for qubit in qubits:
        mask |= 1 << qubit
    out = values & ~mask
    out = out | ((mapped & 1) << qubits[0])
    for j in range(1, len(qubits)):
        out |= ((mapped >> j) & 1) << qubits[j]
    return out, (None if phases is None else phases[small])


def _stacked_gate(name: str, angles: List[np.ndarray]) -> np.ndarray:
    """``(B, 2^k, 2^k)`` matrices (or ``(B, 2^k)`` diagonals for rz/rzz) of
    a parametric gate at ``B`` angle tuples, each bitwise equal to
    :func:`parametric_matrix` / :func:`_parametric_diag` at that tuple.

    Real trig goes through the same scalar ``math.cos``/``math.sin`` as the
    gate-matrix functions (vectorized numpy may use SIMD kernels that differ
    by an ulp); complex ``np.exp`` has no SIMD loop, so it runs vectorized.
    """
    if name in ("rz", "rzz"):
        half = angles[0] / 2.0
        phase, conj = np.exp(-1j * half), np.exp(1j * half)
        columns = [phase, conj] if name == "rz" else [phase, conj, conj, phase]
        return np.stack(columns, axis=1)
    if name in ("rx", "ry"):
        half = (angles[0] / 2.0).tolist()
        cos = np.array([math.cos(value) for value in half])
        sin = np.array([math.sin(value) for value in half])
        out = np.empty((len(half), 2, 2), dtype=complex)
        out[:, 0, 0] = out[:, 1, 1] = cos
        if name == "rx":
            out[:, 0, 1] = out[:, 1, 0] = -1j * sin
        else:
            out[:, 0, 1] = -sin
            out[:, 1, 0] = sin
        return out
    return np.stack([parametric_matrix(name, point)
                     for point in zip(*(column.tolist()
                                        for column in angles))])


def _stacked_form(form: LinearForm, points: np.ndarray) -> np.ndarray:
    """A linear form's value at every row of ``points``, with the scalar
    :func:`~repro.circuits.parameters.evaluate_form`'s operation order."""
    offset, terms = form
    if not terms:
        return np.full(len(points), offset)
    column = offset + terms[0][1] * points[:, terms[0][0]]
    for position, coeff in terms[1:]:
        column = column + coeff * points[:, position]
    return column


class _Factor:
    """One instruction's contribution to a (possibly fused) compiled op.

    Static factors carry their resolved array (a matrix, or a bare diagonal
    vector when ``diag``); parametric factors carry the gate name and one
    :data:`~repro.circuits.parameters.LinearForm` per gate parameter over
    the template's positional parameters, and are rebuilt on
    :meth:`CompiledProgram.bind` / :meth:`CompiledProgram.run_sweep`.
    """

    __slots__ = ("name", "forms", "static", "diag")

    def __init__(self, name: str, forms: Optional[Tuple[LinearForm, ...]],
                 static: Optional[np.ndarray], diag: bool):
        self.name = name
        self.forms = forms
        self.static = static
        self.diag = diag

    @property
    def is_parametric(self) -> bool:
        return self.static is None

    def resolve(self, values: Sequence[float]) -> np.ndarray:
        """The factor's array at positional parameter ``values``."""
        if self.static is not None:
            return self.static
        angles = tuple(evaluate_form(form, values) for form in self.forms)
        if self.diag:
            return _parametric_diag(self.name, angles)
        return parametric_matrix(self.name, angles)

    def resolve_stacked(self, points: np.ndarray) -> np.ndarray:
        """The factor's array at every row of ``points``: the static array
        itself, or a ``(B, …)`` stack of :meth:`resolve` results."""
        if self.static is not None:
            return self.static
        return _stacked_gate(self.name, [_stacked_form(form, points)
                                         for form in self.forms])


class CompiledOp:
    """One lowered operation of a :class:`CompiledProgram`.

    ``data`` depends on ``kind``: the dense matrix (:data:`OP_UNITARY`), the
    broadcast-shaped phase tensor (:data:`OP_DIAG`), a ``(columns, phases)``
    pair over the small ``2^k`` index space (:data:`OP_PERM`; ``None`` for a
    fused run, which carries only its full-index table), or the channel's
    read-only ``4^k × 4^k`` superoperator ``Σ K⊗K̄`` (:data:`OP_CHANNEL`,
    :data:`OP_MEASURE_NOISE`, and :data:`OP_RESET`: density-matrix runs
    apply the reset channel, statevector runs reset projectively instead).
    Channel ops with equal channels share one superoperator array; static
    perm ops share their memoized monomial data and gather tables.
    ``factors`` (gate ops only) records the
    constituent instructions so parametric ops can be rebuilt on bind;
    ``data is None`` marks an op still awaiting parameter binding.
    """

    __slots__ = ("kind", "qubits", "data", "factors", "raw_diag",
                 "is_parametric", "_full")

    def __init__(self, kind: str, qubits: Tuple[int, ...], data,
                 factors: Optional[List[_Factor]] = None,
                 raw_diag: Optional[np.ndarray] = None):
        self.kind = kind
        self.qubits = qubits
        self.data = data
        self.factors = factors
        self.raw_diag = raw_diag  # bare 2^k diagonal (diag ops only)
        self.is_parametric = bool(factors) and any(f.is_parametric
                                                   for f in factors)
        self._full = None  # lazy full-index gather table (perm ops)

    def full_indices(self, num_qubits: int
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Memoized ``(source_indices, phases)`` gather table of a perm op.

        ``out[j] = phases[j] * in[source_indices[j]]`` applies the monomial
        matrix over the full ``2^n`` index space; ``phases`` is ``None`` for
        pure permutations (CX, SWAP, X).
        """
        if self._full is None:
            self._full = _perm_table([self], num_qubits)
        return self._full

    def bound(self, values: Sequence[float], num_qubits: int
              ) -> "CompiledOp":
        """A bound copy with parametric factor matrices rebuilt."""
        if not self.is_parametric:
            return self
        arrays = [factor.resolve(values) for factor in self.factors]
        if self.kind == OP_DIAG:
            diag = _diag_product(arrays)
            return CompiledOp(OP_DIAG, self.qubits,
                              _broadcast_diag(diag, self.qubits, num_qubits),
                              self.factors, raw_diag=diag)
        return CompiledOp(OP_UNITARY, self.qubits,
                          _matrix_product(self.factors, arrays), self.factors)

    def stacked(self, points: np.ndarray, num_qubits: int) -> np.ndarray:
        """This parametric op's data at every row of ``points``, stacked on
        a leading axis: row ``b`` is bitwise ``bound(points[b]).data``."""
        arrays = [factor.resolve_stacked(points) for factor in self.factors]
        if self.kind == OP_DIAG:
            return _broadcast_diag(_diag_product(arrays), self.qubits,
                                   num_qubits)
        return _matrix_product(self.factors, arrays)

    def __repr__(self):
        return f"CompiledOp({self.kind}, qubits={self.qubits})"


def _diag_product(arrays: List[np.ndarray]) -> np.ndarray:
    """Elementwise product of diagonal factors, in factor order."""
    diag = arrays[0]
    for array in arrays[1:]:
        diag = diag * array
    return diag


def _matrix_product(factors: List[_Factor],
                    arrays: List[np.ndarray]) -> np.ndarray:
    """``A_last @ … @ A_first`` of a fused op's factor arrays, multiplied
    in the order compile-time fusion multiplies a bound circuit's gates: a
    leading run of diagonal factors elementwise, then each later factor (a
    diagonal one embedded as a diagonal matrix) from the left.  Stacked
    arrays broadcast."""
    lead = 0
    while lead < len(factors) and factors[lead].diag:
        lead += 1
    matrix = _diag_square(_diag_product(arrays[:lead])) if lead else None
    for factor, array in zip(factors[lead:], arrays[lead:]):
        if factor.diag:
            array = _diag_square(array)
        matrix = array if matrix is None else array @ matrix
    return matrix


def _diag_square(diag: np.ndarray) -> np.ndarray:
    """A (stack of) diagonal vector(s) embedded as diagonal matrices."""
    square = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
    diagonal = np.arange(diag.shape[-1])
    square[..., diagonal, diagonal] = diag
    return square


class CompiledProgram:
    """A circuit lowered to a flat op stream with resolved numerics.

    Produced by :func:`compile_circuit`.  A program compiled from a
    parametric template is *structural*: its parametric ops carry no data
    until :meth:`bind` resolves them against a parameter vector (aligned
    with the source circuit's ``ordered_parameters()``) or a mapping.  Bound
    programs from one template share every static op, which is what lets
    :func:`run_batch` stack only the genuinely varying matrices.  Example::

        program = compile_circuit(ansatz.build())
        state = program.bind(theta).run_statevector()
    """

    __slots__ = ("num_qubits", "ops", "parameters", "noise_model",
                 "fingerprint", "fused", "_template", "_structure",
                 "_parametric_indices", "_views", "_pregather")

    def __init__(self, num_qubits: int, ops: List[CompiledOp],
                 parameters: List[Parameter],
                 noise_model: Optional[NoiseModel],
                 fingerprint: Optional[str], fused: bool,
                 template: Optional["CompiledProgram"] = None,
                 pregather: Optional[List[CompiledOp]] = None):
        self.num_qubits = num_qubits
        self.ops = ops
        self.parameters = parameters
        self.noise_model = noise_model
        self.fingerprint = fingerprint
        self.fused = fused
        self._template = template or self
        # The op list before the monomial lowering (parametric lowerings
        # only): what point_program re-lowers at a monomial point.
        self._pregather = pregather
        self._structure = None
        self._parametric_indices = [index for index, op in enumerate(ops)
                                    if op.is_parametric]
        self._views: Optional[Dict[Tuple[int, ...], CompiledProgram]] = None

    # -- classification ------------------------------------------------------
    @property
    def is_parametric(self) -> bool:
        return bool(self.parameters)

    @property
    def is_bound(self) -> bool:
        """True when every op has resolved numeric data."""
        return all(op.data is not None or op._full is not None
                   for op in self.ops)

    @property
    def has_reset(self) -> bool:
        return any(op.kind == OP_RESET for op in self.ops)

    @property
    def has_channels(self) -> bool:
        return any(op.kind in (OP_CHANNEL, OP_MEASURE_NOISE)
                   for op in self.ops)

    def structure_key(self) -> Tuple:
        """Hashable op-stream shape; equal keys ⇒ batchable together."""
        if self._structure is None:
            self._structure = tuple((op.kind, op.qubits) for op in self.ops)
        return self._structure

    # -- binding -------------------------------------------------------------
    def _view(self, parameters: List[Parameter]) -> "CompiledProgram":
        """This lowering seen through a template's ``Parameter`` objects:
        itself for its own parameters, else a view sharing the op list, so
        mapping-based :meth:`bind` matches the caller's identities at no
        lowering cost.

        The last :data:`_MAX_VIEWS` views live on the lowering (keyed by
        parameter ids, which cannot recycle while the view pins them), off
        the shared program cache's entry and byte limits.
        """
        ids = tuple(id(parameter) for parameter in parameters)
        if ids == tuple(id(parameter) for parameter in self.parameters):
            return self
        with _VIEWS_LOCK:
            if self._views is None:
                self._views = {}
            view = self._views.pop(ids, None)
            if view is None:
                view = CompiledProgram(self.num_qubits, self.ops,
                                       list(parameters), self.noise_model,
                                       self.fingerprint, self.fused,
                                       template=self)
                if len(self._views) >= _MAX_VIEWS:
                    del self._views[next(iter(self._views))]
            self._views[ids] = view
        return view

    def bind(self, parameters) -> "CompiledProgram":
        """Bind the template's free parameters, rebuilding only parametric ops.

        ``parameters`` is a mapping ``{Parameter: value}`` or a sequence
        aligned with the source circuit's ``ordered_parameters()``.  Static
        ops (matrices, diagonals, channels) are shared with the template —
        only ops touching a free parameter are recomputed.
        """
        if isinstance(parameters, Mapping):
            missing = [param.name for param in self.parameters
                       if param not in parameters]
            if missing:
                raise ValueError(
                    f"unbound parameters remain: {', '.join(missing)}")
            values = [float(parameters[param]) for param in self.parameters]
        else:
            values = list(parameters)
            if len(values) != len(self.parameters):
                raise ValueError(
                    f"expected {len(self.parameters)} parameter values, "
                    f"got {len(values)}")
        ops = list(self.ops)
        for index in self._parametric_indices:
            ops[index] = ops[index].bound(values, self.num_qubits)
        return CompiledProgram(self.num_qubits, ops, [], self.noise_model,
                               None, self.fused, template=self._template)

    def point_program(self, values: Sequence[float]) -> "CompiledProgram":
        """This template bound at ``values`` and lowered the way
        ``compile_circuit(circuit.bind_parameters(values))`` lowers the
        bound circuit: the two programs match op for op, bitwise.

        :meth:`bind` keeps the template's op structure, which is what lets
        :meth:`run_sweep` stack a sweep.  A bound circuit is lowered as a
        whole instead: an op that comes out monomial at its angles (``rx(π)``,
        ``ry(π/2)·rz(π)``, …) becomes an index gather and fuses into the
        neighbouring gathers.  At such a point the program re-runs that
        lowering (:func:`_finalize_ops`) over the template's pre-gather op
        list, bound; elsewhere the structural bind already is the bound
        circuit's lowering.
        """
        values = list(values)
        program = self.bind(values)
        if self.num_qubits > _MAX_PERM_QUBITS or not any(
                program.ops[index].kind == OP_UNITARY
                and _monomial_form(program.ops[index].data) is not None
                for index in self._parametric_indices):
            return program
        ops = [op.bound(values, self.num_qubits)
               for op in self._template._pregather]
        return CompiledProgram(self.num_qubits,
                               _finalize_ops(ops, self.num_qubits), [],
                               self.noise_model, None, self.fused,
                               template=self._template)

    # -- execution -----------------------------------------------------------
    def run_statevector(self, initial_state: Optional[np.ndarray] = None,
                        rng: Optional[np.random.Generator] = None
                        ) -> np.ndarray:
        """Execute on a dense ket; returns the final ``2^n`` statevector.

        Requires a bound, channel-free program.  ``rng`` drives projective
        resets (one uniform draw per reset, matching the interpreted path).
        """
        if self.has_channels:
            raise ValueError(
                "program carries noise channels; use run_density_matrix")
        n = self.num_qubits
        dim = 1 << n
        if initial_state is None:
            state = np.zeros(dim, dtype=complex)
            state[0] = 1.0
        else:
            state = np.array(initial_state, dtype=complex).ravel()
        tensor = state.reshape([2] * n)
        for op in self.ops:
            if op.kind == OP_DIAG:
                tensor = tensor * op.data
            elif op.kind == OP_PERM:
                source, phases = op.full_indices(n)
                flat = tensor.reshape(-1)[source]
                if phases is not None:
                    flat = flat * phases
                tensor = flat.reshape([2] * n)
            elif op.kind == OP_UNITARY:
                tensor = _contract(tensor, op.data, _ket_axes(op.qubits, n))
            elif op.kind == OP_RESET:
                flat = tensor.reshape(-1)
                flat = _reset_ket(flat, op.qubits[0],
                                  rng or np.random.default_rng())
                tensor = flat.reshape([2] * n)
            else:  # pragma: no cover - guarded above
                raise ValueError(f"statevector program cannot run {op.kind}")
        return tensor.reshape(-1)

    def run_density_matrix(self, initial_state: Optional[np.ndarray] = None,
                           apply_measure_noise: bool = False) -> np.ndarray:
        """Execute on a density matrix; returns the final ``2^n × 2^n`` ρ.

        Unitaries are applied as conjugations (diagonal ops as row/column
        phase multiplies), channels and resets as one superoperator
        contraction each.  :data:`OP_MEASURE_NOISE` ops fire only when
        ``apply_measure_noise``.
        """
        n = self.num_qubits
        dim = 1 << n
        if initial_state is None:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
        else:
            rho = np.array(initial_state, dtype=complex).reshape(dim, dim)
        for op in self.ops:
            if op.kind == OP_DIAG:
                rho = _dm_apply_diag(rho, op.data, n)
            elif op.kind == OP_PERM:
                source, phases = op.full_indices(n)
                rho = rho[source[:, None], source[None, :]]
                if phases is not None:
                    rho = rho * np.outer(phases, np.conj(phases))
            elif op.kind == OP_UNITARY:
                rho = _dm_apply_unitary(rho, op.data, op.qubits, n)
            elif op.kind in (OP_CHANNEL, OP_RESET):
                rho = _dm_apply_channel(rho, op.data, op.qubits, n)
            elif op.kind == OP_MEASURE_NOISE:
                if apply_measure_noise:
                    rho = _dm_apply_channel(rho, op.data, op.qubits, n)
        return rho

    def run_sweep(self, parameter_sets: Sequence[Sequence[float]]
                  ) -> np.ndarray:
        """Bind every parameter set and execute the batch in one pass.

        Binding is stacked: each parametric op's ``(B, 2^k, 2^k)`` matrices
        (or ``(B, …)`` phase tensor) fill straight from the ``(B, P)``
        parameter array, with no per-point program.  Returns the
        ``(B, 2^n)`` final statevectors, bitwise equal to
        ``run_batch([self.bind(values) for values in parameter_sets])`` —
        see :func:`run_batch` for the batching mechanics and restrictions.
        """
        if not len(parameter_sets):
            return run_batch([])
        points = np.asarray(parameter_sets, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} parameter values per "
                f"point, got an array of shape {points.shape}")
        _check_batchable(self)
        rows: List[Optional[object]] = [None] * len(self.ops)
        for index in self._parametric_indices:
            rows[index] = self.ops[index].stacked(points, self.num_qubits)
        return _run_stacked(self, rows, len(points))

    def __repr__(self):
        kind = "noisy" if self.noise_model is not None else "noiseless"
        return (f"CompiledProgram(qubits={self.num_qubits}, "
                f"ops={len(self.ops)}, {kind}, "
                f"parametric={self.is_parametric})")


# ---------------------------------------------------------------------------
# Low-level appliers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _contraction_plan(axes: Tuple[int, ...], ndim: int) -> tuple:
    """How :func:`_contract` reshapes for ``axes`` of an ``ndim``-axis
    ``(2,)*ndim`` tensor: ``(gate shape, matrix side, transpose order,
    operand shape, result shape, inverse order)``, derived the way
    ``np.tensordot`` and ``np.moveaxis`` derive them on every call."""
    k = len(axes)
    rest = [axis for axis in range(ndim) if axis not in axes]
    side = 1 << k
    # moveaxis(result, range(k), axes): the contracted axes land at
    # ``axes``, the rest keep their order.
    inverse = list(range(k, ndim))
    for destination, source in sorted(zip(axes, range(k))):
        inverse.insert(destination, source)
    return ((2,) * (2 * k), side, tuple(axes) + tuple(rest),
            (side, 1 << (ndim - k)), (2,) * ndim, tuple(inverse))


def _contract(tensor: np.ndarray, matrix: np.ndarray,
              axes: Tuple[int, ...]) -> np.ndarray:
    """Apply a ``2^k × 2^k`` matrix to ``axes`` of a ``(2,)*ndim`` tensor.

    ``axes[0]`` carries the matrix index's most significant bit.  Kets pass
    their target qubits' axes, density matrices their row or column axes
    (conjugations) or both (channel superoperators).  Bitwise equal to
    ``np.moveaxis(np.tensordot(matrix.reshape((2,)*2k), tensor,
    (range(k, 2k), axes)), range(k), axes)``: the same ``np.dot`` on the
    same operand layouts, with the axis bookkeeping planned once per
    ``(axes, ndim)``.
    """
    gate_shape, side, order, shape, result_shape, inverse = \
        _contraction_plan(axes, tensor.ndim)
    product = np.dot(matrix.reshape(gate_shape).reshape(side, side),
                     tensor.transpose(order).reshape(shape))
    return product.reshape(result_shape).transpose(inverse)


def _ket_axes(qubits: Sequence[int], num_qubits: int) -> Tuple[int, ...]:
    """Tensor axes of ``qubits`` in a ``(2,)*n`` ket, most significant
    matrix bit (the last qubit) first."""
    return tuple(num_qubits - 1 - q for q in reversed(qubits))


def _reset_ket(state: np.ndarray, qubit: int,
               rng: np.random.Generator) -> np.ndarray:
    """Projective reset of one qubit of a flat ket (one uniform draw)."""
    indices = np.arange(state.size)
    mask_one = (indices >> qubit) & 1 == 1
    prob_one = float(np.sum(np.abs(state[mask_one]) ** 2))
    if rng.random() < prob_one:
        new_state = np.zeros_like(state)
        new_state[indices[mask_one] ^ (1 << qubit)] = state[mask_one]
        norm = math.sqrt(prob_one)
    else:
        new_state = state.copy()
        new_state[mask_one] = 0.0
        norm = math.sqrt(max(1.0 - prob_one, 1e-300))
    return new_state / norm


def _batch_apply_unitary(states: np.ndarray, matrices: np.ndarray,
                         qubits: Tuple[int, ...], num_qubits: int
                         ) -> np.ndarray:
    """Apply a (shared or per-batch) matrix across a flat ``(B, 2^n)`` batch.

    ``matrices`` is ``(2^k, 2^k)`` (shared) or ``(B, 2^k, 2^k)`` (one per
    batch element); either way the whole batch is served by a single
    (stacked) matmul.
    """
    k = len(qubits)
    dim_k = 1 << k
    batch = states.shape[0]
    tensor = states.reshape([batch] + [2] * num_qubits)
    # State-tensor axes of the target qubits, most-significant qubit first,
    # offset by the leading batch axis.
    src = [1 + num_qubits - 1 - q for q in reversed(qubits)]
    dest = list(range(1, k + 1))
    moved = np.moveaxis(tensor, src, dest)
    shape = moved.shape
    flat = moved.reshape(batch, dim_k, -1)
    out = np.matmul(matrices, flat)
    out = np.moveaxis(out.reshape(shape), dest, src)
    return out.reshape(batch, -1)


def _dm_axes(qubits: Sequence[int], num_qubits: int
             ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    row_axes = _ket_axes(qubits, num_qubits)
    col_axes = tuple(num_qubits + axis for axis in row_axes)
    return row_axes, col_axes


def _dm_apply_unitary(rho: np.ndarray, matrix: np.ndarray,
                      qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    row_axes, col_axes = _dm_axes(qubits, num_qubits)
    tensor = rho.reshape([2] * (2 * num_qubits))
    tensor = _contract(tensor, matrix, row_axes)
    tensor = _contract(tensor, matrix.conj(), col_axes)
    return tensor.reshape(dim, dim)


def _dm_apply_diag(rho: np.ndarray, diag_tensor: np.ndarray,
                   num_qubits: int) -> np.ndarray:
    """ρ → D ρ D† for a diagonal D given as a broadcast-shaped phase tensor."""
    tensor = rho.reshape([2] * (2 * num_qubits))
    # Trailing-axis broadcasting hits the column axes; prepending singleton
    # axes shifts the same tensor onto the row axes.
    row_view = diag_tensor.reshape(diag_tensor.shape + (1,) * num_qubits)
    tensor = tensor * row_view
    tensor = tensor * np.conj(diag_tensor)
    dim = 1 << num_qubits
    return tensor.reshape(dim, dim)


def _dm_apply_channel(rho: np.ndarray, superoperator: np.ndarray,
                      qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """ρ → Σ_k K_k ρ K_k† as one contraction over the 2k row and column axes.

    ``superoperator`` is the channel's ``Σ K⊗K̄``
    (:meth:`~repro.simulators.noise.QuantumChannel.superoperator`): its row
    index is the output pair ``(i, j)``, its column index the input pair
    ``(a, b)``, so it contracts like a ``2k``-qubit matrix on the target
    qubits' row axes followed by their column axes.
    """
    dim = 1 << num_qubits
    row_axes, col_axes = _dm_axes(qubits, num_qubits)
    tensor = _contract(rho.reshape([2] * (2 * num_qubits)), superoperator,
                       row_axes + col_axes)
    return tensor.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _monomial_form(matrix: np.ndarray
                   ) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Read-only ``(columns, phases)`` of a monomial matrix, else ``None``.

    ``phases`` is ``None`` for a pure permutation.
    """
    nonzero = np.abs(matrix) > 1e-12
    if (nonzero.sum(axis=1) != 1).any():
        return None
    columns = np.argmax(nonzero, axis=1).astype(np.int64)
    columns.setflags(write=False)
    phases = matrix[np.arange(len(matrix)), columns]
    if (phases == 1.0).all():
        return columns, None
    phases.setflags(write=False)
    return columns, phases


#: Monomial forms of the named static gates, lowered once.  Only these names
#: key it: a bound rotation's name does not fix its matrix (``rx(π)`` is
#: monomial with phases, ``rx(0.3)`` is not monomial at all).
_STATIC_MONOMIALS = {name: _monomial_form(matrix)
                     for name, matrix in _STATIC_MATRICES.items()}


def _as_perm_op(op: CompiledOp) -> CompiledOp:
    """Convert a static unitary op to :data:`OP_PERM` when it is monomial.

    A monomial unitary (one nonzero per row — CX, SWAP, X, Y, and their
    products) applies as an index gather plus optional phases: one pass over
    the state instead of a matmul's several.  Non-monomial ops are returned
    unchanged.
    """
    factors = op.factors
    if len(factors) == 1 and factors[0].name in _STATIC_MONOMIALS:
        form = _STATIC_MONOMIALS[factors[0].name]
    else:
        form = _monomial_form(op.data)
    if form is None:
        return op
    return CompiledOp(OP_PERM, op.qubits, form, factors)


#: The gather-table memo, capped at 64 MiB.  One table is ``2^n`` int64
#: sources (plus ``2^n`` complex phases), 8 MiB at 20 qubits; a table larger
#: than the whole ceiling is built but not kept.
_PERM_TABLES = ByteMemo(64 * 1024 * 1024)


def _perm_table(run: Sequence[CompiledOp], num_qubits: int
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The memoized full-index ``(source, phases)`` gather of a perm run.

    Keyed by each op's ``(qubits, columns, phases)``, so every program whose
    run lowers to the same monomials shares one read-only table.
    """
    key = (num_qubits,) + tuple(
        (op.qubits, op.data[0].tobytes(),
         None if op.data[1] is None else op.data[1].tobytes())
        for op in run)
    cached = _PERM_TABLES.get(key)
    if cached is not None:
        return cached
    # Walk the run in reverse, applying each op's bit-level action to the
    # evolving index table: the composed gather builds in O(run length)
    # vectorized passes with no per-op tables.
    source = _index_arange(1 << num_qubits)
    phases = None
    for op in reversed(run):
        columns, op_phases = op.data
        source, phase_factors = _perm_apply_to_values(source, op.qubits,
                                                      columns, op_phases)
        if phase_factors is not None:
            phases = (phase_factors if phases is None
                      else phases * phase_factors)
    table = (source, phases)
    nbytes = 0
    for part in table:
        if part is not None:
            part.setflags(write=False)
            nbytes += part.nbytes
    _PERM_TABLES.put(key, table, nbytes)
    return table


def _fuse_perm_run(run: List[CompiledOp], num_qubits: int) -> CompiledOp:
    """Collapse consecutive PERM ops into one full-index gather.

    Permutation composition happens index-wise over the full ``2^n`` space,
    so a whole CNOT ladder (or any monomial-gate run) becomes a *single*
    gather per execution, regardless of which qubits each gate touched.
    """
    if len(run) == 1:
        return run[0]
    qubits = tuple(sorted({q for op in run for q in op.qubits}))
    factors = [factor for op in run for factor in (op.factors or [])]
    fused = CompiledOp(OP_PERM, qubits, None, factors)
    fused._full = _perm_table(run, num_qubits)
    return fused


def _finalize_ops(ops: List[CompiledOp], num_qubits: int) -> List[CompiledOp]:
    """Post-fusion lowering pass for resolved monomial unitaries.

    Each unitary whose matrix is known (every static op; a parametric op
    once bound) and has exactly one nonzero per row (CX, SWAP, X, Y and
    their products) is rewritten as an index gather (:data:`OP_PERM`), and
    consecutive gathers collapse into one.
    """
    if num_qubits > _MAX_PERM_QUBITS:
        return ops
    lowered = [_as_perm_op(op)
               if op.kind == OP_UNITARY and op.data is not None else op
               for op in ops]
    finalized: List[CompiledOp] = []
    run: List[CompiledOp] = []
    for op in lowered:
        if op.kind == OP_PERM:
            run.append(op)
            continue
        if run:
            finalized.append(_fuse_perm_run(run, num_qubits))
            run = []
        finalized.append(op)
    if run:
        finalized.append(_fuse_perm_run(run, num_qubits))
    return finalized


def _make_gate_op(inst, num_qubits: int,
                  positions: Mapping[Parameter, int]) -> CompiledOp:
    """Lower one unitary instruction to an (unfused) compiled op;
    ``positions`` maps each free parameter to its value-vector index."""
    gate = inst.gate
    diag = gate.name in DIAGONAL_GATE_NAMES
    if gate.is_parameterized:
        forms = tuple(linear_form(value, positions) for value in gate.params)
        factor = _Factor(gate.name, forms, None, diag)
        return CompiledOp(OP_DIAG if diag else OP_UNITARY, inst.qubits,
                          None, [factor])
    matrix = gate.matrix()
    if diag:
        vector = _diag_vector(matrix)
        factor = _Factor(gate.name, None, vector, True)
        return CompiledOp(OP_DIAG, inst.qubits,
                          _broadcast_diag(vector, inst.qubits, num_qubits),
                          [factor], raw_diag=vector)
    factor = _Factor(gate.name, None, matrix, False)
    return CompiledOp(OP_UNITARY, inst.qubits, matrix, [factor])


def _try_fuse(previous: CompiledOp, new: CompiledOp,
              num_qubits: int) -> Optional[CompiledOp]:
    """Fuse two adjacent gate ops acting on the identical qubit tuple."""
    if previous.kind not in (OP_UNITARY, OP_DIAG):
        return None
    if new.kind not in (OP_UNITARY, OP_DIAG):
        return None
    if previous.qubits != new.qubits:
        return None
    factors = list(previous.factors) + list(new.factors)
    if previous.is_parametric or new.is_parametric:
        diag = previous.kind == OP_DIAG and new.kind == OP_DIAG
        return CompiledOp(OP_DIAG if diag else OP_UNITARY, new.qubits,
                          None, factors)
    if previous.kind == OP_DIAG and new.kind == OP_DIAG:
        merged = previous.raw_diag * new.raw_diag
        return CompiledOp(OP_DIAG, new.qubits,
                          _broadcast_diag(merged, new.qubits, num_qubits),
                          factors, raw_diag=merged)
    left = (np.diag(new.raw_diag) if new.kind == OP_DIAG else new.data)
    right = (np.diag(previous.raw_diag) if previous.kind == OP_DIAG
             else previous.data)
    return CompiledOp(OP_UNITARY, new.qubits, left @ right, factors)


def _merged_channel(channels: List[QuantumChannel]) -> QuantumChannel:
    """Compose a gate's channel list into one per-slot channel."""
    merged = channels[0]
    for channel in channels[1:]:
        merged = channel.compose(merged)
    return merged


def _reset_op(qubits: Tuple[int, ...]) -> CompiledOp:
    return CompiledOp(OP_RESET, qubits, RESET_CHANNEL.superoperator())


def _compile_noiseless(circuit: QuantumCircuit, fuse: bool,
                       positions: Mapping[Parameter, int]
                       ) -> List[CompiledOp]:
    """Instruction-order lowering: fusion + diagonal fast path, no channels."""
    num_qubits = circuit.num_qubits
    ops: List[CompiledOp] = []
    for inst in circuit:
        name = inst.name
        if name in ("barrier", "measure", "i", "id"):
            continue  # no-ops on a noiseless ket; identities are dropped
        if name == "reset":
            ops.append(_reset_op(inst.qubits))
            continue
        new = _make_gate_op(inst, num_qubits, positions)
        if fuse and ops:
            fused = _try_fuse(ops[-1], new, num_qubits)
            if fused is not None:
                ops[-1] = fused
                continue
        ops.append(new)
    return ops


def _compile_noisy(circuit: QuantumCircuit, noise_model: NoiseModel,
                   positions: Mapping[Parameter, int]) -> List[CompiledOp]:
    """Layer-order lowering mirroring ``DensityMatrixSimulator.run``.

    Fusion is skipped: every unitary keeps its exact position so its
    pre-merged noise channel lands where the interpreted loop put it.  Idle
    channels are appended per layer, readout flips become
    :data:`OP_MEASURE_NOISE` ops the executor applies on demand.
    """
    num_qubits = circuit.num_qubits
    idle_channel = noise_model.idle_channel
    merged_cache: Dict[str, Optional[QuantumChannel]] = {}
    readout = None
    if noise_model.readout_error > 0:
        readout = bit_flip_channel(noise_model.readout_error)
    ops: List[CompiledOp] = []
    for layer in circuit.layers():
        busy: set = set()
        for inst in layer:
            busy.update(inst.qubits)
            name = inst.name
            if name == "measure":
                if readout is not None:
                    ops.append(CompiledOp(OP_MEASURE_NOISE, inst.qubits,
                                          readout.superoperator()))
                continue
            if name == "reset":
                ops.append(_reset_op(inst.qubits))
                continue
            ops.append(_make_gate_op(inst, num_qubits, positions))
            if name not in merged_cache:
                channels = noise_model.gate_channels(name)
                merged_cache[name] = (_merged_channel(channels)
                                      if channels else None)
            merged = merged_cache[name]
            if merged is not None:
                ops.append(CompiledOp(OP_CHANNEL, inst.qubits,
                                      merged.superoperator()))
        if idle_channel is not None:
            idle = idle_channel.superoperator()
            for qubit in range(num_qubits):
                if qubit not in busy:
                    ops.append(CompiledOp(OP_CHANNEL, (qubit,), idle))
    return ops


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

#: The program cache: at most 512 programs and about 256 MiB of payload.
#: Fused permutation ops hold O(2^n) gather tables, so one-shot bound
#: circuits at high qubit counts would otherwise pin gigabytes of
#: never-reused programs.
_PROGRAM_CACHE = ByteMemo(256 * 1024 * 1024, max_entries=512)
#: Guards the per-lowering view tables (see ``CompiledProgram._view``).
_VIEWS_LOCK = threading.Lock()
#: Parameter-identity views kept per lowering.
_MAX_VIEWS = 16
#: :mod:`repro.obs` name prefix of the compile and program-cache hit counters.
_COUNTERS = "simulators.program_cache."


def _program_nbytes(program: CompiledProgram) -> int:
    """Estimated numeric payload of a program (for cache accounting).

    Perm ops that have not materialized their ``O(2^n)`` gather tables yet
    are charged their *eventual* size: the tables appear lazily on first
    run, after the program has been inserted into the cache, so accounting
    only what exists at insert time would defeat the byte ceiling.
    """
    dim = 1 << program.num_qubits
    total = 0
    for op in program.ops:
        total += _array_bytes(op.data)
        if op._full is not None:
            total += _array_bytes(op._full)
        elif op.kind == OP_PERM:
            total += dim * 8  # int64 source table, built on first run
            if op.data[1] is not None:
                total += dim * 16  # complex128 phase table
    if program._pregather is not None:
        # The pre-gather list keeps alive the dense data of every op the
        # monomial lowering replaced.
        kept = {id(op) for op in program.ops}
        total += sum(_array_bytes(op.data) for op in program._pregather
                     if id(op) not in kept)
    return total


def _array_bytes(data) -> int:
    """Bytes of the arrays in an op's ``data`` (an array or a tuple)."""
    parts = data if isinstance(data, (tuple, list)) else (data,)
    return sum(part.nbytes for part in parts if isinstance(part, np.ndarray))


def program_cache_counters() -> Tuple[int, int]:
    """Process-wide ``(programs_compiled, program_cache_hits)`` counters,
    including the compiles and hits process shards made for this process.

    The execution layer samples these around dispatch to attribute compile
    activity to its :class:`~repro.execution.executor.ExecutionStats`.
    """
    counts = obs.read(_COUNTERS)
    return counts.get("compiled", 0), counts.get("hits", 0)


def clear_program_cache() -> None:
    """Drop every cached program and gather table, reset the counters.

    Mainly for tests.
    """
    _PROGRAM_CACHE.clear()
    obs.reset(_COUNTERS)
    _PERM_TABLES.clear()


def _noise_cache_token(noise_model: Optional[NoiseModel]):
    if noise_model is None or not noise_model.has_noise():
        return None
    return (id(noise_model), noise_model.version)


def cached_program(key, build: Callable[[], object],
                   nbytes: Callable[[object], int]):
    """The program cached under ``key``, or ``build()`` it and cache it.

    The one memo behind every compiled-program kind (statevector/density
    programs here, Clifford propagation programs in
    :mod:`repro.simulators.pauli_propagation`): bounded by entry count and
    by the ``nbytes`` payload estimate, LRU-evicted, and counted in
    :func:`program_cache_counters`.
    """
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        obs.add(_COUNTERS + "hits")
        return cached
    program = build()
    obs.add(_COUNTERS + "compiled")
    _PROGRAM_CACHE.put(key, program, nbytes(program))
    return program


def compile_circuit(circuit: QuantumCircuit,
                    noise_model: Optional[NoiseModel] = None,
                    fuse: bool = True,
                    use_cache: bool = True) -> CompiledProgram:
    """Lower ``circuit`` to a :class:`CompiledProgram` (cached).

    Without a noise model the program is the statevector fast path:
    instruction-ordered, adjacent same-qubit unitaries fused, diagonal gates
    lowered to phase vectors, barriers/measurements dropped.  With a noise
    model the program is layer-ordered with pre-merged Kraus channel ops and
    **fusion disabled** (channels must keep their positions); it is what
    :class:`~repro.simulators.density_matrix.DensityMatrixSimulator` executes.

    Lowerings are cached by ``circuit.fingerprint()`` plus the noise
    model's identity and mutation
    :attr:`~repro.simulators.noise.NoiseModel.version` (and the ``fuse``
    flag), so an in-place ``add_*`` edit invalidates stale programs.
    Parametric circuits compile their structure once; use
    :meth:`CompiledProgram.bind` per parameter vector.  Structurally
    identical templates built from distinct ``Parameter`` objects share
    one lowering: each later one gets a view holding its own parameters
    (so mapping-based ``bind`` matches its identities), kept on the
    lowering rather than in the shared cache, and a lowering skipped this
    way counts as a program-cache hit.
    """
    parameters = circuit.ordered_parameters()
    fingerprint = circuit.fingerprint()

    def build() -> CompiledProgram:
        positions = {param: index for index, param in enumerate(parameters)}
        if noise_model is not None and noise_model.has_noise():
            ops = _compile_noisy(circuit, noise_model, positions)
            effective_fuse = False
        else:
            ops = _compile_noiseless(circuit, fuse, positions)
            effective_fuse = fuse
        # Only a template's point_program reads the pre-gather list.
        return CompiledProgram(circuit.num_qubits,
                               _finalize_ops(ops, circuit.num_qubits),
                               parameters, noise_model, fingerprint,
                               effective_fuse,
                               pregather=ops if parameters else None)

    if not use_cache:
        obs.add(_COUNTERS + "compiled")
        return build()
    # The fingerprint fixes every linear form's terms but not the order an
    # expression lists them in, which sets the float sum a bind computes;
    # multi-term forms add that order to the key (empty for most circuits).
    term_orders = tuple(tuple(position for position, _ in terms)
                        for _, forms in circuit.parametric_slots()
                        for _, terms in forms if len(terms) > 1)
    key = (fingerprint, term_orders, fuse, _noise_cache_token(noise_model))
    return cached_program(key, build, _program_nbytes)._view(parameters)


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------

def _check_batchable(program: CompiledProgram) -> None:
    if program.has_channels:
        raise ValueError("run_batch cannot execute noisy programs")
    if program.has_reset:
        raise ValueError(
            "run_batch cannot batch programs with projective resets")


def _stack_programs(programs: List[CompiledProgram]
                    ) -> List[Optional[object]]:
    """Validate structure-sharing bound programs and stack their ops into
    :func:`_run_stacked`'s per-op ``rows``."""
    first = programs[0]
    structure = first.structure_key()
    for program in programs[1:]:
        if program.structure_key() != structure:
            raise ValueError(
                "run_batch requires programs sharing one op structure "
                "(bind them from the same compiled template)")
    _check_batchable(first)
    for program in programs:
        if not program.is_bound:
            raise ValueError("run_batch requires bound programs")
    # Programs bound from one template share every static op object, so the
    # per-op stacking decision reduces to the template's parametric index
    # set; mixed-origin batches fall back to identity checks per op.
    template = first._template
    same_template = all(program._template is template
                        for program in programs[1:])
    parametric_indices = set(first._parametric_indices)
    data: List[Optional[object]] = [None] * len(first.ops)
    for index, lead in enumerate(first.ops):
        if same_template and index not in parametric_indices:
            continue
        ops = [program.ops[index] for program in programs]
        if all(op is lead for op in ops):
            continue
        # Perm ops are static by construction (parametric ops never lower
        # to PERM), but mixed-origin batches may hold *different* monomials
        # behind one structure key — those gather row by row.
        data[index] = (ops if lead.kind == OP_PERM
                       else np.stack([op.data for op in ops]))
    return data


def run_batch(programs: Sequence[CompiledProgram],
              initial_states: Optional[np.ndarray] = None) -> np.ndarray:
    """Execute structure-sharing bound programs as one stacked pass.

    All programs must be bound, channel- and reset-free, and share one op
    structure (programs bound from one template always do).  Each op is
    applied across the whole ``(B, 2^n)`` batch in a single contraction:
    ops that are static in the template are applied as one broadcast matmul
    or phase multiply; parametric ops stack their per-program matrices into
    one ``(B, 2^k, 2^k)`` batched matmul.  Returns the ``(B, 2^n)`` final
    states in input order.  Example::

        program = compile_circuit(template)
        states = run_batch([program.bind(theta) for theta in sweep])
    """
    programs = list(programs)
    if not programs:
        return np.zeros((0, 0), dtype=complex)
    return _run_stacked(programs[0], _stack_programs(programs),
                        len(programs), initial_states)


def _run_stacked(program: CompiledProgram, rows: List[Optional[object]],
                 batch: int, initial_states: Optional[np.ndarray] = None
                 ) -> np.ndarray:
    """The ``(B, 2^n)`` states after a batch's ops: those of ``program``
    (the template or any bound program of the batch), where ``rows[i]`` is
    None when op ``i`` is shared by every row, else its per-row data — a
    stacked ``(B, …)`` array, or a list of ops for perm rows that differ."""
    n = program.num_qubits
    dim = 1 << n
    if initial_states is None:
        states = np.zeros((batch, dim), dtype=complex)
        states[:, 0] = 1.0
    else:
        states = np.array(initial_states, dtype=complex).reshape(batch, dim)

    for lead, data in zip(program.ops, rows):
        if lead.kind == OP_PERM:
            if data is None:
                source, phases = lead.full_indices(n)
                states = states[:, source]
                if phases is not None:
                    states *= phases
            else:
                for row, op in enumerate(data):
                    source, phases = op.full_indices(n)
                    gathered = states[row, source]
                    if phases is not None:
                        gathered = gathered * phases
                    states[row] = gathered
        elif lead.kind == OP_DIAG:
            tensor = states.reshape([batch] + [2] * n)
            tensor = tensor * (lead.data if data is None else data)
            states = tensor.reshape(batch, dim)
        else:  # OP_UNITARY
            states = _batch_apply_unitary(
                states, lead.data if data is None else data, lead.qubits, n)
    return states.reshape(batch, dim)
