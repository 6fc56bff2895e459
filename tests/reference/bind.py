"""Per-op parametric binding: the correctness reference.

:meth:`repro.simulators.program.CompiledProgram.bind` rebuilds a
template's parametric ops group by group, one stacked call per factor for
every op of one factor signature.  These functions rebuild each op on its
own instead, the way the program did before ops were grouped: scalar gate
matrices and diagonals at one point, one stacked call per op and factor
over a sweep.  They exist only for the grouped kernel's bitwise
differential tests.
"""

import numpy as np

from repro.circuits.gates import parametric_matrix
from repro.circuits.parameters import evaluate_form
from repro.simulators.program import (OP_DIAG, CompiledOp, CompiledProgram,
                                      _broadcast_diag, _diag_product,
                                      _matrix_product, _stacked_gate)


def _parametric_diag(name, params):
    """Diagonal phase vector of a parametric diagonal gate (rz / rzz)."""
    half = params[0] / 2.0
    phase, conj = np.exp(-1j * half), np.exp(1j * half)
    if name == "rz":
        return np.array([phase, conj])
    if name == "rzz":
        return np.array([phase, conj, conj, phase])
    raise ValueError(f"gate {name!r} is not a parametric diagonal gate")


def _resolve(factor, values):
    if factor.static is not None:
        return factor.static
    angles = tuple(evaluate_form(form, values) for form in factor.forms)
    if factor.diag:
        return _parametric_diag(factor.name, angles)
    return parametric_matrix(factor.name, angles)


def _stacked_form(form, points):
    offset, terms = form
    if not terms:
        return np.full(len(points), offset)
    column = offset + terms[0][1] * points[:, terms[0][0]]
    for position, coeff in terms[1:]:
        column = column + coeff * points[:, position]
    return column


def _resolve_stacked(factor, points):
    if factor.static is not None:
        return factor.static
    return _stacked_gate(factor.name, [_stacked_form(form, points)
                                       for form in factor.forms])


def bound_op(op, values, num_qubits):
    """A bound copy of one compiled op, its factors resolved one by one."""
    if not op.is_parametric:
        return op
    arrays = [_resolve(factor, values) for factor in op.factors]
    if op.kind == OP_DIAG:
        diag = _diag_product(arrays)
        return CompiledOp(OP_DIAG, op.qubits,
                          _broadcast_diag(diag, op.qubits, num_qubits),
                          op.factors, raw_diag=diag)
    return CompiledOp(op.kind, op.qubits,
                      _matrix_product(op.factors, arrays), op.factors)


def bind(program, values):
    """``program.bind(values)`` for a positional ``values`` sequence, op by
    op."""
    values = [float(value) for value in values]
    ops = [bound_op(op, values, program.num_qubits) for op in program.ops]
    return CompiledProgram(program.num_qubits, ops, [],
                           program.noise_model, None, program.fused,
                           template=program._template)


def stacked_data(op, points, num_qubits):
    """One parametric op's data at every row of the ``(B, P)`` points,
    stacked on a leading axis, the op bound on its own."""
    arrays = [_resolve_stacked(factor, points) for factor in op.factors]
    if op.kind == OP_DIAG:
        return _broadcast_diag(_diag_product(arrays), op.qubits, num_qubits)
    return _matrix_product(op.factors, arrays)
