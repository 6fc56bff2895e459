"""Symbolic parameters for variational circuits.

Variational quantum algorithms (VQAs) are built from circuits whose rotation
angles are tunable.  This module provides a small affine-expression system:
``Parameter`` objects are free symbols, and ``ParameterExpression`` objects
represent ``sum_i c_i * p_i + offset``.  This is all that VQA ansatze need
(negation, doubling and shifting of angles, e.g. the compensatory ``Rz(2θ)``
rotation used by magic-state injection), while staying far simpler than a
general symbolic algebra system.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Number = Union[int, float]

#: ``(offset, ((position, coefficient), ...))``: an affine expression over
#: positional parameter values, terms in the expression's own order.
LinearForm = Tuple[float, Tuple[Tuple[int, float], ...]]

_parameter_counter = itertools.count()


class ParameterExpression:
    """An affine combination of :class:`Parameter` objects plus a constant.

    Instances are immutable.  Arithmetic operations (+, -, *, /, unary -)
    return new expressions.  An expression with no free parameters can be
    converted to ``float``.
    """

    __slots__ = ("_terms", "_offset")

    def __init__(self, terms: Mapping["Parameter", float] | None = None,
                 offset: float = 0.0):
        cleaned: Dict[Parameter, float] = {}
        if terms:
            for param, coeff in terms.items():
                coeff = float(coeff)
                if coeff != 0.0:
                    cleaned[param] = coeff
        self._terms = cleaned
        self._offset = float(offset)

    # -- introspection -----------------------------------------------------
    @property
    def parameters(self) -> frozenset["Parameter"]:
        """The set of free parameters appearing in this expression."""
        return frozenset(self._terms)

    @property
    def is_bound(self) -> bool:
        """True when the expression contains no free parameters."""
        return not self._terms

    @property
    def offset(self) -> float:
        return self._offset

    def coefficient(self, parameter: "Parameter") -> float:
        """Coefficient of ``parameter`` in this expression (0.0 if absent)."""
        return self._terms.get(parameter, 0.0)

    # -- evaluation --------------------------------------------------------
    def bind(self, values: Mapping["Parameter", Number]) -> "ParameterExpression":
        """Substitute values for (a subset of) the free parameters."""
        terms: Dict[Parameter, float] = {}
        offset = self._offset
        for param, coeff in self._terms.items():
            if param in values:
                offset += coeff * float(values[param])
            else:
                terms[param] = coeff
        return ParameterExpression(terms, offset)

    def evaluate(self, values: Mapping["Parameter", Number]) -> float:
        """Fully evaluate the expression; every free parameter must be bound."""
        bound = self.bind(values)
        if not bound.is_bound:
            missing = ", ".join(sorted(p.name for p in bound.parameters))
            raise ValueError(f"unbound parameters remain: {missing}")
        return bound._offset

    def __float__(self) -> float:
        if not self.is_bound:
            missing = ", ".join(sorted(p.name for p in self.parameters))
            raise TypeError(
                f"cannot convert parameterized expression to float; "
                f"unbound parameters: {missing}")
        return self._offset

    # -- arithmetic --------------------------------------------------------
    def _as_expression(self, other) -> "ParameterExpression | None":
        if isinstance(other, ParameterExpression):
            return other
        if isinstance(other, (int, float)):
            return ParameterExpression({}, float(other))
        return None

    def __add__(self, other):
        other_expr = self._as_expression(other)
        if other_expr is None:
            return NotImplemented
        terms = dict(self._terms)
        for param, coeff in other_expr._terms.items():
            terms[param] = terms.get(param, 0.0) + coeff
        return ParameterExpression(terms, self._offset + other_expr._offset)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ParameterExpression(
            {p: -c for p, c in self._terms.items()}, -self._offset)

    def __sub__(self, other):
        other_expr = self._as_expression(other)
        if other_expr is None:
            return NotImplemented
        return self + (-other_expr)

    def __rsub__(self, other):
        other_expr = self._as_expression(other)
        if other_expr is None:
            return NotImplemented
        return other_expr + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        scale = float(other)
        return ParameterExpression(
            {p: c * scale for p, c in self._terms.items()}, self._offset * scale)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of parameter expression by zero")
        return self * (1.0 / float(other))

    # -- comparison / hashing ----------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, float)):
            return self.is_bound and math.isclose(self._offset, float(other))
        if isinstance(other, ParameterExpression):
            return (self._terms == other._terms
                    and math.isclose(self._offset, other._offset))
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self._terms.items()), round(self._offset, 12)))

    def __repr__(self):
        if self.is_bound:
            return f"ParameterExpression({self._offset:g})"
        parts = []
        for param, coeff in sorted(self._terms.items(), key=lambda kv: kv[0].name):
            if coeff == 1.0:
                parts.append(param.name)
            else:
                parts.append(f"{coeff:g}*{param.name}")
        body = " + ".join(parts)
        if self._offset:
            body += f" + {self._offset:g}"
        return body


class Parameter(ParameterExpression):
    """A named free symbol used as a circuit rotation angle.

    Parameters support arithmetic (``0.5 * theta + 1``) producing
    :class:`ParameterExpression` trees that are evaluated when the circuit is
    bound; identity (not the display name) distinguishes two parameters, so
    templates can be composed safely.  Example::

        theta = Parameter("θ")
        circuit.rz(2 * theta, 0)
        bound = circuit.bind_parameters({theta: 0.25})
    """

    __slots__ = ("_name", "_uuid")

    def __init__(self, name: str):
        self._name = str(name)
        self._uuid = next(_parameter_counter)
        super().__init__({self: 1.0}, 0.0)

    @property
    def name(self) -> str:
        return self._name

    def __eq__(self, other):
        if isinstance(other, Parameter):
            return self._uuid == other._uuid
        return super().__eq__(other)

    def __hash__(self):
        return hash(("Parameter", self._uuid))

    def __reduce__(self):
        # Default (slot-based) pickling would reconstruct the
        # self-referential ``_terms`` dict ``{self: 1.0}`` by hashing a
        # half-initialized instance whose ``_uuid`` slot is still unset.
        # Rebuild through the helper instead, which restores identity first
        # — parameters must pickle cleanly because parametric templates
        # travel to shard worker processes (``parallel="process"``).
        return (_restore_parameter, (self._name, self._uuid))

    def __repr__(self):
        return f"Parameter({self._name})"


def _restore_parameter(name: str, uuid: int) -> "Parameter":
    """Unpickle target for :class:`Parameter` (identity before ``_terms``)."""
    parameter = Parameter.__new__(Parameter)
    parameter._name = str(name)
    parameter._uuid = uuid
    ParameterExpression.__init__(parameter, {parameter: 1.0}, 0.0)
    return parameter


class ParameterVector:
    """An ordered collection of named parameters, e.g. ``theta[0] ... theta[n-1]``."""

    def __init__(self, name: str, length: int):
        if length < 0:
            raise ValueError("ParameterVector length must be non-negative")
        self._name = name
        self._params = [Parameter(f"{name}[{i}]") for i in range(length)]

    @property
    def name(self) -> str:
        return self._name

    @property
    def params(self) -> list[Parameter]:
        return list(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, index):
        return self._params[index]

    def __iter__(self):
        return iter(self._params)

    def __repr__(self):
        return f"ParameterVector({self._name}, length={len(self._params)})"


def bind_value(value, bindings: Mapping[Parameter, Number]) -> float | ParameterExpression:
    """Bind ``value`` (number or expression) against ``bindings``.

    Returns a plain ``float`` when fully bound, otherwise the partially-bound
    expression.
    """
    if isinstance(value, ParameterExpression):
        bound = value.bind(bindings)
        return float(bound) if bound.is_bound else bound
    return float(value)


def linear_form(value, positions: Mapping[Parameter, int]) -> LinearForm:
    """``value`` (number or expression) as a :data:`LinearForm` over
    ``positions`` (each free parameter's index in the value vector).

    Terms keep the expression's own order, so :func:`evaluate_form` adds
    them exactly as :meth:`ParameterExpression.bind` does and lands on the
    same float.
    """
    if isinstance(value, ParameterExpression):
        return value._offset, tuple((positions[param], coeff)
                                    for param, coeff in value._terms.items())
    return float(value), ()


def evaluate_form(form: LinearForm, values: Sequence[Number]) -> float:
    """The float a :data:`LinearForm` takes at positional ``values``:
    bitwise the value :func:`bind_value` gives the source expression."""
    offset, terms = form
    for position, coeff in terms:
        offset += coeff * float(values[position])
    return offset


def free_parameters(values: Iterable) -> frozenset[Parameter]:
    """Collect the free parameters across an iterable of gate parameters."""
    found: set[Parameter] = set()
    for value in values:
        if isinstance(value, ParameterExpression):
            found.update(value.parameters)
    return frozenset(found)
