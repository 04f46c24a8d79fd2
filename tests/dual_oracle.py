"""The seeded Dual pass: the test oracle of the compiled forward pass.

hlift differentiates fields only by the straight-line code of
expr.compile_forward.  This module is an independent forward mode by
operator overloading, with its own walk of the expression tree, against
which the tests compare every value, partial and error of that code.

A Dual carries a float value and a gradient row with respect to a fixed
set of seed variables.  The gradient length is chosen when the seeds are
created and every Dual touched by one evaluation must share it; mixing
lengths is a programming error and raises ValueError immediately.

Gradient arrays are treated as immutable once attached to a Dual.  Ops
that do not change the gradient share the array instead of copying it,
so never write into `d.grad`.

The module-level math functions (exp, log, sin, ...) accept plain floats
as well as Duals.  The float branch and the Dual value part go through
the same math-library calls in the same order, so a real evaluation and
the value part of a dual evaluation agree bit for bit.

dual_bundle and dual_components run the whole pass of a system or a
list of fields with numpy's floating-point warnings silenced: where a
gradient overflows they return inf or nan, and the tests require hlift
to raise NonFiniteError there.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from hlift.errors import (AsymmetricMetricError, ExprEvalError,
                          FieldEvalError, NonFiniteError)
from hlift.expr import CONSTANTS, Binary, Call, Num, Unary, Var
from hlift.geometry import _ASYMMETRY_TOL, FieldBundle

_ZERO_GRADS: dict = {}


def _zeros(m: int) -> np.ndarray:
    """Shared read-only zero gradient of length m."""
    z = _ZERO_GRADS.get(m)
    if z is None:
        z = np.zeros(m)
        z.flags.writeable = False
        _ZERO_GRADS[m] = z
    return z


class Dual:
    """Value plus gradient with respect to the seed variables."""

    __slots__ = ("val", "grad")

    def __init__(self, val: float, grad: np.ndarray):
        self.val = val
        self.grad = grad

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    def __radd__(self, other):
        return Dual(other + self.val, self.grad)

    def __sub__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val * other.val,
                        self.val * other.grad + other.val * self.grad)
        return Dual(self.val * other, other * self.grad)

    def __rmul__(self, other):
        return Dual(other * self.val, other * self.grad)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            self._check(other)
            if other.val == 0.0:
                raise ZeroDivisionError("division by zero in dual arithmetic")
            inv = 1.0 / other.val
            return Dual(self.val / other.val,
                        inv * self.grad - (self.val * inv * inv) * other.grad)
        if other == 0:
            raise ZeroDivisionError("division by zero in dual arithmetic")
        return Dual(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        if self.val == 0.0:
            raise ZeroDivisionError("division by zero in dual arithmetic")
        return Dual(other / self.val, (-other / (self.val * self.val)) * self.grad)

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __pos__(self):
        return self

    def __abs__(self):
        if self.val < 0.0:
            return Dual(-self.val, -self.grad)
        if self.val == 0.0:
            # subgradient convention: slope 0 at the kink
            return Dual(0.0, 0.0 * self.grad)
        return Dual(self.val, self.grad)

    def __pow__(self, other):
        return powx(self, other)

    def __rpow__(self, other):
        return powx(other, self)

    # -- comparisons act on the value part -----------------------------

    def _cmp(self, other) -> float:
        return other.val if isinstance(other, Dual) else other

    def __lt__(self, other):
        return self.val < self._cmp(other)

    def __le__(self, other):
        return self.val <= self._cmp(other)

    def __gt__(self, other):
        return self.val > self._cmp(other)

    def __ge__(self, other):
        return self.val >= self._cmp(other)

    def __eq__(self, other):
        return self.val == self._cmp(other)

    def __ne__(self, other):
        return self.val != self._cmp(other)

    __hash__ = None

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"

    def _check(self, other: "Dual") -> None:
        if self.grad.shape != other.grad.shape:
            raise ValueError(
                "mixed seed dimensions in dual arithmetic: "
                f"{self.grad.shape[0]} vs {other.grad.shape[0]}")


_UNIT_ROWS: dict = {}


def _unit_rows(m: int):
    # frozen rows are shared across all seeds of the same dimension;
    # safe because dual arithmetic never writes into gradient arrays
    rows = _UNIT_ROWS.get(m)
    if rows is None:
        rows = []
        for i in range(m):
            g = np.zeros(m)
            g[i] = 1.0
            g.flags.writeable = False
            rows.append(g)
        _UNIT_ROWS[m] = rows
    return rows


def finite_coords(point: Sequence[float]) -> list:
    """The coordinates of `point` as floats; NonFiniteError if any is
    not finite, because it cannot be seeded."""
    pt = [float(c) for c in point]
    for c in pt:
        if not math.isfinite(c):
            raise NonFiniteError(f"cannot seed non-finite coordinate {c!r}")
    return pt


def seed(point: Sequence[float]) -> list:
    """Duals for every coordinate of `point`, with unit gradient rows.

    Raises NonFiniteError if any coordinate is not finite.
    """
    pt = finite_coords(point)
    rows = _unit_rows(len(pt))
    return [Dual(c, rows[i]) for i, c in enumerate(pt)]


def variable(val: float, index: int, dim: int) -> Dual:
    """One seeded dual on its own: d/d(seed index) of val is 1."""
    if not math.isfinite(val):
        raise NonFiniteError(f"cannot seed non-finite value {val!r}")
    return Dual(float(val), _unit_rows(dim)[index])


def value(x: float | Dual) -> float:
    return x.val if isinstance(x, Dual) else float(x)


def value_and_grad(x: float | Dual, m: int):
    """(value, gradient) of a scalar that may be a constant."""
    if isinstance(x, Dual):
        if x.grad.shape[0] != m:
            raise ValueError(
                f"seed dimension mismatch: expected {m}, got {x.grad.shape[0]}")
        return x.val, x.grad
    return float(x), _zeros(m)


def gradient(f: Callable, point: Sequence[float]) -> np.ndarray:
    """Gradient of f at point, where f maps a list of scalars to a scalar."""
    duals = seed(point)
    out = f(duals)
    if isinstance(out, Dual):
        return out.grad.copy()
    return np.zeros(len(duals))


# -- elementary functions, generic over float | Dual -------------------

def exp(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        try:
            v = math.exp(x.val)
        except OverflowError:
            raise NonFiniteError(f"exp overflow at {x.val!r}") from None
        return Dual(v, v * x.grad)
    try:
        return math.exp(x)
    except OverflowError:
        raise NonFiniteError(f"exp overflow at {x!r}") from None


def log(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        if x.val <= 0.0:
            raise NonFiniteError(f"log of non-positive value {x.val!r}")
        return Dual(math.log(x.val), (1.0 / x.val) * x.grad)
    if x <= 0.0:
        raise NonFiniteError(f"log of non-positive value {x!r}")
    return math.log(x)


def sqrt(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        if x.val < 0.0:
            raise NonFiniteError(f"sqrt of negative value {x.val!r}")
        # the derivative blows up at 0, so 0 is rejected for duals
        if x.val == 0.0:
            raise NonFiniteError("derivative of sqrt is unbounded at 0.0")
        v = math.sqrt(x.val)
        return Dual(v, (0.5 / v) * x.grad)
    if x < 0.0:
        raise NonFiniteError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def sin(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        return Dual(math.sin(x.val), math.cos(x.val) * x.grad)
    return math.sin(x)


def cos(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        return Dual(math.cos(x.val), -math.sin(x.val) * x.grad)
    return math.cos(x)


def tan(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        v = math.tan(x.val)
        c = math.cos(x.val)
        return Dual(v, (1.0 / (c * c)) * x.grad)
    return math.tan(x)


def sinh(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        try:
            return Dual(math.sinh(x.val), math.cosh(x.val) * x.grad)
        except OverflowError:
            raise NonFiniteError(f"sinh overflow at {x.val!r}") from None
    try:
        return math.sinh(x)
    except OverflowError:
        raise NonFiniteError(f"sinh overflow at {x!r}") from None


def cosh(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        try:
            return Dual(math.cosh(x.val), math.sinh(x.val) * x.grad)
        except OverflowError:
            raise NonFiniteError(f"cosh overflow at {x.val!r}") from None
    try:
        return math.cosh(x)
    except OverflowError:
        raise NonFiniteError(f"cosh overflow at {x!r}") from None


def tanh(x: float | Dual) -> float | Dual:
    if isinstance(x, Dual):
        v = math.tanh(x.val)
        return Dual(v, (1.0 - v * v) * x.grad)
    return math.tanh(x)


def powx(base: float | Dual, exponent: float | Dual) -> float | Dual:
    """base ** exponent with real-domain guards.

    Negative base with a non-integer exponent and zero base with a
    negative exponent are rejected instead of going complex or infinite.
    """
    if isinstance(exponent, Dual):
        # b^e = exp(e log b); requires b > 0 unless the exponent is inert
        return exp(exponent * log(base))
    e = float(exponent)
    if isinstance(base, Dual):
        b = base.val
        if b == 0.0:
            if e < 0.0:
                raise ZeroDivisionError("0 raised to a negative power")
            if e == 0.0:
                return Dual(1.0, 0.0 * base.grad)
            if e < 1.0:
                raise NonFiniteError(f"derivative of 0**{e!r} is unbounded")
            v = 0.0 if e > 1.0 else b
            dv = 0.0 if e > 1.0 else 1.0
            return Dual(v, dv * base.grad)
        if b < 0.0 and e != int(e):
            raise NonFiniteError(f"non-integer power {e!r} of negative base {b!r}")
        v = b ** e
        return Dual(v, (e * b ** (e - 1.0)) * base.grad)
    b = float(base)
    if b == 0.0 and e < 0.0:
        raise ZeroDivisionError("0 raised to a negative power")
    if b < 0.0 and e != int(e):
        raise NonFiniteError(f"non-integer power {e!r} of negative base {b!r}")
    return b ** e


# -- the seeded pass over expression trees and field lists -------------

_FN = {"sin": sin, "cos": cos, "tan": tan, "sinh": sinh, "cosh": cosh,
       "tanh": tanh, "exp": exp, "log": log, "sqrt": sqrt, "abs": abs,
       "pow": powx}
_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b, "^": powx}


def eval_dual(node, variables, params):
    """Evaluate an Ast on floats and Duals, with expr.eval_ast's errors:
    a fault raises ExprEvalError with the span of its subexpression."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        for scope in (variables, params, CONSTANTS):
            if node.name in scope:
                return scope[node.name]
        raise ExprEvalError(f"unbound name '{node.name}'", node.span)
    if isinstance(node, Unary):
        return -eval_dual(node.operand, variables, params)
    if isinstance(node, Binary):
        fn, args = _OPS[node.op], (node.left, node.right)
    else:
        fn, args = _FN[node.name], node.args
    args = [eval_dual(a, variables, params) for a in args]
    try:
        return fn(*args)
    except ZeroDivisionError:
        raise ExprEvalError("division by zero", node.span) from None
    except OverflowError:
        raise ExprEvalError("overflow", node.span) from None
    except (NonFiniteError, ValueError) as err:
        raise ExprEvalError(str(err), node.span) from None


def field_value(field, x, u, w):
    """A Field at (x, u, w), whose entries may be Duals."""
    env = {f"x{i + 1}": c for i, c in enumerate(x)}
    env.update(u=u, w=w)
    try:
        return eval_dual(field.ast, env, field._params)
    except ExprEvalError as err:
        raise FieldEvalError(f"{field.name}: {err}") from err


def dual_components(fields, point, n):
    """(vals, grads) of a list of Fields, grads[c, k] the c-th partial of
    field k, by one seeded pass."""
    m = n + 2
    with np.errstate(all="ignore"):
        coords = seed(point.coords())
        x, u, w = coords[:n], coords[n], coords[n + 1]
        vals = np.empty(len(fields))
        grads = np.empty((m, len(fields)))
        for k, f in enumerate(fields):
            vals[k], grads[:, k] = value_and_grad(field_value(f, x, u, w), m)
    return vals, grads


def dual_bundle(system, point) -> FieldBundle:
    """HerglotzSystem.eval_bundle by one seeded pass, h symmetrized and
    guarded against asymmetry as the system does."""
    n = system.n
    with np.errstate(all="ignore"):
        coords = seed(point.coords())
        x, u, w = coords[:n], coords[n], coords[n + 1]
        hs = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a = field_value(system.h[i][j], x, u, w)
                if i != j:
                    b = field_value(system.h[j][i], x, u, w)
                    if abs(value(a) - value(b)) > _ASYMMETRY_TOL:
                        raise AsymmetricMetricError(
                            f"{system.name}: h[{i + 1},{j + 1}]={value(a)!r} vs "
                            f"h[{j + 1},{i + 1}]={value(b)!r} at u={value(u)!r}")
                    a = 0.5 * (a + b)
                hs[i][j] = hs[j][i] = a
        fields = [f for row in hs for f in row]
        fields += [field_value(a, x, u, w) for a in system.A]
        fields.append(field_value(system.V, x, u, w))
        vg = [value_and_grad(f, n + 2) for f in fields]
    vals = np.array([v for v, _ in vg])
    grads = np.array([g for _, g in vg]).T
    n2 = n * n
    return FieldBundle(vals[:n2].reshape(n, n), grads[:, :n2].reshape(n + 2, n, n),
                       vals[n2:-1], grads[:, n2:-1], vals[-1], grads[:, -1])
