"""Arithmetic expression language for metric and potential fields.

Grammar (precedence from loosest to tightest):

    expr    :=  term  (("+" | "-") term)*
    term    :=  power (("*" | "/") power)*
    power   :=  unary ("^" power)?          right associative
    unary   :=  "-" unary | atom            unary minus binds tighter than "^"
    atom    :=  NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Note the unary-minus rule: "-x1^2" parses as (-x1)^2.  Write "-(x1^2)"
for the negated square.  There is no implicit multiplication; "2x1" is a
syntax error.

Builtin functions: sin cos tan sinh cosh tanh exp log sqrt abs pow(a,b).
Builtin constants: pi, e.  Variables are x1..xn, u, w; any other name
must be a declared parameter.

A field is evaluated one of two ways.  compile_forward turns a list of
fields into one straight-line float function that returns their values
and, optionally, all n+2 partials; it is the evaluator of every system,
generator and coordinate map, and the only one that differentiates.
eval_ast (through Field.__call__) is the float interpreter: it reports
errors with the span of the failing subexpression, and where a compiled
pass declines a point it explains why, raising the error that belongs
to the point.
"""

from __future__ import annotations

import hashlib
import linecache
import math
import operator
import re
import types
import warnings
import weakref
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (ExprEvalError, ExprSyntaxError, FieldEvalError,
                     HliftError, NonFiniteError, UnknownIdentifierError)

__all__ = [
    "Num", "Var", "Unary", "Binary", "Call",
    "parse", "to_text", "eval_ast", "compile_forward",
    "free_names", "validate_identifiers", "Field", "as_field",
]

FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "sinh": 1, "cosh": 1, "tanh": 1,
    "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "pow": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

Span = tuple


class Ast:
    """Base class of the expression tree's node types."""


@dataclass(frozen=True)
class Num(Ast):
    value: float
    span: Span


@dataclass(frozen=True)
class Var(Ast):
    name: str
    span: Span


@dataclass(frozen=True)
class Unary(Ast):
    op: str
    operand: "Ast"
    span: Span


@dataclass(frozen=True)
class Binary(Ast):
    op: str
    left: "Ast"
    right: "Ast"
    span: Span


@dataclass(frozen=True)
class Call(Ast):
    name: str
    args: tuple
    span: Span


# -- tokenizer ---------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def _tokenize(text: str):
    """Yields (kind, text, offset) triples; kinds: num, name, op, end."""
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", size))
    return tokens


# -- parser ------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            got = text if text else "end of input"
            raise ExprSyntaxError(f"expected '{op}', got {got!r}", off)
        return self.take()

    def parse(self) -> Ast:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> Ast:
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                right = self.term()
                node = Binary(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def term(self) -> Ast:
        node = self.power()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                right = self.power()
                node = Binary(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def power(self) -> Ast:
        base = self.unary()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.take()
            exponent = self.power()
            return Binary("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def unary(self) -> Ast:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.take()
            operand = self.unary()
            return Unary("-", operand, (off, operand.span[1]))
        return self.atom()

    def atom(self) -> Ast:
        kind, text, off = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError("number out of range", off)
            return Num(value, (off, off + len(text)))
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                self.take()
                args = [self.expr()]
                while True:
                    k, t, o = self.peek()
                    if k == "op" and t == ",":
                        self.take()
                        args.append(self.expr())
                    else:
                        break
                close = self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{text} takes {arity} argument(s), got {len(args)}", off)
                return Call(text, tuple(args), (off, close[2] + 1))
            return Var(text, (off, off + len(text)))
        if kind == "op" and text == "(":
            node = self.expr()
            close = self.expect_op(")")
            # widen the span to include the parentheses
            return _respan(node, (off, close[2] + 1))
        got = text if text else "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', got {got!r}", off)


def _respan(node: Ast, span: Span) -> Ast:
    cls = type(node)
    fields = {f: getattr(node, f) for f in node.__dataclass_fields__}
    fields["span"] = span
    return cls(**fields)


def parse(text: str) -> Ast:
    """Parse expression text into an Ast.

    Raises ExprSyntaxError (with byte offset) on malformed input or a
    literal beyond the float range, and UnknownIdentifierError when a call
    uses a name that is not a builtin function.
    """
    return _Parser(text).parse()


# -- printer -----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_UNARY_PREC = 4


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node: Ast, ctx: int) -> str:
    if isinstance(node, Num):
        s = _fmt_number(node.value)
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        args = ", ".join(_print(a, 0) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, Unary):
        inner = _print(node.operand, _UNARY_PREC)
        s = f"-{inner}"
        return f"({s})" if ctx > _UNARY_PREC else s
    if isinstance(node, Binary):
        p = _PREC[node.op]
        if node.op == "^":
            # right associative, base must bind at least as tight as unary
            left = _print(node.left, _UNARY_PREC)
            right = _print(node.right, p)
            s = f"{left}^{right}"
        else:
            left = _print(node.left, p)
            right = _print(node.right, p + 1)
            s = f"{left} {node.op} {right}"
        return f"({s})" if p < ctx else s
    raise TypeError(f"not an Ast node: {node!r}")


def to_text(node: Ast) -> str:
    """Canonical text form; parse(to_text(parse(s))) is structurally stable."""
    return _print(node, 0)


# -- analysis ----------------------------------------------------------

def free_names(node: Ast) -> set:
    """All variable/parameter names referenced (constants excluded)."""
    out: set = set()
    _collect_names(node, out)
    return out - set(CONSTANTS)


def _collect_names(node: Ast, out: set) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Unary):
        _collect_names(node.operand, out)
    elif isinstance(node, Binary):
        _collect_names(node.left, out)
        _collect_names(node.right, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_names(a, out)


def validate_identifiers(node: Ast, allowed) -> None:
    """Raise UnknownIdentifierError if the Ast references a name outside
    `allowed` (constants are always allowed)."""
    allowed = set(allowed) | set(CONSTANTS)
    _validate(node, allowed)


def _validate(node: Ast, allowed: set) -> None:
    if isinstance(node, Var):
        if node.name not in allowed:
            raise UnknownIdentifierError(node.name, node.span[0])
    elif isinstance(node, Unary):
        _validate(node.operand, allowed)
    elif isinstance(node, Binary):
        _validate(node.left, allowed)
        _validate(node.right, allowed)
    elif isinstance(node, Call):
        for a in node.args:
            _validate(a, allowed)


# -- evaluation --------------------------------------------------------

_MATH = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_ast(node: Ast, variables: Mapping, params: Optional[Mapping] = None,
             derivatives: bool = False) -> float:
    """Evaluate an Ast on floats.  `variables` and `params` map names to
    floats.  Division by zero, log/sqrt domain faults (math's own, such as
    sin of inf, included), overflow and unbound names raise ExprEvalError
    carrying the span of the failing subexpression.

    With `derivatives` the walk explains a derivative pass of
    compile_forward that declined: every name in `variables` is then a
    coordinate the pass differentiates by.  A subexpression that depends
    on one takes the value the pass computes for it (exp(e*log b) for a
    power whose exponent depends on one, 0 for 0**e with e > 1), and it
    also fails where only its partials do: sqrt at 0, 0**e with
    0 < e < 1, and an overflow or a zero divisor in a slope.
    """
    return _eval(node, variables, params, derivatives)[0]


def _eval(node: Ast, env: Mapping, params: Optional[Mapping],
          derivatives: bool):
    """(value, varies): `varies` when the node depends on a coordinate of
    a derivative pass."""
    if isinstance(node, Num):
        return node.value, False
    if isinstance(node, Var):
        name = node.name
        if name in env:
            return env[name], derivatives
        if params is not None and name in params:
            return params[name], False
        if name in CONSTANTS:
            return CONSTANTS[name], False
        raise ExprEvalError(f"unbound name '{name}'", node.span)
    if isinstance(node, Unary):
        v, varies = _eval(node.operand, env, params, derivatives)
        return -v, varies
    if isinstance(node, Binary):
        name, args = node.op, (node.left, node.right)
    elif isinstance(node, Call):
        name, args = node.name, node.args
    else:
        raise TypeError(f"not an Ast node: {node!r}")
    args = [_eval(a, env, params, derivatives) for a in args]
    try:
        return _apply(name, args), any(varies for _, varies in args)
    except ZeroDivisionError:
        raise ExprEvalError("division by zero", node.span) from None
    except OverflowError:
        raise ExprEvalError("overflow", node.span) from None
    except (NonFiniteError, ValueError) as err:
        # ValueError: math's own domain error, such as sin of inf
        raise ExprEvalError(str(err), node.span) from None


def _apply(name: str, args: list) -> float:
    """Operator or function `name` on (value, varies) arguments."""
    (a, va), *rest = args
    if name in ("^", "pow"):
        return _power(a, rest[0][0], va, rest[0][1])
    if name not in FUNCTIONS:
        b, vb = rest[0]
        if name != "/":
            return _ARITH[name](a, b)
        if vb and not va:
            -a / (b * b)            # the slope, which may divide by zero alone
        return a / b
    if name == "log" and a <= 0.0:
        raise NonFiniteError(f"log of non-positive value {a!r}")
    if name == "sqrt" and a < 0.0:
        raise NonFiniteError(f"sqrt of negative value {a!r}")
    if name == "sqrt" and va and a == 0.0:
        raise NonFiniteError("derivative of sqrt is unbounded at 0.0")
    try:
        v = _MATH[name](a)
        if va and name in _SLOPE_FN:
            _SLOPE_FN[name](a, v)
    except OverflowError:
        raise NonFiniteError(f"{name} overflow at {a!r}") from None
    return v


def _power(b: float, e: float, vb: bool, ve: bool) -> float:
    """b ** e with real-domain guards: a negative base with a non-integer
    exponent and a zero base with a negative exponent are rejected
    instead of going complex or infinite.  `vb` and `ve` say whether base
    and exponent vary (_eval)."""
    if ve:
        # the pass differentiates b ** e as exp(e * log b)
        return _apply("exp", [(e * _apply("log", [(b, vb)]), True)])
    if b == 0.0:
        if e < 0.0:
            raise ZeroDivisionError("0 raised to a negative power")
        if vb:
            if e == 0.0:
                return 1.0
            if e < 1.0:
                raise NonFiniteError(f"derivative of 0**{e!r} is unbounded")
            return 0.0 if e > 1.0 else b
    if b < 0.0 and e != int(e):
        raise NonFiniteError(f"non-integer power {e!r} of negative base {b!r}")
    v = b ** e
    if vb:
        b ** (e - 1.0)              # the slope e * b**(e-1) may overflow alone
    return v


# -- forward mode by source transformation -----------------------------
#
# compile_forward turns the ASTs of several fields into one straight-line
# function on plain floats: forward-mode differentiation by source
# transformation.  Each operation carries its value and, with derivatives,
# one partial per coordinate, by the chain rule written out component by
# component; without derivatives it is the interpreter's float operation.
# Partials that are structurally zero are never computed, and
# coordinate-free subtrees are folded once at compile time by the
# interpreter itself.
#
# The generated code raises nothing of its own.  It returns None when a
# coordinate is not finite, when a guard would trip (log/sqrt domain,
# power rules, zero divisor, overflow, asymmetric pair), or when a
# computed output is not finite: a dropped zero partial could hide a nan.
# The caller then has the interpreter explain the point (eval_ast with
# `derivatives` for a derivative pass), which raises its error; the tests
# hold both against an independent seeded-Dual pass.  A pipeline may
# warn (emitter.warn), as it returns its outputs.
#
# A pipeline extends the pass with a tail: more straight-line code over
# the fields' values and partials (a right-hand side built from them),
# emitted by the same emitter, so structural zeros drop out of it too.

# the largest |a - b| a pair (a, b) of compile_forward tolerates: two
# off-diagonal entries of h that differ by more signal a typo, not noise
_ASYMMETRY_TOL = 1e-12
_FORWARD_GLOBALS = {
    **{f"_{name}": fn for name, fn in _MATH.items()},
    # what a call in the generated code may raise; the function declines
    "_Declined": (ArithmeticError, ValueError, HliftError),
    "_warn": warnings.warn,
}
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}
# f'(x) given x and v = f(x) (exp is its own slope)
_SLOPE = {
    "log": "1.0 / {x}", "sqrt": "0.5 / {v}",
    "sin": "_cos({x})", "cos": "-_sin({x})",
    "tan": "1.0 / (_cos({x}) * _cos({x}))",
    "sinh": "_cosh({x})", "cosh": "_sinh({x})", "tanh": "1.0 - {v} * {v}",
    # abs: slope 0 at the kink
    "abs": "-1.0 if {x} < 0.0 else (0.0 if {x} == 0.0 else 1.0)",
}
# the same slopes as functions of (x, v), for the interpreter's explanation
_SLOPE_FN = {name: eval(f"lambda x, v: {f.format(x='x', v='v')}",
                        dict(_FORWARD_GLOBALS))
             for name, f in _SLOPE.items()}


class _AlwaysFails(Exception):
    """A coordinate-free part of the fields fails at every point."""


def _is_zero(a) -> bool:
    return a is None or (isinstance(a, float) and a == 0.0)


class _ForwardEmitter:
    """Straight-line code for a list of fields; see compile_forward.

    A node is (val, grad): val is a float constant or the name of a
    local, grad is None for constants (and everywhere without
    derivatives), else one entry per coordinate that is None for a
    structural zero, a float constant or a local name.
    """

    def __init__(self, n: int, derivatives: bool, name: str):
        self.m = n + 2
        self.coords = [f"x{i + 1}" for i in range(n)] + ["u", "w"]
        self.derivatives = derivatives
        self.bind: dict = {}       # coordinate -> local, in values()
        self.checked: set = set()  # locals the code has checked finite
        self.lines: list = []
        self.temps: dict = {}
        self.consts: dict = {}
        self.globals: dict = {}    # names a pipeline tail calls
        self.warned: list = []     # lines that warn, run just before return
        self.negated: dict = {}    # local -> the local it negates
        self.name = name

    # -- scalar code ---------------------------------------------------

    def ref(self, s) -> str:
        if isinstance(s, str):
            return s
        if math.isfinite(s):
            return f"({s!r})"
        key = repr(s)
        if key not in self.consts:
            self.consts[key] = f"_k{len(self.consts)}"
        return self.consts[key]

    def let(self, expr: str) -> str:
        # identical expressions of identical locals give identical bits
        name = self.temps.get(expr)
        if name is None:
            name = f"_t{len(self.temps)}"
            self.temps[expr] = name
            self.lines.append(f"{name} = {expr}")
        return name

    def guard(self, cond: str) -> None:
        line = f"if {cond}: return None"
        if line not in self.lines:
            self.lines.append(line)

    def warn(self, cond: str, category, message: str) -> None:
        """Warn `message` as `category` where `cond` holds, once per call
        and only as the function returns its outputs: a call it declines
        has not warned."""
        self.globals[category.__name__] = category
        line = (f"if {cond}: _warn({message!r}, {category.__name__}, "
                "stacklevel=2)")
        if line not in self.warned:
            self.warned.append(line)

    def guard_finite(self, values) -> None:
        """Decline unless each of `values` is finite (_finite_check); the
        code is straight-line, so a local checked once stays checked."""
        refs = [self.ref(v) for v in dict.fromkeys(values) if v is not None]
        refs = [r for r in refs if not r.startswith("(") and r not in self.checked]
        self.checked.update(refs)
        self.lines.extend(_finite_check(refs))

    def op(self, a, sym: str, b):
        """a sym b, folded when both are constants."""
        if sym == "*" and isinstance(a, float) and a == 1.0:
            return b  # 1.0 * x is x in every bit, nan and signed zero included
        if sym in "*/" and isinstance(b, float) and b == 1.0:
            return a  # and x / 1.0 is x
        if not (isinstance(a, str) or isinstance(b, str)):
            try:
                return _FOLD[sym](a, b)
            except ZeroDivisionError:
                raise _AlwaysFails() from None
        return self.let(f"{self.ref(a)} {sym} {self.ref(b)}")

    def neg(self, a):
        if not isinstance(a, str):
            return -a
        if a in self.negated:      # -(-x) is x in every bit
            return self.negated[a]
        name = self.let(f"-{a}")
        self.negated[name] = a
        return name

    # -- partials (None is a structural zero) --------------------------

    def gadd(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return self.op(a, "+", b)

    def gsub(self, a, b):
        if b is None:
            return a
        if a is None:
            return self.neg(b)
        return self.op(a, "-", b)

    def scale(self, k, g: list) -> list:
        return [None if gc is None else self.op(k, "*", gc) for gc in g]

    # -- pipeline tails (None and a constant 0.0 are structural zeros) --

    def mul(self, a, b):
        if _is_zero(a) or _is_zero(b):
            return None
        return self.op(a, "*", b)

    def add(self, a, b):
        if _is_zero(b):
            return a
        return b if _is_zero(a) else self.op(a, "+", b)

    def sub(self, a, b):
        if _is_zero(b):
            return a
        return self.neg(b) if _is_zero(a) else self.op(a, "-", b)

    def div(self, a, b):
        """a / b, declined at a zero divisor, where the float route's
        division raises: by the code's ZeroDivisionError, or by a guard
        where a is a structural zero and no division is left."""
        if not _is_zero(a):
            return self.op(a, "/", b)
        if isinstance(b, str):
            self.guard(f"{b} == 0.0")
        return None

    def total(self, terms):
        """Left-to-right sum of the terms that are not structural zeros."""
        out = None
        for t in terms:
            out = self.add(out, t)
        return out

    def dot(self, a, b):
        return self.total([self.mul(x, y) for x, y in zip(a, b)])

    def max_abs(self, values):
        """max |v| over `values`: a residual.  Over several values it
        declines unless each is finite, since max would pass over a nan."""
        refs = [self.ref(v) for v in dict.fromkeys(values) if not _is_zero(v)]
        if len(refs) < 2:
            return self.let(f"abs({refs[0]})") if refs else 0.0
        self.guard_finite(refs)
        return self.let(f"max({', '.join(f'abs({r})' for r in refs)})")

    # -- nodes ---------------------------------------------------------

    def entry(self, e):
        """The node of one entry of compile_forward: a Field, or a pair."""
        if isinstance(e, tuple):
            a, b = (self.node(f.ast, f._params) for f in e)
            return self.pair(a, b)
        return self.node(e.ast, e._params)

    def values(self, entries, coords=None) -> list:
        """The values of `entries` (as compile_forward takes them) in a
        pipeline tail, by the code of their values pass, at `coords`:
        emitter values for x1..xn, u, w, by default the pass's own.  Like
        that pass, the tail then declines where a coordinate is not
        finite."""
        saved = self.derivatives, self.bind
        if coords is not None:
            coords = [0.0 if c is None else c for c in coords]
            self.guard_finite(coords)
            # a local each: the nodes fold only what is free of coordinates
            self.bind = {name: c if isinstance(c, str) else self.let(self.ref(c))
                         for name, c in zip(self.coords, coords)}
        self.derivatives = False
        try:
            return [self.entry(e)[0] for e in entries]
        finally:
            self.derivatives, self.bind = saved

    def node(self, ast: Ast, params: Mapping):
        if not (free_names(ast) & set(self.coords)):
            try:
                return float(eval_ast(ast, {}, params)), None
            except (ExprEvalError, NonFiniteError, ArithmeticError, ValueError):
                raise _AlwaysFails() from None
        if isinstance(ast, Var):
            if not self.derivatives:
                return self.bind.get(ast.name, ast.name), None
            k = self.coords.index(ast.name)
            return ast.name, [1.0 if c == k else None for c in range(self.m)]
        if isinstance(ast, Unary):
            v, g = self.node(ast.operand, params)
            return self.neg(v), (None if g is None
                                 else [None if gc is None else self.neg(gc)
                                       for gc in g])
        if isinstance(ast, Binary):
            a = self.node(ast.left, params)
            b = self.node(ast.right, params)
            op = {"+": self.op_add, "-": self.op_sub, "*": self.op_mul,
                  "/": self.op_div, "^": self.op_pow}[ast.op]
            return op(a, b)
        if isinstance(ast, Call):
            args = [self.node(a, params) for a in ast.args]
            if ast.name == "pow":
                return self.op_pow(args[0], args[1])
            return self.op_call(ast.name, args[0])
        raise TypeError(f"not an Ast node: {ast!r}")

    def op_add(self, a, b):
        v = self.op(a[0], "+", b[0])
        if a[1] is None and b[1] is None:
            return v, None
        if a[1] is None:
            return v, b[1]
        if b[1] is None:
            return v, a[1]
        return v, [self.gadd(x, y) for x, y in zip(a[1], b[1])]

    def op_sub(self, a, b):
        v = self.op(a[0], "-", b[0])
        if b[1] is None:
            return v, a[1]
        if a[1] is None:
            return v, [None if y is None else self.neg(y) for y in b[1]]
        return v, [self.gsub(x, y) for x, y in zip(a[1], b[1])]

    def op_mul(self, a, b):
        v = self.op(a[0], "*", b[0])
        if a[1] is None and b[1] is None:
            return v, None
        if b[1] is None:
            return v, self.scale(b[0], a[1])
        if a[1] is None:
            return v, self.scale(a[0], b[1])
        # a.val * b.grad + b.val * a.grad
        return v, [self.gadd(None if y is None else self.op(a[0], "*", y),
                             None if x is None else self.op(b[0], "*", x))
                   for x, y in zip(a[1], b[1])]

    def op_div(self, a, b):
        if b[1] is None and b[0] == 0.0:
            raise _AlwaysFails()
        v = self.op(a[0], "/", b[0])
        if a[1] is None and b[1] is None:
            return v, None
        if b[1] is None:
            return v, [None if x is None else self.op(x, "/", b[0]) for x in a[1]]
        if a[1] is None:
            # -c / (v*v) * grad
            k = self.op(-a[0], "/", self.op(b[0], "*", b[0]))
            return v, self.scale(k, b[1])
        # inv * a.grad - (a.val * inv * inv) * b.grad
        inv = self.op(1.0, "/", b[0])
        k = self.op(self.op(a[0], "*", inv), "*", inv)
        return v, [self.gsub(None if x is None else self.op(inv, "*", x),
                             None if y is None else self.op(k, "*", y))
                   for x, y in zip(a[1], b[1])]

    def op_pow(self, a, b):
        base, e = a[0], b[0]
        if not self.derivatives:
            if isinstance(e, str):
                self.guard(f"{self.ref(base)} < 0.0 and {e} != int({e})")
            elif not (math.isfinite(e) and e == int(e)):
                self.guard(f"{self.ref(base)} < 0.0")
            return self.op(base, "**", e), None
        if b[1] is not None:
            # exp(e * log(b))
            return self.op_call("exp", self.op_mul(b, self.op_call("log", a)))
        if not math.isfinite(e):
            raise _AlwaysFails()
        if e != int(e):
            self.guard(f"{base} < 0.0")
        # b ** e and (e * b ** (e - 1.0)) * grad, with _power's own values
        # at b == 0 where it has them; its other zero cases raise here too
        pv = f"{base} ** {self.ref(e)}"
        pd = f"{base} ** {self.ref(e - 1.0)}"
        if e == 0.0:
            v = self.let(pv)
            dv = self.let(f"0.0 if {base} == 0.0 else 0.0 * {pd}")
        elif e > 1.0:
            v = self.let(f"0.0 if {base} == 0.0 else {pv}")
            dv = self.let(f"0.0 if {base} == 0.0 else {self.ref(e)} * {pd}")
        else:
            v = self.let(pv)
            dv = self.op(e, "*", self.let(pd))
        return v, self.scale(dv, a[1])

    def op_call(self, name: str, a):
        x, g = a
        if isinstance(x, float):
            try:
                return float(_apply(name, [(x, False)])), None
            except (NonFiniteError, ArithmeticError, ValueError):
                raise _AlwaysFails() from None
        v = self.let(f"_{name}({x})")
        if not self.derivatives:
            return v, None
        k = v if name == "exp" else self.let(_SLOPE[name].format(x=x, v=v))
        return v, self.scale(k, g)

    def pair(self, a, b):
        """0.5 * (a + b) with the asymmetry guard of HerglotzSystem."""
        if isinstance(a[0], float) and isinstance(b[0], float):
            if abs(a[0] - b[0]) > _ASYMMETRY_TOL:
                raise _AlwaysFails()
        elif a[0] != b[0]:
            self.guard(f"abs({self.ref(a[0])} - {self.ref(b[0])}) > "
                       f"{_ASYMMETRY_TOL!r}")
        return self.op_mul((0.5, None), self.op_add(a, b))


def compile_forward(entries: Sequence, n: int, derivatives: bool, name: str,
                    tail=None):
    """One straight-line function over the fields in `entries`.

    Each entry is a Field, or a pair (Field, Field) that stands for the
    symmetrized mean 0.5*(a + b), guarded like HerglotzSystem's h: the
    pass fails if the two values differ by more than 1e-12.

    Returns f(x1, ..., xn, u, w) on plain floats.  f returns None at a
    non-finite coordinate, where eval_ast (with `derivatives`) would
    raise, and where a value or partial is not finite; otherwise a flat
    tuple of K values followed, with derivatives, by the (n+2) x K
    partials in row-major order (row c holds the c-th coordinate partial
    of every entry), where K is len(entries).  Values equal the fields'
    own evaluation.  `name` labels the
    generated code, whose source linecache serves under the function's
    `<forward name ...>` file name, in tracebacks, profiles and
    inspect.getsource.

    With a `tail`, f is a pipeline: tail(emitter, nodes), given one
    (value, partials) node per entry (partials None without
    `derivatives`), emits more code with the emitter and returns
    (params, outputs): f's parameter names, among them the coordinates,
    and the values it returns instead of the flat tuple.  The tail may
    add guards, warnings (emitter.warn), the values of other fields
    (emitter.values), and names it calls to `emitter.globals`; whatever
    such a call raises, f declines.  f also returns None where the pass
    itself would, and where an output is not finite.
    """
    em = _ForwardEmitter(n, derivatives, name)
    params = em.coords
    # a non-finite coordinate is declined, also where the float path gives
    # no error
    body = _finite_check(em.coords)
    em.checked.update(em.coords)
    try:
        nodes = [em.entry(e) for e in entries]
        n_field_lines = len(em.lines)
        out = [em.ref(v) for v, _ in nodes]
        if derivatives:
            grads = [g if g is not None else [None] * em.m for _, g in nodes]
            out += [em.ref(0.0 if g[c] is None else g[c])
                    for c in range(em.m) for g in grads]
            # checked below, before any code of the tail runs
            em.checked.update(r for r in out if r.startswith("_t"))
        if tail is not None:
            params, outputs = tail(em, nodes)
    except _AlwaysFails:
        return lambda *args: None
    body += _guarded(em.lines[:n_field_lines])
    if derivatives:
        body += _finite_check([r for r in out if r.startswith("_t")])
    if tail is not None:
        out = [em.ref(0.0 if v is None else v) for v in outputs]
        body += _guarded(em.lines[n_field_lines:])
        body += _finite_check([r for r in out if not r.startswith("(")
                               and r not in em.checked])
        body += em.warned
    body.append(f"return ({', '.join(out)},)")
    ns = dict(_FORWARD_GLOBALS)
    ns.update(em.globals)
    ns.update({v: float(k) for k, v in em.consts.items()})
    return define_function("_forward", params, body, f"forward {name}", ns)


# (label, source) -> the generated function's code, least recently used
# first: systems built again with the same fields generate the same
# source, which is compiled once.  The CLI and the benchmark build fewer
# than 100 distinct functions; a process that builds ever new ones keeps
# the last _CODE_CACHE of them.  A code pushed out while a function still
# runs it waits in _LIVE, under a weak reference, until it is asked for
# again or its last function goes; linecache serves its source meanwhile.
_CODE_CACHE = 256
_CODE: dict = {}
_LIVE: dict = {}


def define_function(name: str, params: Sequence, body: list, label: str,
                    ns: dict):
    """The function `name(*params)` whose body is the source lines `body`,
    defined in namespace `ns`.  linecache serves its source under the
    file name `<label hash>`, for tracebacks, profiles and
    inspect.getsource, while the cache or a function holds its code.  A
    source already compiled under the same label reuses its code object;
    the function is still defined afresh."""
    src = (f"def {name}({', '.join(params)}):\n"
           + "\n".join(f"    {line}" for line in body) + "\n")
    key = (label, src)
    code = _CODE.pop(key, None)
    if code is None and key in _LIVE:
        code = _LIVE.pop(key)()  # the dropped reference never calls back
    if code is None:
        filename = f"<{label} {hashlib.sha1(src.encode()).hexdigest()[:8]}>"
        code, = (c for c in compile(src, filename, "exec").co_consts
                 if isinstance(c, types.CodeType))
        linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                     filename)
        if len(_CODE) >= _CODE_CACHE:
            _evict(next(iter(_CODE)))
    _CODE[key] = code
    return types.FunctionType(code, ns)


def _evict(key) -> None:
    """Move the code under `key` from _CODE to _LIVE; its source leaves
    linecache with the last function that runs it, at once if none does."""
    code = _CODE.pop(key)
    live, lines, filename = _LIVE, linecache.cache, code.co_filename

    def forget(ref):
        if live.get(key) is ref:
            del live[key]
            lines.pop(filename, None)
    live[key] = weakref.ref(code, forget)


def _guarded(lines: list) -> list:
    return (["try:"] + [f"    {line}" for line in lines or ["pass"]]
            + ["except _Declined:", "    return None"])


def _finite_check(names: list, action: str = "return None") -> list:
    """Run `action` (return None) unless every one of the locals `names`
    is finite.  The sum is the fast test; only where it is not finite are
    the terms tested overflow-free (x * 0.0 is nan exactly for a
    non-finite x, and never overflows), so that finite values whose sum
    overflows pass."""
    names = list(dict.fromkeys(names))
    if not names:
        return []
    zeros = " + ".join(f"{n} * 0.0" for n in names)
    return [f"_s = {' + '.join(names)}",
            f"if _s - _s != 0.0 and {zeros} != 0.0: {action}"]


# -- fields ------------------------------------------------------------

class Field:
    """Scalar field over (x1..xn, u, w).

    Wraps a parsed expression (a string, a number but not a bool, or a
    Field; else TypeError) with its parameters bound as floats.
    Calling a Field interprets the expression on floats (eval_ast, with
    `derivatives` to explain a declined derivative pass); evaluation
    failures surface as FieldEvalError with the field name in the message.
    """

    __slots__ = ("n", "name", "ast", "_params", "_coords")

    def __init__(self, n: int, source, params: Optional[Mapping] = None,
                 name: str = "field"):
        self.n = n
        self.name = name
        self._params = {k: float(v) for k, v in (params or {}).items()}
        self._coords = [f"x{i + 1}" for i in range(n)]
        if isinstance(source, str):
            self.ast = parse(source)
            validate_identifiers(self.ast,
                                 {*self._coords, "u", "w", *self._params})
        elif isinstance(source, (int, float)) and not isinstance(source, bool):
            self.ast = Num(float(source), (0, 0))
        elif isinstance(source, Field):
            self.ast = source.ast
            self._params = dict(source._params)
        else:
            raise TypeError(f"cannot build a field from {type(source).__name__}")

    def __call__(self, x: Sequence, u: float, w: float,
                 derivatives: bool = False) -> float:
        env = dict(zip(self._coords, x))
        env["u"] = u
        env["w"] = w
        try:
            return eval_ast(self.ast, env, self._params, derivatives)
        except ExprEvalError as err:
            raise FieldEvalError(f"{self.name}: {err}") from err

    def __repr__(self):
        return f"Field({self.name!r}, {to_text(self.ast)})"


def as_field(source, n: int, params: Optional[Mapping] = None,
             name: str = "field") -> Field:
    """Coerce an expression string, number or Field to a Field."""
    if isinstance(source, Field):
        return source
    return Field(n, source, params, name)
