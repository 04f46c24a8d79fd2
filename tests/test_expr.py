"""Expression grammar, evaluation, printing, and field semantics."""

import math

import numpy as np
import pytest

import dual_oracle
from hlift.errors import (ExprEvalError, ExprSyntaxError, FieldEvalError,
                          UnknownIdentifierError)
from hlift.expr import (Field, as_field, compile_forward, eval_ast,
                        free_names, parse, to_text, validate_identifiers)

ENV = {"x1": 0.3, "x2": -1.2, "u": 0.4, "w": 0.1}


def ev(src, env=None, params=None):
    return eval_ast(parse(src), env or ENV, params)


# ---------------------------------------------------------------- parsing

def test_literals_and_constants():
    assert ev("2") == 2.0
    assert ev("2.5e-3") == 2.5e-3
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_precedence_against_math_oracle():
    cases = {
        "1 + 2*3": 7.0,
        "(1 + 2)*3": 9.0,
        "2*3^2": 18.0,
        "6/3/2": 1.0,          # left assoc
        "2^3^2": 512.0,        # right assoc
        "2^-1": 0.5,
        "1 - -3": 4.0,
        "2*-3": -6.0,
    }
    for src, want in cases.items():
        assert ev(src) == pytest.approx(want, abs=1e-15), src


def test_unary_minus_binds_tighter_than_power():
    # grammar choice, frozen: -a^b parses as (-a)^b
    assert ev("-2^2") == 4.0
    assert ev("-x1^2") == pytest.approx(0.09)
    assert ev("-(2^2)") == -4.0


def test_function_calls_against_math():
    checks = [
        ("sin(x1)*exp(u) - w^2",
         math.sin(0.3) * math.exp(0.4) - 0.01),
        ("sqrt(abs(x2)) + log(2 + x1)",
         math.sqrt(1.2) + math.log(2.3)),
        ("tanh(u)*cosh(w) + sinh(x1)",
         math.tanh(0.4) * math.cosh(0.1) + math.sinh(0.3)),
        ("pow(2, x1 + 1)", 2.0 ** 1.3),
        ("cos(pi*u)", math.cos(math.pi * 0.4)),
        ("tan(w)/x1", math.tan(0.1) / 0.3),
    ]
    for src, want in checks:
        assert ev(src) == pytest.approx(want, rel=1e-15), src


def test_syntax_errors_carry_location():
    for src, frag in [("1 +", "end"), ("(1 + 2", ")"), ("2 ** 3", "*"),
                      ("sin()", "argument"), ("pow(1)", "argument"),
                      ("1 2", "2")]:
        with pytest.raises(ExprSyntaxError):
            parse(src)


def test_out_of_range_literal_rejected_at_parse():
    with pytest.raises(ExprSyntaxError, match="number out of range") as err:
        parse("x1 + 1e999")
    assert err.value.offset == 5


def test_unknown_function_and_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("frob(1)")
    # eval-time unbound names carry the offending name and span
    with pytest.raises(ExprEvalError) as err:
        eval_ast(parse("x1 + beta"), ENV)
    assert "beta" in str(err.value)


def test_validate_identifiers():
    ast = parse("x1 + gamma*w")
    validate_identifiers(ast, {"x1", "w", "gamma"})
    with pytest.raises(UnknownIdentifierError) as err:
        validate_identifiers(ast, {"x1", "w"})
    assert "gamma" in str(err.value)


def test_free_names():
    assert free_names(parse("sin(x1)*gamma + u - pi")) == {"x1", "gamma", "u"}


# ---------------------------------------------------------------- printing

ROUND_TRIP = [
    "1 + 2*3",
    "(1 + 2)*3",
    "-x1^2",
    "2^3^2",
    "sin(x1)*exp(u) - w^2",
    "pow(x1, 2) + abs(x2)",
    "x1/(x2*u)",
    "-(x1 + w)",
    "1 - -3",
    "0.5*omega^2*(x1^2 + x2^2)",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_print_parse_round_trip(src):
    printed = to_text(parse(src))
    again = to_text(parse(printed))
    assert printed == again
    env = dict(ENV)
    params = {"omega": 1.3}
    assert eval_ast(parse(printed), env, params) == pytest.approx(
        eval_ast(parse(src), env, params), rel=1e-15)


# ---------------------------------------------------------------- fields

def test_field_binds_params():
    f = as_field("0.5*omega^2*x1^2", 1, {"omega": 2.0}, name="V")
    assert f([1.5], 0.0, 0.0) == pytest.approx(0.5 * 4.0 * 2.25)


def test_field_unknown_param_rejected_at_build():
    with pytest.raises(UnknownIdentifierError) as err:
        as_field("gamma*w", 1, None, name="V")
    assert "gamma" in str(err.value)


def test_field_from_number_and_callable():
    c = as_field(2.5, 2)
    assert c([0.0, 0.0], 9.0, -1.0) == 2.5
    # fields are expressions; a Python callable is not a field source
    with pytest.raises(TypeError):
        as_field(lambda x, u, w: x[0] * u + w, 1)


def test_field_eval_error_names_field():
    f = as_field("1/x1", 1, name="kinetic")
    with pytest.raises(FieldEvalError) as err:
        f([0.0], 0.0, 0.0)
    assert "kinetic" in str(err.value)


@pytest.mark.parametrize("src", ["(10*x1)^400", "pow(10*x1, 400)"])
def test_field_overflow_is_a_field_error(src):
    f = as_field(src, 1, name="V")
    for derivatives in (False, True):
        with pytest.raises(FieldEvalError, match=r"^V: overflow \(span 0\.\."):
            f([1.0], 0.0, 0.0, derivatives)


CORPUS = [
    "x1^2 - 3*x1*u + w",
    "sin(x1*u) + cos(w)",
    "exp(-u)*x1 + sqrt(1 + x1^2)",
    "tanh(x1) + u/(2 + cos(w))",
    "log(2 + x1^2)*w",
    "pow(1 + u^2, 0.5) - abs(x1)",
    "x1*w*u + pi",
    "0.5*(x1^2 + w^2) + 0.1*sin(u)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_compiled_matches_interpreter_bitwise(src):
    # the compiled pass must reproduce the tree walk exactly, on floats
    # without derivatives and on the oracle's seeded duals with them
    ast = parse(src)
    field = Field(1, src)
    values = compile_forward([field], 1, False, 0.0, src)
    forward = compile_forward([field], 1, True, 0.0, src)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, u, w = rng.uniform(-1.5, 1.5, size=3).tolist()
        assert values(x, u, w) == (eval_ast(ast, {"x1": x, "u": u, "w": w}),)
        xs = dual_oracle.seed([x, u, w])
        b = dual_oracle.eval_dual(ast, {"x1": xs[0], "u": xs[1], "w": xs[2]}, {})
        assert np.array_equal(forward(x, u, w), [b.val, *b.grad])


@pytest.mark.parametrize("src", CORPUS)
def test_field_gradient_vs_central_difference(src):
    # the compiled derivative pass against central differences of the
    # interpreter
    f = as_field(src, 1)
    forward = compile_forward([f], 1, True, 0.0, src)
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(10):
        x, u, w = rng.uniform(-1.2, 1.2, size=3).tolist()
        grad = forward(x, u, w)[1:]
        for i, (lo, hi) in enumerate([((x - eps, u, w), (x + eps, u, w)),
                                      ((x, u - eps, w), (x, u + eps, w)),
                                      ((x, u, w - eps), (x, u, w + eps))]):
            fd = (f([hi[0]], hi[1], hi[2]) - f([lo[0]], lo[1], lo[2])) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=5e-7, abs=5e-7), (src, i)
