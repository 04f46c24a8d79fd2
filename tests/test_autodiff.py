"""The Dual oracle (dual_oracle.py) against closed-form and
finite-difference oracles."""

import gc
import importlib
import math
import sys
import weakref

import numpy as np
import pytest

import dual_oracle as ad
from hlift.errors import NonFiniteError


def test_seed_shapes():
    xs = ad.seed([1.0, 2.0, 3.0])
    assert len(xs) == 3
    for i, d in enumerate(xs):
        assert d.val == float(i + 1)
        expect = np.zeros(3)
        expect[i] = 1.0
        assert np.array_equal(d.grad, expect)


def test_seed_rows_are_frozen():
    xs = ad.seed([1.0, 2.0])
    with pytest.raises(ValueError):
        xs[0].grad[1] = 5.0


def test_arithmetic_chain():
    # f(a, b) = a*b + a/b - b^2 ; df/da = b + 1/b ; df/db = a - a/b^2 - 2b
    a, b = ad.seed([3.0, 2.0])
    f = a * b + a / b - b ** 2
    assert f.val == pytest.approx(3.0 * 2.0 + 1.5 - 4.0, abs=1e-15)
    assert f.grad[0] == pytest.approx(2.0 + 0.5, abs=1e-15)
    assert f.grad[1] == pytest.approx(3.0 - 0.75 - 4.0, abs=1e-15)


def test_right_hand_operators():
    (x,) = ad.seed([4.0])
    assert (2.0 - x).val == -2.0
    assert (2.0 - x).grad[0] == -1.0
    assert (8.0 / x).val == 2.0
    assert (8.0 / x).grad[0] == pytest.approx(-0.5)
    # dual exponents route through exp(e log b): exact up to roundoff
    assert (2.0 ** x).val == pytest.approx(16.0, rel=1e-15)
    assert (2.0 ** x).grad[0] == pytest.approx(16.0 * math.log(2.0))


def test_unary_functions_closed_form():
    (x,) = ad.seed([0.7])
    cases = [
        (ad.sin, math.cos(0.7)),
        (ad.cos, -math.sin(0.7)),
        (ad.tan, 1.0 / math.cos(0.7) ** 2),
        (ad.exp, math.exp(0.7)),
        (ad.log, 1.0 / 0.7),
        (ad.sqrt, 0.5 / math.sqrt(0.7)),
        (ad.sinh, math.cosh(0.7)),
        (ad.cosh, math.sinh(0.7)),
        (ad.tanh, 1.0 / math.cosh(0.7) ** 2),
    ]
    for fn, slope in cases:
        out = fn(x)
        assert out.grad[0] == pytest.approx(slope, rel=1e-14), fn.__name__


def test_functions_pass_through_floats():
    assert ad.sin(0.5) == math.sin(0.5)
    assert ad.exp(1.0) == math.e
    assert ad.powx(2.0, 10.0) == 1024.0


def test_abs_and_comparisons():
    (x,) = ad.seed([-1.5])
    y = abs(x)
    assert y.val == 1.5 and y.grad[0] == -1.0
    assert x < 0.0
    assert x <= -1.5
    assert not (x > 0.0)
    (z,) = ad.seed([2.0])
    assert z == 2.0 and z != 3.0


def test_gradient_helper_vs_finite_difference():
    def f(v):
        return ad.sin(v[0] * v[1]) + ad.exp(v[0] - v[1]) / (1.0 + v[1] * v[1])

    rng = np.random.default_rng(42)
    for _ in range(25):
        p = rng.uniform(-1.5, 1.5, size=2)
        g = ad.gradient(f, p)
        eps = 1e-6
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = eps
            fd = (f(list(p + dp)) - f(list(p - dp))) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=2e-8, abs=2e-8)


def test_powx_dual_exponent():
    b, e = ad.seed([2.0, 3.0])
    out = ad.powx(b, e)
    assert out.val == pytest.approx(8.0, rel=1e-15)
    assert out.grad[0] == pytest.approx(3.0 * 4.0)  # e * b^(e-1)
    assert out.grad[1] == pytest.approx(8.0 * math.log(2.0))


def test_integer_power_at_zero_base():
    # x^2 at x=0 must not route through log
    (x,) = ad.seed([0.0])
    y = x ** 2
    assert y.val == 0.0 and y.grad[0] == 0.0


def test_nonfinite_detection():
    (x,) = ad.seed([0.0])
    with pytest.raises((NonFiniteError, ZeroDivisionError)):
        _ = 1.0 / x
    with pytest.raises(NonFiniteError):
        ad.log(x)
    with pytest.raises(NonFiniteError):
        ad.sqrt(ad.seed([-1.0])[0])


def test_value_and_grad_on_plain_float():
    v, g = ad.value_and_grad(2.5, 3)
    assert v == 2.5
    assert np.array_equal(g, np.zeros(3))


def test_mixed_dimension_rejected():
    (a,) = ad.seed([1.0])
    b, _ = ad.seed([1.0, 2.0])
    with pytest.raises(ValueError):
        _ = a + b


def test_a_purged_package_copy_is_collected():
    # a module-level typing alias over hlift's classes (such as
    # Union[Num, Var, ...]) sits in typing's cache and keeps every
    # purged copy of the package alive
    def purge():
        return {k: sys.modules.pop(k) for k in list(sys.modules)
                if k == "hlift" or k.startswith("hlift.")}

    saved = purge()
    try:
        fresh = importlib.import_module("hlift")
        refs = [weakref.ref(fresh.expr.Num),
                weakref.ref(fresh.geometry.FieldBundle)]
        assert refs[0]() is not saved["hlift.expr"].Num
        del fresh
    finally:
        purge()
        sys.modules.update(saved)
    gc.collect()
    assert [r() for r in refs] == [None, None]
