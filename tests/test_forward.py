"""The compiled forward pass against the seeded Dual interpretation."""

import math

import numpy as np
import pytest

from hlift import autodiff as ad
from hlift.cloud import point_cloud
from hlift.expr import FUNCTIONS, Field, compile_forward
from hlift.geometry import (CoordinateMap, HerglotzSystem, Point,
                            eval_vector_fields)
from hlift.systems import (conformal_pair, damped_conformal_map,
                           standard_catalog)


def _dual_pass(field, coords):
    """[value, d/dx1, d/dx2, d/du, d/dw] by seeded duals, or the error."""
    xs = ad.seed(coords)
    try:
        out = field(xs[:2], xs[2], xs[3])
    except Exception as err:  # every error of the Dual path counts
        return err
    val, grad = ad.value_and_grad(out, 4)
    return np.concatenate([[val], grad])


def _float_pass(field, coords):
    try:
        return field(list(coords[:2]), coords[2], coords[3])
    except Exception as err:
        return err


# ------------------------------------------------------- random expressions

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "u", "w", "k", "pi", "e", "0", "1", "2",
                     "3", "0.5"]),
    st.floats(0.01, 4.0).map(lambda v: repr(round(v, 3))),
)
_UNARY_FNS = sorted(name for name, arity in FUNCTIONS.items() if arity == 1)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda c: f"(-{c})"),
        st.tuples(st.sampled_from(_UNARY_FNS), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, children).map(lambda t: f"pow({t[0]}, {t[1]})"),
    )


_EXPRS = st.recursive(_LEAVES, _extend, max_leaves=10)
_COORD = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(_EXPRS, st.floats(-2.0, 2.0), st.lists(_COORD, min_size=4,
                                                          max_size=4))
def test_random_expressions_match_the_dual_path(text, k, coords):
    field = Field(2, text, {"k": k})
    oracle = _dual_pass(field, coords)
    got = compile_forward([field], 2, True, 0.0, "random")(*coords)
    if isinstance(oracle, Exception):
        assert got is None, (text, coords, oracle)
    elif got is None:
        # declined without an error: only where a value or partial of the
        # Dual pass is not finite, or large enough for the check to overflow
        assert not np.all(np.abs(oracle) < 1e300), (text, coords, oracle)
    else:
        assert np.array_equal(np.array(got), oracle, equal_nan=True), \
            (text, coords, got, oracle)

    plain = _float_pass(field, coords)
    got = compile_forward([field], 2, False, 0.0, "random")(*coords)
    if isinstance(plain, Exception):
        assert got is None, (text, coords, plain)
    else:
        assert got is not None, (text, coords, plain)
        assert np.array_equal(got[0], plain, equal_nan=True), (text, coords)


# ------------------------------------------------------------------- guards

GUARDS = [
    # (V, x1) where the seeded Dual pass raises
    ("log(x1)", -1.0),
    ("log(x1 - 1)", 1.0),
    ("sqrt(x1)", 0.0),
    ("sqrt(x1)", -2.0),
    ("x1^0.5", -1.0),
    ("x1^0.5", 0.0),
    ("x1^(-1)", 0.0),
    ("pow(x1, -2.5)", 0.0),
    ("x1^x1", -1.0),
    ("2^x1 + (-2)^x1", 1.0),
    ("1/x1", 0.0),
    ("u/x1", 0.0),
    ("x1/(u - u)", 1.0),
    ("x1/0", 1.0),
    ("exp(1000*x1)", 1.0),
    ("sinh(1000*x1)", 1.0),
    ("cosh(1000*x1)", -1.0),
    ("x1 + log(-1)", 1.0),
    ("x1 + 1/(2 - 2)", 1.0),
    ("(1e200*x1)^2", 1.0),
    ("pow(10*x1, 400)", 1.0),
]


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _assert_same_failure(system, point):
    assert system._passes.run(point, True) is None
    assert _raised(system.eval_bundle, point) == _raised(system._dual_bundle, point)


@pytest.mark.parametrize("V, x1", GUARDS)
def test_guards_raise_the_dual_path_error(V, x1):
    system = HerglotzSystem(1, [["1"]], ["0"], V, name="guarded")
    _assert_same_failure(system, Point([x1], 0.5, 0.25))
    # the values-only pass declines exactly where the plain float path
    # fails, and otherwise returns its numbers; where both fail, values
    # and bundle fail alike
    point = Point([x1], 0.5, 0.25)
    try:
        expected = system.eval_fields([x1], 0.5, 0.25)[2]
    except Exception as err:
        assert system._passes.run(point, False) is None
        assert _raised(system.eval_values, point) == (type(err), str(err))
        assert _raised(system.eval_bundle, point) == (type(err), str(err))
    else:
        assert system.eval_values(point)[2] == expected


def test_asymmetric_h_raises_the_dual_path_error():
    system = HerglotzSystem(2, [["1", "x1"], ["x1 + 1e-6", "2"]], ["0", "0"],
                            "0", name="asym")
    point = Point([0.3, 0.1], 0.0, 0.0)
    _assert_same_failure(system, point)
    assert _raised(system.eval_values, point)[1].startswith("asym: h[1,2]")


def test_non_finite_coordinate_raises_the_dual_path_error():
    system = standard_catalog()["coupled"].system
    for bad in (math.nan, math.inf):
        _assert_same_failure(system, Point([0.1, bad], 0.0, 0.0))


# ------------------------------------------------------------------ catalog

def _subjects():
    """Every catalog system, generator and coordinate map."""
    catalog = standard_catalog()
    pair = conformal_pair(0.2, 1.0, 2)
    out = [e.system for e in catalog.values()] + [pair[0].system,
                                                   pair[1].system]
    for e in catalog.values():
        gens = list(e.generators.values())
        gens += [g for g, _ in e.conformal.values()]
        out += [pytest.param(g, id=f"{e.key}:{g.name}") for g in gens]
    out += [pytest.param(damped_conformal_map(0.2, n)[0], id=f"map-n{n}")
            for n in (1, 2)]
    return out


@pytest.mark.parametrize("system", _subjects(), ids=lambda s: s.name)
def test_bundles_equal_the_dual_path_over_a_cloud(system):
    n = system.n
    if not isinstance(system, HerglotzSystem):
        _assert_components_equal_the_dual_path(system)
        return
    for p in point_cloud(n, 200):
        got, want = system.eval_bundle(p), system._dual_bundle(p)
        for name in ("h", "dh", "A", "dA", "dV"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.V == want.V
        hs, As, V = system.eval_fields(list(p.x), p.u, p.w)
        h, A, V2 = system.eval_values(p)
        assert np.array_equal(h, np.array(hs, dtype=float))
        assert np.array_equal(A, np.array(As, dtype=float)) and V2 == V


def _assert_components_equal_the_dual_path(subject):
    """A generator's or map's compiled components against the seeded
    Dual interpretation of its fields (and a map's image against the
    plain float one)."""
    is_map = isinstance(subject, CoordinateMap)
    fields = subject.components if is_map else subject.component_fields()
    for p in point_cloud(subject.n, 200):
        want = eval_vector_fields(fields, p, subject.n)
        if is_map:
            vals, J = subject.value_and_jacobian(p)
            got = vals, J.T
            image = [f(p.x.tolist(), p.u, p.w) for f in fields]
            assert np.array_equal(subject(p).coords(), image)
        else:
            got = subject.components_at(p)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
