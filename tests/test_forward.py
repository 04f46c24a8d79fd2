"""The compiled forward pass and its errors against the seeded Dual
oracle (dual_oracle.py), and the compiled right-hand sides against their
numpy oracles (numpy_oracle.py)."""

import dataclasses
import functools
import gc
import importlib.util
import inspect
import linecache
import math
import warnings
import weakref

import numpy as np
import pytest

import dual_oracle
from hlift import dynamics, expr, systems
from hlift.cloud import point_cloud
from hlift.dynamics import (ReducedState, _dense_rows, _null_form, _rhs_steps,
                            _stepper, herglotz_rhs, homogeneity_residual,
                            reduced_function)
from hlift.errors import HliftError, NonFiniteError
from hlift.expr import FUNCTIONS, Field, compile_forward, parse, to_text
from hlift.geometry import (BrinkmannMetric, CoordinateMap, FieldBundle,
                            HerglotzSystem, Point, solve_kinetic)
from hlift.symmetry import SymmetryGenerator
from hlift.systems import (conformal_pair, damped_conformal_map, get_entry,
                           standard_catalog)

from numpy_oracle import assert_like_the_oracle, herglotz_rhs_numpy


def _dual_pass(field, coords):
    """[value, d/dx1, d/dx2, d/du, d/dw] by seeded duals, or the error."""
    try:
        val, grad = dual_oracle.dual_components(
            [field], Point(coords[:2], coords[2], coords[3]), 2)
    except Exception as err:  # every error of the Dual path counts
        return err
    return np.concatenate([val, grad[:, 0]])


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


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(_EXPRS, st.floats(-2.0, 2.0), st.lists(_COORD, min_size=4,
                                                          max_size=4))
def test_random_expressions_match_the_dual_path(text, k, coords):
    field = Field(2, text, {"k": k})
    oracle = _dual_pass(field, coords)
    got = compile_forward([field], 2, True, "random")(*coords)
    if isinstance(oracle, Exception):
        assert got is None, (text, coords, oracle)
    elif got is None:
        # declined without an error: only where a value or partial of the
        # Dual pass is not finite
        assert not np.all(np.isfinite(oracle)), (text, coords, oracle)
    else:
        assert np.array_equal(np.array(got), oracle, equal_nan=True), \
            (text, coords, got, oracle)

    plain = _float_pass(field, coords)
    got = compile_forward([field], 2, False, "random")(*coords)
    if isinstance(plain, Exception):
        assert got is None, (text, coords, plain)
    else:
        assert got is not None, (text, coords, plain)
        assert np.array_equal(got[0], plain, equal_nan=True), (text, coords)

    # the same expression as the V of a 1-D system (x2 is a parameter
    # there) and as a generator component
    system = HerglotzSystem(1, [["1"]], ["0"], text,
                            params={"k": k, "x2": coords[1]}, name="random")
    point = Point(coords[:1], coords[2], coords[3])
    _assert_like_the_oracle(_outcome(system.eval_bundle, point),
                            _outcome(dual_oracle.dual_bundle, system, point),
                            text, coords)
    gen = SymmetryGenerator(2, [text, "0"], "0", "0", params={"k": k},
                            name="random")
    point = Point(coords[:2], coords[2], coords[3])
    want = _outcome(dual_oracle.dual_components, gen.component_fields(),
                    point, 2)
    _assert_like_the_oracle(_outcome(gen.components_at, point), want,
                            text, coords)


@pytest.mark.parametrize("text", ["(x1^0)^2", "2^(x1^0 + 1)", "(x1^k)^2",
                                  "(x1^0)^0.5", "(-(x1^0))^0.5",
                                  "(x1^0)^(-1) * x2"])
@pytest.mark.parametrize("coords", [[0.5, -1.0, 0.0, 1.0],
                                    [0.0, -0.0, 2.0, 0.0],
                                    [-2.0, 3.0, -1.0, 0.5]])
def test_a_power_by_zero_is_read_like_any_value(text, coords):
    # x^0 compiles to 1.0; the powers and sums that read it keep the
    # float path's values, the Dual path's partials and their errors
    field = Field(2, text, {"k": 0.0})
    plain = _float_pass(field, coords)
    got = compile_forward([field], 2, False, "zero power")(*coords)
    if isinstance(plain, Exception):
        assert got is None, (text, coords, plain)
    else:
        assert got == (plain,), (text, coords, got, plain)
    oracle = _dual_pass(field, coords)
    got = compile_forward([field], 2, True, "zero power")(*coords)
    if isinstance(oracle, Exception):
        assert got is None, (text, coords, oracle)
    else:
        assert np.array_equal(np.array(got), oracle), (text, coords, got)


def _outcome(fn, *args):
    """fn's numbers as one flat array, or its error as (class, message)."""
    try:
        out = fn(*args)
    except Exception as err:  # every error counts
        return type(err), str(err)
    if isinstance(out, FieldBundle):
        out = out.h, out.dh, out.A, out.dA, out.V, out.dV
    return np.concatenate([np.ravel(a) for a in out])


def _assert_like_the_oracle(got, want, *context):
    """The oracle's error; NonFiniteError where its numbers are not
    finite; else its numbers."""
    if isinstance(want, tuple):
        assert got == want, context
    elif isinstance(got, tuple):
        assert got[0] is NonFiniteError, (context, got)
        assert not np.all(np.isfinite(want)), (context, got, want)
    else:
        assert np.all(np.isfinite(want)), (context, want)
        assert np.array_equal(got, want), (context, got, want)


def _unspanned(node):
    """The tree with every span set to None, for structural comparison."""
    kids = {f: tuple(map(_unspanned, v)) if f == "args" else _unspanned(v)
            for f, v in vars(node).items()
            if f in ("operand", "left", "right", "args")}
    return dataclasses.replace(node, span=None, **kids)


# the parser makes no negative Num (a leading minus is a Unary node), so
# the leaves stay nonnegative; the wide ones reach the exponent notation
_WIDE = st.floats(0.0, 1e300).map(repr)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(st.recursive(_LEAVES | _WIDE, _extend, max_leaves=10))
def test_to_text_round_trips_through_parse(text):
    ast = parse(text)
    assert _unspanned(parse(to_text(ast))) == _unspanned(ast), text


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
    ("sin(x1)", math.inf),
    ("x1^2", math.inf),
    # faults of a partial alone: -1/(x1*x1) divides by zero, and
    # x1^(0.01 - 1) overflows
    ("1/x1", 1e-170),
    ("x1^0.01", 5e-324),
]


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _declines(system, point, derivatives):
    kind = "derivatives" if derivatives else "values"
    fn = system._passes.pipeline(kind, None, derivatives=derivatives)
    return fn(*point.coords().tolist()) is None


def _assert_same_failure(system, point):
    assert _declines(system, point, True)
    assert (_raised(system.eval_bundle, point)
            == _raised(dual_oracle.dual_bundle, system, point))


@pytest.mark.parametrize("V, x1", GUARDS)
def test_guards_raise_the_dual_path_error(V, x1):
    system = HerglotzSystem(1, [["1"]], ["0"], V, name="guarded")
    _assert_same_failure(system, Point([x1], 0.5, 0.25))
    # the values-only pass declines exactly where the plain float path
    # fails or a coordinate is not finite, and otherwise returns its
    # numbers; where it declines, values and bundle fail alike, with an
    # HliftError: the float path's, or at a non-finite coordinate the
    # Dual path's, which cannot seed it (even where the float path
    # would return inf)
    point = Point([x1], 0.5, 0.25)
    if math.isfinite(x1):
        try:
            expected = system.V([x1], 0.5, 0.25)
        except Exception as err:
            want = (type(err), str(err))
        else:
            assert system.eval_values(point)[2] == expected
            return
    else:
        want = _raised(dual_oracle.dual_bundle, system, point)
    assert _declines(system, point, False)
    assert issubclass(want[0], HliftError)
    assert _raised(system.eval_values, point) == want
    assert _raised(system.eval_bundle, point) == want


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


def test_a_non_finite_partial_raises_non_finite_error():
    # cosh(710.4) is finite, its slope sinh(710.4) * 710.4 is not: the
    # oracle's partial is inf, and the bundle raises instead of carrying it
    system = HerglotzSystem(1, [["1"]], ["0"], "cosh(710.4*x1)", name="steep")
    point = Point([1.0], 0.5, 0.25)
    assert math.isfinite(system.eval_values(point)[2])
    assert np.isinf(dual_oracle.dual_bundle(system, point).dV[0])
    assert _raised(system.eval_bundle, point) == (
        NonFiniteError, "steep: a value or partial is not finite at "
        "[1.0, 0.5, 0.25]")


def test_finite_numbers_whose_sum_overflows_pass():
    # V and dV/dx1 are both about 1.06e308: finite, but their sum is not
    system = HerglotzSystem(1, [["1"]], ["0"], "1.5e308*sin(x1)", name="wide")
    point = Point([math.pi / 4], 0.0, 0.0)
    got, want = system.eval_bundle(point), dual_oracle.dual_bundle(system, point)
    assert math.isinf(got.V + float(got.dV[0]))
    assert got.V == want.V and np.array_equal(got.dV, want.dV)


def test_coordinate_map_image_rejects_a_non_finite_coordinate():
    cmap = damped_conformal_map(0.2, 1)[0]
    for bad in (math.inf, math.nan):
        point = Point([bad], 0.5, 0.1)
        want = (NonFiniteError, f"cannot seed non-finite coordinate {bad!r}")
        assert _raised(cmap, point) == want
        assert _raised(cmap.value_and_jacobian, point) == want


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
        got, want = system.eval_bundle(p), dual_oracle.dual_bundle(system, p)
        for name in ("h", "dh", "A", "dA", "dV"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.V == want.V
        # the values pass against the fields' own float evaluation, h
        # symmetrized
        args = list(p.x), p.u, p.w
        hs = np.array([[f(*args) for f in row] for row in system.h])
        h, A, V = system.eval_values(p)
        assert np.array_equal(h, 0.5 * (hs + hs.T))
        assert np.array_equal(A, [f(*args) for f in system.A])
        assert V == system.V(*args)


def _assert_components_equal_the_dual_path(subject):
    """A generator's or map's compiled components against the seeded
    Dual interpretation of its fields (and a map's image against the
    plain float one)."""
    is_map = isinstance(subject, CoordinateMap)
    fields = subject.components if is_map else subject.component_fields()
    for p in point_cloud(subject.n, 200):
        want = dual_oracle.dual_components(fields, p, subject.n)
        if is_map:
            vals, J = subject.value_and_jacobian(p)
            got = vals, J.T
            image = [f(p.x.tolist(), p.u, p.w) for f in fields]
            assert np.array_equal(subject(p).coords(), image)
        else:
            got = subject.components_at(p)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# ------------------------------------------------- compiled right-hand sides
#
# The compiled geodesic and reduced functions against their numpy oracles
# (eval_bundle with accelerations, and herglotz_rhs_numpy).  Where the
# oracle raises or warns, the compiled route (the function, and where it
# declines the integrator's explanation of the call) raises or warns the
# same; where the oracle's numbers are not finite, or numpy warns, it
# raises NonFiniteError (assert_like_the_oracle).  Elsewhere the two
# agree to 1e-13 relative to the summed magnitudes of the contraction's
# terms (its running error bound; plus the smallest normal float, for
# underflow), and the null residual exactly.

_TINY = np.finfo(float).tiny


def _numpy(fn, *args):
    """fn(*args) with every warning raised as an error, or the error as
    (class, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except Exception as err:  # every error of either route counts
            return type(err), str(err)


def _numpy_geodesic(metric, point, v):
    b = metric.system.eval_bundle(point)
    acc = metric.accelerations(point, v, b)
    null = _null_form(b.h.tolist(), b.A.tolist(), b.V, v.tolist())
    return np.concatenate([v, acc]), null, b


def _numpy_reduced(system, rs):
    xpp, lag = herglotz_rhs_numpy(system, rs)
    return (np.concatenate([rs.xp, xpp, [lag]]),
            system.eval_bundle(rs.point()))


def _geodesic_terms(metric, b, v):
    """|g^{-1}| (|M| |v| + |q|/2), the contraction on magnitudes, with
    the h^{-1}A and 2V + A.h^{-1}A blocks of g^{-1} on magnitudes too."""
    n = metric.system.n
    _, dg = metric.eval_with_derivatives(None, b)
    av, adg = np.abs(v), np.abs(dg)
    M = np.tensordot(av, adg, axes=1)
    q = (adg @ av) @ av
    ginv = np.abs(metric.inverse(None, b))
    hinv, aA = np.abs(solve_kinetic(b.h, None, "terms")), np.abs(b.A)
    ginv[:n, n + 1] = ginv[n + 1, :n] = hinv @ aA
    ginv[n + 1, n + 1] = 2.0 * abs(b.V) + aA @ hinv @ aA
    return np.concatenate([av, ginv @ (M @ av + 0.5 * q)])


def _reduced_terms(system, b, xp):
    """herglotz_rhs's formula on magnitudes."""
    n = system.n
    w = n + 1
    ax, ah, adh, aA, adA = (np.abs(a) for a in (xp, b.h, b.dh, b.A, b.dA))
    lag = 0.5 * ax @ ah @ ax + aA @ ax + abs(b.V)
    dwL = 0.5 * ax @ adh[w] @ ax + adA[w] @ ax + abs(b.dV[w])
    terms = (np.einsum("ikj,i,j->k", adh[:n], ax, ax)
             + 0.5 * np.einsum("kij,i,j->k", adh[:n], ax, ax)
             + np.abs(b.dV[:n]) + ax @ adA[:n] + adA[:n] @ ax
             + adh[n] @ ax + adA[n] + (adh[w] @ ax + adA[w]) * lag
             + (ah @ ax + aA) * dwL)
    hinv = solve_kinetic(b.h, None, "terms")
    return np.concatenate([ax, np.abs(hinv) @ terms, [lag]])


def _extreme(out, b) -> bool:
    """Whether NonFiniteError is allowed where the oracle's numbers are
    finite: where some field value or partial is huge."""
    fields = np.concatenate([b.h.ravel(), b.dh.ravel(), b.A, b.dA.ravel(),
                             [b.V], b.dV])
    return not np.all(np.abs(fields) < 1e150)


def _route(fn, explain, *args):
    """What an integrator does with the call fn(*args): its outputs, or
    where fn declines, explain's error."""
    out = fn(*args)
    if out is None:
        explain(args)
    return np.array(out)


def _check_route(got, want, *context) -> bool:
    """The route's outcome against the oracle's, `want` as _numpy gives
    it with the oracle's outputs first: whether both gave numbers to
    compare."""
    out = want if isinstance(want, tuple) and isinstance(want[0], type) \
        else want[0]
    if isinstance(got, tuple) and got[0] is NonFiniteError \
            and not isinstance(out, tuple) and np.all(np.isfinite(out)):
        assert _extreme(out, want[-1]), (context, out)
        return False
    return assert_like_the_oracle(got, out, *context)


def _check_geodesic(system, x, u, w, v):
    metric = BrinkmannMetric(system)
    point = Point(x, u, w)
    v = np.array(v, dtype=float)
    y = np.concatenate([x, [u, w], v])
    got = _numpy(_route, metric.geodesic_function(),
                 lambda y: system._passes.explain("geodesic", y, _rhs_steps,
                                                  system, x, u, w),
                 *y.tolist())
    want = _numpy(_numpy_geodesic, metric, point, v)
    if not _check_route(got, want, system.name, y):
        return
    out, null, b = want
    bound = 1e-13 * _geodesic_terms(metric, b, v) + _TINY
    assert np.all(np.abs(got[:-1] - out) <= bound), (system.name, y)
    assert got[-1] == null


def _herglotz_route(system, rs):
    xpp, lag = herglotz_rhs(system, rs)
    return np.concatenate([rs.xp, xpp, [lag]])


def _check_reduced(system, x, u, w, xp):
    rs = ReducedState(x, xp, u, w)
    z = [*rs.x.tolist(), *rs.xp.tolist(), w]
    got = _numpy(_route, reduced_function(system),
                 lambda args: system._passes.explain(
                     "reduced", args, _rhs_steps, system, x, u, w),
                 u, *z)
    want = _numpy(_numpy_reduced, system, rs)
    rhs = _numpy(_herglotz_route, system, rs)      # the same route
    if not _check_route(got, want, system.name, x, xp):
        assert _check_route(rhs, want, system.name, x, xp) is False
        return
    out, b = want
    bound = 1e-13 * _reduced_terms(system, b, rs.xp) + _TINY
    assert np.all(np.abs(got - out) <= bound), (system.name, x, xp)
    assert np.array_equal(rhs, got)


def _n3_system():
    # the system of tests/test_dynamics.py::test_cross_pipeline_agreement_n3
    return HerglotzSystem(
        3, [["1 + 0.1*x3^2", "0.2", "0"], ["0.2", "2", "0"], ["0", "0", "1"]],
        ["0.1*x2", "0", "0"], "0.5*(x1^2 + x2^2 + x3^2) + 0.1*w", name="n3")


_FIXED = [e.system for e in standard_catalog().values()] + [_n3_system()]
_STATE = st.lists(_COORD, min_size=11, max_size=11)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.sampled_from(range(len(_FIXED))), _STATE)
def test_compiled_rhs_matches_numpy_on_catalog_states(k, coords):
    system = _FIXED[k]
    n = system.n
    x, (u, w) = coords[:n], coords[n:n + 2]
    _check_geodesic(system, x, u, w, coords[n + 2:2 * n + 4])
    _check_reduced(system, x, u, w, coords[n + 2:2 * n + 2])


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.lists(_EXPRS, min_size=6, max_size=6),
                  st.floats(-2.0, 2.0), st.lists(_COORD, min_size=8,
                                                 max_size=8))
def test_compiled_rhs_matches_numpy_on_random_systems(texts, k, coords):
    h11, h12, h22, a1, a2, V = texts
    system = HerglotzSystem(2, [[h11, h12], [h12, h22]], [a1, a2], V,
                            params={"k": k}, name="random")
    x, (u, w) = coords[:2], coords[2:4]
    _check_geodesic(system, x, u, w, coords[4:8])
    _check_reduced(system, x, u, w, coords[4:6])


def test_generated_source_is_in_linecache():
    system = standard_catalog()["coupled"].system
    fns = [(fn, "<forward coupled", "def _forward(") for fn in (
        BrinkmannMetric(system).geodesic_function(),
        reduced_function(system),
        compile_forward(system._passes.entries, 2, True, "coupled"))]
    # the integration loops, generated afresh
    fns.append((_stepper.__wrapped__(8, False, 1, 2), "<dop853 8 aux1 stop2 ",
                "def _loop(fn, explain, t, t_end, y, k, cfg, "))
    fns.append((_dense_rows.__wrapped__(8, False), "<dop853 rows 8 ",
                "def _rows(fn, explain, t, h, y0, y1, ks):"))
    for fn, prefix, head in fns:
        filename = fn.__code__.co_filename
        assert filename.startswith(prefix)
        assert linecache.getline(filename, 1).startswith(head)
        assert inspect.getsource(fn) == "".join(linecache.getlines(filename))


def test_a_referenced_function_keeps_its_source(monkeypatch):
    # a cached integration loop and a pipeline of a memoized catalog
    # system keep their code and source while they are referenced, and
    # functions nothing references take theirs along.  A fresh registry,
    # memo and loop cache keep this independent of whatever ran before.
    monkeypatch.setattr(expr, "_CODE", weakref.WeakValueDictionary())
    monkeypatch.setattr(systems, "_BUILT", {})
    monkeypatch.setattr(dynamics, "_stepper",
                        functools.cache(_stepper.__wrapped__))
    loop = dynamics._stepper(5, True, 0, None)
    system = get_entry("coupled").system
    homogeneity_residual(system, ReducedState([0.3, -0.2], [0.5, 0.1],
                                              0.5, 0.25), 2.0)
    pipeline = get_entry("coupled").system._passes._fns["homogeneity",]
    del system

    def define(k):
        return compile_forward([Field(1, f"x1^3 + {k}.125", name="filler")],
                               1, False, f"filler {k}")
    dropped = [define(k).__code__.co_filename for k in range(4)]
    gc.collect()
    assert set(expr._CODE.values()) == {loop.__code__, pipeline.__code__}
    for fn, head in ((loop, "def _loop(fn, explain, t, t_end, "),
                     (pipeline, "def _forward(x1, x2, u, w, ")):
        filename = fn.__code__.co_filename
        assert linecache.getline(filename, 1).startswith(head)
        assert inspect.getsource(fn) == "".join(linecache.getlines(filename))
    # a function nothing references takes its source along
    assert not set(dropped) & set(linecache.cache)
    # generated again, the source finds its live code and is not compiled
    again = _stepper.__wrapped__(5, True, 0, None)
    assert again is not loop and again.__code__ is loop.__code__


def _fresh_registry(monkeypatch):
    monkeypatch.setattr(expr, "_CODE", weakref.WeakValueDictionary())
    return expr


def _second_copy(monkeypatch):
    # hlift.expr loaded again, beside the imported one, as a purged and
    # re-imported hlift loads it
    spec = importlib.util.find_spec("hlift.expr")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("twin_of", [_fresh_registry, _second_copy])
def test_a_dying_twin_leaves_a_live_function_its_source(twin_of, monkeypatch):
    # a registry that does not know a live function's code compiles a
    # twin of it, whose code shows the same linecache file; the twin's
    # death leaves the live function its source, which goes with the
    # last code that shows it
    define = ("_g", ["a"], ["return a + 1"], "demo twin", {})
    live = expr.define_function(*define)
    twin = twin_of(monkeypatch).define_function(*define)
    filename = live.__code__.co_filename
    assert twin.__code__ is not live.__code__
    assert twin.__code__.co_filename == filename
    del twin
    gc.collect()
    assert linecache.getlines(filename) == ["def _g(a):\n",
                                            "    return a + 1\n"]
    del live
    gc.collect()
    assert filename not in linecache.cache
