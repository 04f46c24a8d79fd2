"""The compiled generator checks (killing, conformal-killing, degreewise
and symmetry) against their numpy formulas, which are also their error
paths.

Where the compiled check declines, the numpy formula runs instead, so a
check raises (or warns) exactly as its formula does.  Elsewhere the two
agree to 1e-13 of the scale of the formula's terms: the product of the
largest magnitudes among the field values and partials (F), the
generator's components and partials (G), g^{-1}'s entries (H, for the
conformal check) and the velocities (X, for the symmetry check).  On
the catalog clouds Killing and degreewise residuals come out bit for
bit; conformal-killing and symmetry ones differ in the last bits, where
numpy's BLAS sums in another order.
"""

import linecache
import warnings

import numpy as np
import pytest

from hlift import expr
from hlift.cloud import halton, point_cloud, state_cloud
from hlift.dynamics import ReducedState
from hlift.geometry import (BrinkmannMetric, HerglotzSystem,
                            NearlySingularKineticWarning, Point,
                            _lie_derivative_numpy, conformal_split)
from hlift.symmetry import (SymmetryGenerator, _conformal_killing_tail,
                            _symmetry_condition_numpy,
                            conformal_killing_residual, degreewise_identities,
                            degreewise_max_residual, killing_residual,
                            symmetry_condition_residual)
from hlift.systems import coupled_curved, standard_catalog, x_scaling_control

from test_forward import _COORD, _EXPRS, GUARDS, hypothesis, st

_REL = 1e-13
_TINY = np.finfo(float).tiny


def _killing_numpy(metric, gen, p):
    return float(np.max(np.abs(_lie_derivative_numpy(metric, gen, p))))


def _conformal_numpy(metric, gen, p):
    S, lam, g = conformal_split(metric, gen, p)
    return float(np.max(np.abs(S - lam * g))), lam


def _degreewise_numpy(system, gen, p):
    iden = degreewise_identities(system, gen, p)
    return max(abs(iden["quartic"]), float(np.max(np.abs(iden["cubic"]))),
               float(np.max(np.abs(iden["quadratic"]))),
               float(np.max(np.abs(iden["linear"]))), abs(iden["constant"]))


def _scales(system, gen, p, rs) -> dict:
    """The scale of each check's terms at the point p and state rs."""
    def magnitudes(point):
        b = system.eval_bundle(point)
        K, dK = gen.components_at(point)
        fields = np.concatenate([b.h.ravel(), b.dh.ravel(), b.A,
                                 b.dA.ravel(), [b.V], b.dV])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearlySingularKineticWarning)
            ginv = BrinkmannMetric(system).inverse(point, b)
        return (max(1.0, np.max(np.abs(fields))),
                max(1.0, np.max(np.abs(K)), np.max(np.abs(dK))),
                max(1.0, np.max(np.abs(ginv))))

    F, G, H = magnitudes(p)
    Fs, Gs, _ = magnitudes(rs.point())
    X = max(1.0, np.max(np.abs(rs.xp)))
    return {"killing": F * G, "conformal-killing": H * G * F * F,
            "conformal-lambda": H * G * F, "degreewise": G * F * F,
            "symmetry": Gs * Fs * Fs * X ** 4}


def _compare(system, gen, p, rs):
    """[(check, compiled, numpy)] at the point p and state rs."""
    metric = BrinkmannMetric(system)
    res, lam = conformal_killing_residual(metric, gen, p)
    want_res, want_lam = _conformal_numpy(metric, gen, p)
    return [
        ("killing", killing_residual(metric, gen, p),
         _killing_numpy(metric, gen, p)),
        ("conformal-killing", res, want_res),
        ("conformal-lambda", lam, want_lam),
        ("degreewise", degreewise_max_residual(system, gen, p),
         _degreewise_numpy(system, gen, p)),
        ("symmetry", symmetry_condition_residual(system, gen, rs),
         _symmetry_condition_numpy(system, gen, rs)),
    ]


def _subjects():
    """Every catalog system with each of its generators, its conformal
    generators and the x-scaling control."""
    out = []
    for ent in standard_catalog().values():
        gens = list(ent.generators.values())
        gens += [g for g, _ in ent.conformal.values()]
        gens.append(x_scaling_control(ent.system.n))
        out += [pytest.param(ent.system, g, id=f"{ent.key}:{g.name}")
                for g in gens]
    return out


@pytest.mark.parametrize("system, gen", _subjects())
def test_compiled_checks_match_numpy_over_a_cloud(system, gen):
    n = system.n
    points = point_cloud(n, 256)
    states = state_cloud(n, 256)
    for p, rs in zip(points, states):
        scales = _scales(system, gen, p, rs)
        for check, got, want in _compare(system, gen, p, rs):
            bound = _REL * scales[check] + _TINY
            assert abs(got - want) <= bound, (check, p, rs)


# ----------------------------------------------------------------- errors

def _outcome(fn, *args):
    """fn's numbers as a flat array with every warning raised as an
    error, or the error as (class, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.ravel(fn(*args))
        except Exception as err:  # every error of either route counts
            return type(err), str(err)


def _routes(system, gen, p, rs):
    """(check, compiled route, numpy route, args) for the four checks."""
    metric = BrinkmannMetric(system)
    return [
        ("killing", killing_residual, _killing_numpy, (metric, gen, p)),
        ("conformal-killing", conformal_killing_residual, _conformal_numpy,
         (metric, gen, p)),
        ("degreewise", degreewise_max_residual, _degreewise_numpy,
         (system, gen, p)),
        ("symmetry", symmetry_condition_residual, _symmetry_condition_numpy,
         (system, gen, rs)),
    ]


def _assert_like_numpy(system, gen, p, rs, *context):
    """Each compiled check raises the numpy route's error where that
    raises or warns, returns its non-finite numbers exactly, and
    otherwise agrees within the rounding bound."""
    for check, compiled, numpy_route, args in _routes(system, gen, p, rs):
        want = _outcome(numpy_route, *args)
        got = _outcome(compiled, *args)
        if isinstance(want, tuple):
            assert got == want, (check, context)
        elif not np.all(np.isfinite(want)):
            assert np.array_equal(got, want, equal_nan=True), (check, context)
        else:
            scales = _scales(system, gen, p, rs)
            bound = np.array([scales[check]] if check != "conformal-killing"
                             else [scales[check], scales["conformal-lambda"]])
            assert np.all(np.abs(got - want) <= _REL * bound + _TINY), \
                (check, context, got, want)


@pytest.mark.parametrize("V, x1", GUARDS)
def test_guards_as_components_raise_the_numpy_error(V, x1):
    # each guarded expression as each component of a generator on the
    # oscillator: the joint pass declines, and every check raises the
    # generator pass's error, as its numpy formula does
    system = standard_catalog()["harmonic"].system
    p = Point([x1], 0.5, 0.25)
    rs = ReducedState([x1], [0.3], 0.5, 0.25)
    for k in range(3):
        comps = ["0", "0", "0"]
        comps[k] = V
        gen = SymmetryGenerator(1, comps[:1], comps[1], comps[2],
                                name="guarded")
        for check, compiled, numpy_route, args in _routes(system, gen, p, rs):
            want = _outcome(numpy_route, *args)
            assert isinstance(want, tuple), (check, V, k)
            assert _outcome(compiled, *args) == want, (check, V, k)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.lists(_EXPRS, min_size=4, max_size=4),
                  st.floats(-2.0, 2.0), st.lists(_COORD, min_size=6,
                                                 max_size=6))
def test_random_generators_match_the_numpy_route(texts, k, coords):
    system = coupled_curved().system
    gen = SymmetryGenerator(2, texts[:2], texts[2], texts[3],
                            params={"k": k}, name="random")
    p = Point(coords[:2], coords[2], coords[3])
    rs = ReducedState(coords[:2], coords[4:6], coords[2], coords[3])
    _assert_like_numpy(system, gen, p, rs, texts, coords)


def test_nearly_singular_kinetic_block_warns_through_the_numpy_path():
    # min |eig h| stays under 1e-8: the compiled conformal check declines
    # and the kinetic solve of the numpy path warns
    system = HerglotzSystem(2, [["1", "0"], ["0", "1e-9*(1 + x1^2)"]],
                            ["0", "0"], "0.5*x1^2", name="thin")
    gen = SymmetryGenerator(2, ["0", "0"], "1", "0", name="time-shift")
    metric = BrinkmannMetric(system)
    p = Point([0.3, 0.1], 0.2, 0.0)
    fn = gen.pipeline(system, "conformal-killing", _conformal_killing_tail)
    assert fn(0.3, 0.1, 0.2, 0.0) is None
    with pytest.warns(NearlySingularKineticWarning):
        res, lam = conformal_killing_residual(metric, gen, p)
    assert (res, lam) == (0.0, 0.0)


def test_generator_of_another_dimension_is_rejected():
    system = standard_catalog()["harmonic"].system
    with pytest.raises(ValueError, match="dimension 2"):
        killing_residual(BrinkmannMetric(system), x_scaling_control(2),
                         Point([0.1], 0.0, 0.0))


# ------------------------------------------------------------ lazy builds

def test_catalog_and_generators_compile_nothing(monkeypatch):
    built = []
    define = expr.define_function
    monkeypatch.setattr(expr, "define_function",
                        lambda *args: built.append(args[3]) or define(*args))
    before = {f for f in linecache.cache if f.startswith("<forward")}
    catalog = standard_catalog()
    gen = SymmetryGenerator(2, ["x2", "-x1"], "1", "u*w", name="lazy")
    assert built == []
    assert {f for f in linecache.cache if f.startswith("<forward")} == before
    # the first check builds its one pipeline over the joint pass, and
    # a second check of the same pair reuses it
    system = catalog["coupled"].system
    p = Point(list(halton(1, 2, 7)[0]), 0.5, 0.25)
    for _ in range(2):
        degreewise_max_residual(system, gen, p)
    assert built == ["forward coupled lazy degreewise"]
