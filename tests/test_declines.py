"""One route per compiled formula: where a compiled pipeline declines a
call, the call's error is raised (geometry.explain_decline), and nothing
computes the formula another way.

Each of the nine pipelines is made to decline at a healthy catalog
point: every public entry point over it, and the integrator that steps
it, raise NonFiniteError naming the pipeline and the point.  Where
det h == 0, the three pipelines that solve with h raise the numpy
oracle's SingularMetricError and warn NearlySingularKineticWarning
exactly once, as the oracle does.
"""

import math
import re
import warnings

import pytest

from hlift.dynamics import (IntegratorConfig, ReducedState, herglotz_rhs,
                            homogeneity_residual, integrate_geodesic,
                            integrate_herglotz, lift_state)
from hlift.errors import NonFiniteError, SingularMetricError
from hlift.geometry import (BrinkmannMetric, HerglotzSystem,
                            NearlySingularKineticWarning, Point,
                            conformal_pullback_check, covariant_sym_grad)
from hlift.symmetry import (SymmetryGenerator, conformal_factor,
                            conformal_killing_residual,
                            degreewise_max_residual, killing_residual,
                            symmetry_condition_residual, transform_rule_check)
from hlift.systems import conformal_pair, standard_catalog

from numpy_oracle import conformal_split, herglotz_rhs_numpy

_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10)


def _subject(kind: str):
    """(label, cached functions, key, entry points) of the pipeline
    `kind`: the label its explanation names, the dict that caches its
    function under `key` once an entry point has built it, and the
    zero-argument calls of every public entry point over it."""
    system = standard_catalog()["coupled"].system
    metric = BrinkmannMetric(system)
    gen = SymmetryGenerator(2, ["x2", "-x1"], "1", "0.1*w", name="probe")
    p = Point([0.3, -0.2], 0.5, 0.25)
    rs = ReducedState([0.3, -0.2], [0.5, 0.1], 0.5, 0.25)
    ent_a, ent_b, cmap, factor = conformal_pair(n=2)
    a, b = ent_a.system, ent_b.system
    if kind in ("geodesic", "reduced", "homogeneity"):
        label, fns, key = f"{system.name} {kind}", system._passes._fns, kind
    elif kind in ("transform-rule", "pullback"):
        label = f"{cmap.name} {a.name} {b.name} {kind}"
        fns, key = cmap._passes._fns, (a, b, kind)
    else:
        label, fns, key = f"{system.name} {gen.name} {kind}", None, kind
    entries = {
        "geodesic": [lambda: integrate_geodesic(
            metric, lift_state(system, rs), (0.0, math.inf), config=_CFG,
            stop_at_u=rs.u + 1.0)],
        "reduced": [lambda: herglotz_rhs(system, rs),
                    lambda: integrate_herglotz(system, rs,
                                               (rs.u, rs.u + 1.0), _CFG)],
        "lie-derivative": [lambda: covariant_sym_grad(metric, gen, p),
                           lambda: killing_residual(metric, gen, p)],
        "conformal-killing": [
            lambda: conformal_killing_residual(metric, gen, p),
            lambda: conformal_factor(metric, gen, p)],
        "degreewise": [lambda: degreewise_max_residual(system, gen, p)],
        "symmetry": [lambda: symmetry_condition_residual(system, gen, rs)],
        "homogeneity": [lambda: homogeneity_residual(system, rs, 2.0)],
        "transform-rule": [lambda: transform_rule_check(a, b, cmap, rs)],
        "pullback": [lambda: conformal_pullback_check(
            BrinkmannMetric(a), BrinkmannMetric(b), cmap, p, factor)],
    }[kind]
    for entry in entries:
        entry()             # healthy: builds the function and returns
    if fns is None:
        fns = gen._joint[system]._fns
    return label, fns, key, entries


@pytest.mark.parametrize("kind", [
    "geodesic", "reduced", "lie-derivative", "conformal-killing",
    "degreewise", "symmetry", "homogeneity", "transform-rule", "pullback"])
def test_a_declined_call_raises_naming_its_pipeline(kind, monkeypatch):
    label, fns, key, entries = _subject(kind)
    assert key in fns
    monkeypatch.setitem(fns, key, lambda *args: None)
    for entry in entries:
        with pytest.raises(NonFiniteError, match="^" + re.escape(
                f"{label}: a value is not finite at [")):
            entry()


def _raised(fn):
    """(class, message) of the error fn() raises, and the (category,
    message) of each warning it emits."""
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            fn()
        except Exception as err:    # every error counts
            raised = type(err), str(err)
        else:
            raise AssertionError("nothing raised")
    return raised, [(w.category, str(w.message)) for w in warned]


# (system, x) with det h == 0 at x: n = 1 and 2 solve in closed form, n = 3
# by numpy
_SINGULAR = [
    (HerglotzSystem(1, [["x1"]], ["0"], "0.5*x1^2", name="zero-h"), [0.0]),
    (HerglotzSystem(2, [["1", "x1"], ["x1", "1"]], ["0", "0.2*x1"],
                    "0.5*x1^2", name="rank-one"), [1.0, 0.3]),
    (HerglotzSystem(3, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "x1"]],
                    ["0", "0", "0"], "0.5*x2^2", name="flat-x3"),
     [0.0, 0.3, -0.1]),
]


@pytest.mark.parametrize("system, x", _SINGULAR,
                         ids=[s.name for s, _ in _SINGULAR])
def test_det_h_zero_raises_the_oracle_error_and_warns_once(system, x):
    n = system.n
    metric = BrinkmannMetric(system)
    rs = ReducedState(x, [0.3] * n, 0.5, 0.25)
    p = rs.point()
    gen = SymmetryGenerator(n, ["0"] * n, "1", "0", name="time-shift")
    gs = lift_state(system, rs)
    thin = [(NearlySingularKineticWarning, "kinetic block h is nearly singular")]
    # (route, its numpy oracle)
    cases = [
        (lambda: herglotz_rhs(system, rs),
         lambda: herglotz_rhs_numpy(system, rs)),
        (lambda: integrate_herglotz(system, rs, (0.5, 1.5), _CFG),
         lambda: herglotz_rhs_numpy(system, rs)),
        (lambda: integrate_geodesic(metric, gs, (0.0, math.inf), _CFG, 1.5),
         lambda: metric.accelerations(gs.point, gs.velocity)),
        (lambda: conformal_killing_residual(metric, gen, p),
         lambda: conformal_split(metric, gen, p)),
    ]
    for k, (route, oracle) in enumerate(cases):
        want = _raised(oracle)
        assert want[0][0] is SingularMetricError and want[1] == thin, k
        assert _raised(route) == want, k


def test_a_thin_h_whose_solution_overflows_warns_once_and_raises():
    # min |eig h| = 1e-9 warns, and x'' = -V' / h overflows: the compiled
    # function declines, and its explanation warns once, as numpy's solve
    # does before it returns inf, and raises NonFiniteError
    system = HerglotzSystem(1, [["1e-9"]], ["0"], "1e300*x1^2", name="thin")
    rs = ReducedState([1.0], [0.0], 0.0, 0.0)
    (err, message), warned = _raised(lambda: herglotz_rhs(system, rs))
    assert err is NonFiniteError and message.startswith("thin reduced: ")
    assert warned == [(NearlySingularKineticWarning,
                       "kinetic block h is nearly singular")]
    with warnings.catch_warnings(record=True) as oracle_warned:
        warnings.simplefilter("always")
        xpp, _ = herglotz_rhs_numpy(system, rs)
    assert math.isinf(xpp[0])
    assert [w.category for w in oracle_warned][0] is NearlySingularKineticWarning
