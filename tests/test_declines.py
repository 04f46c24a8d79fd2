"""One route per compiled formula: where a compiled pipeline declines a
call, the call's error is raised (FieldPasses.explain), and nothing
computes the formula another way.

Each of the eleven pipelines is made to decline at a healthy catalog
point: every public entry point over it, and the integrator that steps
it, raise NonFiniteError naming the pipeline, by the label of its
generated code, and the point.  The table of pipelines is every kind
that src/hlift builds or calls by name.  Where
det h == 0, the three pipelines that solve with h raise the numpy
oracle's SingularMetricError and warn NearlySingularKineticWarning
exactly once, as the oracle does.
"""

import ast
import linecache
import math
import re
import warnings
from pathlib import Path

import pytest

import hlift
from hlift.dynamics import (IntegratorConfig, ReducedState, herglotz_rhs,
                            homogeneity_residual, integrate_geodesic,
                            integrate_herglotz, lagrangian_w_slope,
                            lift_state)
from hlift.errors import NonFiniteError, SingularMetricError
from hlift.geometry import (BrinkmannMetric, HerglotzSystem,
                            NearlySingularKineticWarning, Point,
                            conformal_pullback_check, covariant_sym_grad)
from hlift.symmetry import (SymmetryGenerator, conformal_factor,
                            conformal_killing_residual,
                            degreewise_max_residual, killing_residual,
                            nonlocal_charge, symmetry_condition_residual,
                            transform_rule_check)
from hlift.systems import conformal_pair, standard_catalog

from numpy_oracle import conformal_split, herglotz_rhs_numpy

_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10)
_KINDS = ("geodesic", "geodesic-flow", "reduced", "lie-derivative",
          "conformal-killing", "degreewise", "symmetry", "homogeneity",
          "transform-rule", "pullback", "w-slope")


# an n = 3 system, whose pipelines that solve with h call numpy's solve
_INLINE_3 = HerglotzSystem(
    3, [["1 + 0.1*w^2", "0.2*x3", "0"], ["0.2*x3", "1.5", "0.1*w"],
        ["0", "0.1*w", "2 + 0.1*x1^2"]],
    ["0.3*w*x2", "-0.2*w*x1", "0.1*u"], "0.5*(x1^2 + x2^2 + x3^2) + 0.2*w",
    name="inline-3")


def _subject(kind: str, n: int = 2):
    """(label, cached functions, key, entry points) of the pipeline
    `kind`: the label its explanation names, the FieldPasses dict that
    caches its function under `key` = (kind, *systems) once an entry
    point has built it, and the zero-argument calls of every public
    entry point over it.  The system is `coupled` for n = 2, _INLINE_3
    for n = 3."""
    system = standard_catalog()["coupled"].system if n == 2 else _INLINE_3
    metric = BrinkmannMetric(system)
    gen = SymmetryGenerator(n, ["x2", "-x1", *["0"] * (n - 2)], "1", "0.1*w",
                            name="probe")
    p = Point([0.3, -0.2, 0.1][:n], 0.5, 0.25)
    rs = ReducedState([0.3, -0.2, 0.1][:n], [0.5, 0.1, -0.3][:n], 0.5, 0.25)
    ent_a, ent_b, cmap, factor = conformal_pair(n=n)
    a, b = ent_a.system, ent_b.system
    if kind in ("geodesic", "geodesic-flow", "reduced", "homogeneity",
                "w-slope"):
        label, passes, key = f"{system.name} {kind}", system._passes, (kind,)
    elif kind in ("transform-rule", "pullback"):
        label = f"{cmap.name} {a.name} {b.name} {kind}"
        passes, key = cmap._passes, (kind, a, b)
    else:
        label = f"{system.name} {gen.name} {kind}"
        passes, key = gen.joint(system), (kind,)
    geodesic = [lambda: integrate_geodesic(
        metric, lift_state(system, rs), (0.0, math.inf), config=_CFG,
        stop_at_u=rs.u + 1.0)]
    entries = {
        "geodesic": geodesic,
        "geodesic-flow": geodesic,
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
        "w-slope": [lambda: lagrangian_w_slope(system, rs),
                    lambda: nonlocal_charge(system, gen, integrate_herglotz(
                        system, rs, (rs.u, rs.u + 1.0), _CFG))],
    }[kind]
    for entry in entries:
        entry()             # healthy: builds the function and returns
    return label, passes._fns, key, entries


def test_the_table_holds_every_pipeline_of_the_source():
    # the kinds named in the first argument of a .call( or .pipeline(
    # call, however many lines it spans; run's bare passes excluded
    named = set()
    for path in Path(hlift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("call", "pipeline") and node.args):
                named.update(c.value for c in ast.walk(node.args[0])
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str))
    assert named - {"values", "derivatives"} == set(_KINDS)


@pytest.mark.parametrize("kind", _KINDS)
def test_a_declined_call_raises_naming_its_pipeline(kind, monkeypatch):
    label, fns, key, entries = _subject(kind)
    # the generated code's file is <forward label hash>
    named = re.fullmatch(r"<forward (.+) [0-9a-f]{8}>",
                         fns[key].__code__.co_filename)
    assert named is not None and named[1] == label
    monkeypatch.setitem(fns, key, lambda *args: None)
    for entry in entries:
        with pytest.raises(NonFiniteError) as info:
            entry()
        message = str(info.value)
        assert message.startswith(f"{label}: a value is not finite at [")
        assert message.partition(": a value")[0] == named[1]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", _KINDS)
def test_a_compiled_pipeline_declines_every_non_finite_argument(
        kind, n, monkeypatch):
    # the contract that the stepper trusts: at an inf or a nan in any one
    # argument (coordinate, velocity or other), the compiled function
    # returns None, raising and warning nothing; the arguments are those
    # of its first call by an entry point at a healthy point
    _, fns, key, entries = _subject(kind, n)
    fn = fns[key]
    seen = []
    monkeypatch.setitem(fns, key, lambda *args: seen.append(args) or fn(*args))
    entries[0]()
    args = seen[0]
    assert fn(*args) is not None
    for c in range(len(args)):
        for bad in (math.inf, math.nan):
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                out = fn(*args[:c], bad, *args[c + 1:])
            assert out is None and warned == [], (c, bad)


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


# ------------------------------------------------ what the compiler knows

def _catalog_kernels() -> dict:
    """label -> function, for every pipeline of the catalog systems, their
    generators and the conformal pair, each built by its entry points at
    the default state."""
    passes = []
    for ent in standard_catalog().values():
        system, rs = ent.system, ent.default_state
        metric, p = BrinkmannMetric(system), rs.point()
        system.eval_values(p)
        system.eval_bundle(p)
        herglotz_rhs(system, rs)
        integrate_geodesic(metric, lift_state(system, rs), (0.0, math.inf),
                           config=_CFG, stop_at_u=rs.u + 1.0)
        homogeneity_residual(system, rs, 2.0)
        lagrangian_w_slope(system, rs)
        passes.append(system._passes)
        for gen in [*ent.generators.values(),
                    *(g for g, _ in ent.conformal.values())]:
            killing_residual(metric, gen, p)
            conformal_killing_residual(metric, gen, p)
            degreewise_max_residual(system, gen, p)
            symmetry_condition_residual(system, gen, rs)
            passes.append(gen.joint(system))
    ent_a, ent_b, cmap, factor = conformal_pair()
    rs = ent_a.default_state
    transform_rule_check(ent_a.system, ent_b.system, cmap, rs)
    conformal_pullback_check(BrinkmannMetric(ent_a.system),
                             BrinkmannMetric(ent_b.system), cmap, rs.point(),
                             factor)
    passes.append(cmap._passes)
    return {fp.label(key[0], key[1:]): fn
            for fp in passes for key, fn in fp._fns.items()}


def _known_work(src: str) -> list:
    """The lines of a generated function that compute what its compiler
    knew: a power by 1.0, min(abs(...)) (the conditioning test is by
    comparisons), a warning whose condition reads no local, and an
    assignment that no line reads."""
    fn = ast.parse(src).body[0]
    stmts = [s for s in ast.walk(fn) if isinstance(s, ast.stmt)]
    assigned = {t.id for s in stmts if isinstance(s, ast.Assign)
                for t in s.targets}
    local = assigned | {a.arg for a in fn.args.args}
    read = {n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = [line.strip() for line in src.splitlines()
             if "** (1.0)" in line or "min(abs(" in line]
    for s in stmts:
        if isinstance(s, ast.Assign) and not {t.id for t in s.targets} & read:
            found.append(ast.unparse(s))
        if (isinstance(s, ast.If) and "_warn(" in ast.unparse(s.body[0])
                and not {n.id for n in ast.walk(s.test)
                         if isinstance(n, ast.Name)} & local):
            found.append(ast.unparse(s))
    return found


def test_no_kernel_computes_what_its_compiler_knew():
    kernels = _catalog_kernels()
    assert ({label.rsplit(" ", 1)[-1] for label in kernels}
            == {"values", "derivatives", *_KINDS})
    sources = {label: "".join(linecache.getlines(fn.__code__.co_filename))
               for label, fn in kernels.items()}
    assert all(src.startswith("def _forward(") for src in sources.values())
    known = {label: _known_work(src) for label, src in sources.items()}
    assert {label: work for label, work in known.items() if work} == {}
