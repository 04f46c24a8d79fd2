"""The compiled checks against their numpy formulas (numpy_oracle.py):
the generator checks (killing, conformal-killing, degreewise and
symmetry), homogeneity, and the checks that relate two systems through a
coordinate map (transform rule, conformal pullback); and the compiled
kinetic solve against solve_kinetic, whose warnings and errors it keeps.

Where the oracle raises or warns, a check raises or warns the same, with
the same message (a declined call is explained, FieldPasses.explain); where
the oracle's numbers are not finite, or numpy warns, it raises
NonFiniteError (assert_like_the_oracle).  Elsewhere the two
agree to 1e-13 of the scale of the formula's terms: the product of the
largest magnitudes among the field values and partials (F), the
generator's components and partials (G), g^{-1}'s entries (H, for the
conformal check) and the velocities (X, for the symmetry check).  On
the catalog clouds Killing and degreewise residuals come out bit for
bit; conformal-killing and symmetry ones differ in the last bits, where
numpy's BLAS sums in another order.  The scales of homogeneity, the
transform rule and the pullback are stated where they are computed.
"""

import gc
import linecache
import math
import warnings
import weakref

import numpy as np
import pytest

from hlift import expr, symmetry, systems
from hlift.cloud import halton, point_cloud, state_cloud
from hlift.dynamics import ReducedState, homogeneity_residual
from hlift.errors import (NonFiniteError, SingularJacobianError,
                          SingularMetricError)
from hlift.geometry import (BrinkmannMetric, CoordinateMap, HerglotzSystem,
                            NearlySingularKineticWarning, Point,
                            _min_abs_eigenvalue, conformal_pullback_check,
                            covariant_sym_grad, emit_kinetic_solve,
                            solve_kinetic)
from hlift.symmetry import (SymmetryGenerator, _conformal_killing_tail,
                            conformal_killing_residual, degreewise_identities,
                            degreewise_max_residual, killing_residual,
                            symmetry_condition_residual, transform_rule_check)
from hlift.systems import (conformal_pair, coupled_curved, standard_catalog,
                           x_scaling_control)

from numpy_oracle import (assert_like_the_oracle, conformal_split,
                          homogeneity_numpy, lie_derivative_numpy,
                          pullback_numpy, symmetry_condition_numpy,
                          transform_rule_numpy)
from test_forward import _COORD, _EXPRS, GUARDS, hypothesis, st

_REL = 1e-13
_TINY = np.finfo(float).tiny


def _killing_numpy(metric, gen, p):
    return float(np.max(np.abs(lie_derivative_numpy(metric, gen, p))))


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
         symmetry_condition_numpy(system, gen, rs)),
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


def _numpy_max_abs(S) -> float:
    return float(np.max(np.abs(S)))


@pytest.mark.parametrize("system, gen", _subjects())
def test_killing_residual_is_the_numpy_max_bit_for_bit(system, gen):
    # the float reduction of S is numpy's, to the last bit
    metric = BrinkmannMetric(system)
    for p in point_cloud(system.n, 256):
        got = killing_residual(metric, gen, p)
        assert type(got) is float
        want = _numpy_max_abs(covariant_sym_grad(metric, gen, p))
        assert got.hex() == want.hex(), p


_BIG = 1.5e308


# covariant_sym_grad returns finite entries only (a non-finite one
# declines, see test_declines.py)
@pytest.mark.parametrize("entries", [
    [-0.0, 0.0, -0.0],
    [_BIG, _BIG, -1.0],
    [-_BIG, -_BIG, 1.0],
    [_BIG, -_BIG, _BIG],
], ids=["-0", "overflow", "-overflow", "huge"])
def test_killing_residual_gives_numpys_answer_on_any_entries(
        monkeypatch, entries):
    # finite entries whose sum overflows reduce like any others: the
    # result is numpy's
    S = np.zeros((3, 3))
    S.flat[[1, 4, 8]] = entries
    monkeypatch.setattr(symmetry, "covariant_sym_grad",
                        lambda metric, gen, point: S.copy())
    got = killing_residual(None, None, None)
    assert type(got) is float
    assert got.hex() == _numpy_max_abs(S).hex()


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
        ("symmetry", symmetry_condition_residual, symmetry_condition_numpy,
         (system, gen, rs)),
    ]


def _assert_like_numpy(system, gen, p, rs, *context):
    """Each compiled check gives the outcome that the numpy route's
    outcome calls for (assert_like_the_oracle), and where both give
    numbers they agree within the rounding bound."""
    for check, compiled, numpy_route, args in _routes(system, gen, p, rs):
        want = _outcome(numpy_route, *args)
        got = _outcome(compiled, *args)
        if assert_like_the_oracle(got, want, check, context):
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


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
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


def test_nearly_singular_kinetic_block_warns_through_the_compiled_check():
    # min |eig h| stays under 1e-8: the compiled conformal check returns
    # its numbers and warns once, with the numpy formula's message
    system = HerglotzSystem(2, [["1", "0"], ["0", "1e-9*(1 + x1^2)"]],
                            ["0", "0"], "0.5*x1^2", name="thin")
    gen = SymmetryGenerator(2, ["0", "0"], "1", "0", name="time-shift")
    metric = BrinkmannMetric(system)
    p = Point([0.3, 0.1], 0.2, 0.0)
    fn = gen.joint(system).pipeline("conformal-killing",
                                    _conformal_killing_tail)
    with pytest.warns(NearlySingularKineticWarning) as fn_warned:
        assert fn(0.3, 0.1, 0.2, 0.0) == (0.0, 0.0)
    with pytest.warns(NearlySingularKineticWarning) as warned:
        res, lam = conformal_killing_residual(metric, gen, p)
    assert (res, lam) == (0.0, 0.0)
    with pytest.warns(NearlySingularKineticWarning) as oracle_warned:
        conformal_split(metric, gen, p)
    assert len(fn_warned) == len(warned) == len(oracle_warned) == 1
    assert str(warned[0].message) == str(oracle_warned[0].message)


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


def test_catalog_and_conformal_pair_compile_nothing(monkeypatch):
    built = []
    define = expr.define_function
    monkeypatch.setattr(expr, "define_function",
                        lambda *args: built.append(args[3]) or define(*args))
    # built afresh: an empty memo, so that nothing compiled earlier in
    # this process is reused
    monkeypatch.setattr(systems, "_BUILT", {})
    catalog = standard_catalog()
    ent_a, ent_b, cmap, factor = conformal_pair(n=2)
    assert built == []
    # each first check builds its one function, and a second check of
    # the same system or pair reuses it
    system = catalog["coupled"].system
    rs = ReducedState([0.3, -0.2], [0.5, 0.1], 0.5, 0.25)
    p = Point([0.3, -0.2], 0.5, 0.25)
    for _ in range(2):
        homogeneity_residual(system, rs, 2.0)
    assert built == [f"forward {system.name} homogeneity"]
    pair = f"{cmap.name} {ent_a.system.name} {ent_b.system.name}"
    for _ in range(2):
        transform_rule_check(ent_a.system, ent_b.system, cmap, rs)
        conformal_pullback_check(BrinkmannMetric(ent_a.system),
                                 BrinkmannMetric(ent_b.system), cmap, p, factor)
    assert built[1:] == [f"forward {pair} transform-rule",
                         f"forward {pair} pullback"]
    # a system of another dimension is refused, and nothing is built
    with pytest.raises(ValueError, match="has dimension 2, harmonic.* has 1"):
        cmap._passes.pipeline("pullback", None, catalog["harmonic"].system,
                              ent_b.system)
    assert len(built) == 3


def test_a_source_compiled_once_is_not_compiled_again(monkeypatch):
    compiled = []
    monkeypatch.setattr(expr, "_CODE", weakref.WeakValueDictionary())
    monkeypatch.setattr(expr, "compile", lambda *args: compiled.append(args[1])
                        or compile(*args), raising=False)
    rs = ReducedState([0.3, -0.2], [0.5, 0.1], 0.5, 0.25)
    fns = []
    for _ in range(2):
        # two equal systems, each built directly (not through the memo)
        system = coupled_curved().system
        homogeneity_residual(system, rs, 2.0)
        fns.append(system._passes._fns["homogeneity",])
    assert len(compiled) == 1
    # defined afresh, in its own namespace, from the one code object
    assert fns[0] is not fns[1] and fns[0].__code__ is fns[1].__code__
    assert fns[0].__globals__ is not fns[1].__globals__


def test_ever_new_systems_keep_memory_flat():
    # a generated code, and its source in linecache, lives as long as a
    # function runs it: systems built and dropped leave nothing behind
    gc.collect()
    size = len(expr._CODE)
    point = Point([0.3], 0.5, 0.25)
    for batch in range(3):
        codes = []
        for i in range(batch * 256, (batch + 1) * 256):
            system = HerglotzSystem(1, [["1"]], ["0"],
                                    f"0.5*x1^2 + {i}*x1^3")
            system.eval_values(point)
            codes += [fn.__code__ for fn in system._passes._fns.values()]
        assert len(codes) == 256
        files = [code.co_filename for code in codes]
        assert all(f.startswith("<forward") and f in linecache.cache
                   for f in files)
        refs = [weakref.ref(code) for code in codes]
        del system, codes
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert not set(files) & set(linecache.cache)
        assert len(expr._CODE) == size


# ------------------------------------------- the kinetic block's conditioning

_NEXT = math.nextafter
# the warning's threshold and its neighbours, as an entry and as the trace
_EDGES = [1e-8, -1e-8, _NEXT(1e-8, 0.0), _NEXT(1e-8, 1.0),
          _NEXT(-1e-8, 0.0), _NEXT(-1e-8, -1.0), 2e-8, _NEXT(2e-8, 0.0),
          _NEXT(2e-8, 1.0), 5e-9, 0.0, -0.0, 0.5, 1.0, -1.0, 1e155, 1e160,
          -1e200, 1e200, 1e-300, 5e-324, 1.7e308]
_ENTRY = st.one_of(st.sampled_from(_EDGES), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _thin_blocks(draw):
    """A symmetric 2 x 2 block R diag(l1, l2) R', rounded, whose first
    eigenvalue is at the threshold: its computed eigenvalues straddle
    1e-8 by a few ulps."""
    l1 = draw(st.sampled_from(_EDGES[:10]))
    l2 = draw(st.one_of(st.sampled_from(_EDGES[:10]), st.floats(-4.0, 4.0)))
    t = draw(st.floats(0.0, math.pi))
    c, s = math.cos(t), math.sin(t)
    return [c * c * l1 + s * s * l2, c * s * (l1 - l2),
            s * s * l1 + c * c * l2]


def _kinetic_probe(entries, constant):
    """The compiled h^-1 of a 1 x 1 (`entries` = [h11]) or symmetric
    2 x 2 (h11, h12, h22) kinetic block, by emit_kinetic_solve on the unit
    columns, and its arguments: entry k is a constant where constant[k]
    (the compiler settles what it can), else the k-th coordinate."""
    n = 1 if len(entries) == 1 else 2
    coords = ["x1", "x2", "u"][:len(entries)]
    fields = [expr.Field(n, v if const else name)
              for v, const, name in zip(entries, constant, coords)]

    def tail(em, nodes):
        v = [node[0] for node in nodes]
        h = [v] if n == 1 else [v[:2], v[1:]]
        units = [[1.0 if i == k else 0.0 for i in range(n)] for k in range(n)]
        return em.coords, [e for col in emit_kinetic_solve(em, h, units)
                           for e in col]

    fn = expr.compile_forward(fields, n, False, "probe", tail)
    args = [0.0] * (n + 2)
    for k, (v, const) in enumerate(zip(entries, constant)):
        if not const:
            args[k] = v
    return fn, args


def _kinetic_outcome(fn, *args):
    """(value or None, NearlySingularKineticWarnings) of fn(*args)."""
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (SingularMetricError, FloatingPointError):
            out = None
    return out, [w.category for w in warned]


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(st.one_of(st.lists(_ENTRY, min_size=1, max_size=1),
                            st.lists(_ENTRY, min_size=3, max_size=3),
                            _thin_blocks()),
                  st.lists(st.booleans(), min_size=3, max_size=3))
# eigenvalues at +-1e-8, and 1e-8 from a trace next to 2e-8
@hypothesis.example([1e-8], [False] * 3)
@hypothesis.example([-1e-8], [True] * 3)
@hypothesis.example([1e-8, 0.0, 1e-8], [False] * 3)
@hypothesis.example([-1e-8, 0.0, -1e-8], [True] * 3)
@hypothesis.example([_NEXT(1e-8, 0.0)] + [0.0, _NEXT(1e-8, 0.0)], [False] * 3)
@hypothesis.example([_NEXT(1e-8, 1.0)] + [0.0, _NEXT(1e-8, 1.0)], [True] * 3)
# trace 0: eigenvalues -+1e-8, and an indefinite block
@hypothesis.example([1e-8, 0.0, -1e-8], [False, True, False])
@hypothesis.example([1.0, 2.0, 1.0], [False] * 3)
@hypothesis.example([1.0, 0.5, -1.0], [True] * 3)
@hypothesis.example([-1.0, 0.0, 5e-9], [True] * 3)
@hypothesis.example([-1.0, 0.0, 5e-9], [False] * 3)
# det h == 0
@hypothesis.example([0.0], [True] * 3)
@hypothesis.example([0.0], [False] * 3)
@hypothesis.example([1.0, 1.0, 1.0], [False] * 3)
@hypothesis.example([0.0, 0.0, 1.0], [True] * 3)
# q overflows, from the diagonal and from the off-diagonal pair
@hypothesis.example([1e200, 0.0, -1e200], [False] * 3)
@hypothesis.example([1e200, 0.0, -1e200], [True] * 3)
@hypothesis.example([1.0, 1e160, 1.0], [False, False, True])
def test_the_compiled_kinetic_solve_warns_and_declines_as_solve_kinetic(
        entries, constant):
    # it warns exactly where min |eig h| < 1e-8 and declines exactly where
    # solve_kinetic raises, or where numpy's arithmetic would warn; what
    # it returns is solve_kinetic's h^-1
    h = [entries] if len(entries) == 1 else [entries[:2], entries[1:]]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        inv, thin = _kinetic_outcome(
            lambda: solve_kinetic(np.array(h), None, "probe"))
    fn, args = _kinetic_probe(entries, constant)
    out, warned = _kinetic_outcome(fn, *args)
    if inv is None:
        assert (out, warned) == (None, [])
    else:
        assert thin == ([NearlySingularKineticWarning]
                        if _min_abs_eigenvalue(np.array(h)) < 1e-8 else [])
        assert out == tuple(inv.T.ravel()) and warned == thin


@pytest.mark.parametrize("d3", [1.0, 2e-8, 5e-9, -5e-9, 0.0])
@pytest.mark.parametrize("constant", [True, False])
def test_an_n3_kinetic_solve_warns_and_declines_as_solve_kinetic(d3,
                                                                  constant):
    # numpy's route, with h constant and with h33 a coordinate
    h = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, d3]]
    upper = [h[0][0], h[0][1], h[0][2], h[1][1], h[1][2],
             d3 if constant else "x3"]

    def tail(em, nodes):
        a, b, c, d, e, f = (node[0] for node in nodes)
        units = [[1.0 if i == k else 0.0 for i in range(3)] for k in range(3)]
        return em.coords, [v for col in emit_kinetic_solve(
            em, [[a, b, c], [b, d, e], [c, e, f]], units) for v in col]

    fn = expr.compile_forward([expr.Field(3, v) for v in upper], 3, False,
                              "probe", tail)
    inv, thin = _kinetic_outcome(
        lambda: solve_kinetic(np.array(h), np.eye(3), "p"))
    out, warned = _kinetic_outcome(fn, 0.0, 0.0, d3, 0.0, 0.0)
    if inv is None:
        assert (out, warned) == (None, [])
    else:
        assert out == tuple(inv.T.ravel()) and warned == thin
        assert thin == ([NearlySingularKineticWarning] if abs(d3) < 1e-8
                        else [])


# ---------------------------------------------- homogeneity and the pair

def _homogeneity_scale(system, rs, udot) -> float:
    """F X^2 max(1, |udot|): F the largest field value, X the largest
    |x'|, each at least one (the terms are h xd xd / ud, A xd, V ud)."""
    h, A, V = system.eval_values(rs.point())
    F = float(max(1.0, np.max(np.abs(h)), np.max(np.abs(A)), abs(V)))
    X = float(max(1.0, np.max(np.abs(rs.xp))))
    return F * X * X * max(1.0, abs(udot))     # Python floats: inf, no warning


def _field_size(system, point) -> float:
    h, A, V = system.eval_values(point)
    return float(max(1.0, np.max(np.abs(h)), np.max(np.abs(A)), 2.0 * abs(V)))


def _transform_scale(system_a, system_b, cmap, rs) -> float:
    """F_b R^3 / min(1, |du'/du|)^2, R = J F_a X^2 the size of the rates
    (J the largest map value or partial, F the largest field value at
    the point and at the image, X the largest |x'|): L_b is quadratic in
    the rates over du'/du, and the residual is L_b du'/du - dw'/du."""
    n = system_a.n
    vals, J = cmap.value_and_jacobian(rs.point())
    Jm = float(max(1.0, np.max(np.abs(vals)), np.max(np.abs(J))))
    X = float(max(1.0, np.max(np.abs(rs.xp))))
    R = Jm * _field_size(system_a, rs.point()) * X * X
    tang = [*rs.xp.tolist(), 1.0, 0.0]
    dup = abs(sum(a * b for a, b in zip(J[n].tolist(), tang)))
    image = Point.from_coords(vals, n)
    D = min(1.0, max(dup, 1e-12))
    return _field_size(system_b, image) * R * R * R / (D * D)   # inf, not an error


def _pullback_scale(system_a, system_b, cmap, p, omega) -> float:
    """J^2 F_b + |Omega| F_a, the size of the entries of J^T g_b J and
    Omega g_a."""
    vals, J = cmap.value_and_jacobian(p)
    Jm = float(max(1.0, np.max(np.abs(J))))
    om = omega(p.x.tolist(), float(p.u), float(p.w))
    return (Jm * Jm * _field_size(system_b, Point.from_coords(vals, p.x.size))
            + abs(om) * _field_size(system_a, p))


def _pair_routes(ent_a, ent_b, cmap, factor, p, rs):
    """(check, compiled route, numpy route, args, scale function) for the
    transform rule and the pullback of a pair of systems."""
    met_a, met_b = BrinkmannMetric(ent_a), BrinkmannMetric(ent_b)
    omega = expr.as_field(factor, ent_a.n, name="omega")
    return [
        ("transform-rule", transform_rule_check, transform_rule_numpy,
         (ent_a, ent_b, cmap, rs), _transform_scale),
        ("pullback", conformal_pullback_check, pullback_numpy,
         (met_a, met_b, cmap, p, omega), lambda *args: _pullback_scale(
             ent_a, ent_b, cmap, p, omega)),
    ]


def _assert_same_outcome(compiled, numpy_route, args, scale, *context):
    """The compiled route gives the outcome that the numpy route's
    outcome calls for (assert_like_the_oracle), and where both give
    numbers they agree within 1e-13 of `scale()`."""
    want = _outcome(numpy_route, *args)
    got = _outcome(compiled, *args)
    if assert_like_the_oracle(got, want, *context):
        assert abs(got[0] - want[0]) <= _REL * scale() + _TINY, \
            (context, got, want)


@pytest.mark.parametrize("key", list(standard_catalog()))
def test_homogeneity_matches_numpy_over_a_cloud(key):
    system = standard_catalog()[key].system
    for rs in state_cloud(system.n, 256):
        for udot in (0.5, 1.0, 2.0):
            got = homogeneity_residual(system, rs, udot)
            want = homogeneity_numpy(system, rs, udot)
            bound = _REL * _homogeneity_scale(system, rs, udot) + _TINY
            assert abs(got - want) <= bound, (rs, udot)


@pytest.mark.parametrize("n", [1, 2])
def test_damped_pair_checks_match_numpy_over_a_cloud(n):
    ent_a, ent_b, cmap, factor = conformal_pair(n=n)
    for p, rs in zip(point_cloud(n, 256), state_cloud(n, 256)):
        for check, compiled, numpy_route, args, scale in _pair_routes(
                ent_a.system, ent_b.system, cmap, factor, p, rs):
            got, want = compiled(*args), numpy_route(*args)
            assert abs(got - want) <= _REL * scale(*args) + _TINY, (check, p, rs)


@pytest.mark.parametrize("V, x1", GUARDS)
def test_guards_raise_the_numpy_error_of_the_pair_checks(V, x1):
    # each guarded expression as V, as Omega, as each map component and
    # as either system's V: every check gives the outcome the numpy
    # route's outcome calls for, or agrees with its number
    guarded = HerglotzSystem(1, [["1"]], ["0"], V, name="guarded")
    rs = ReducedState([x1], [0.3], 0.5, 0.25)
    p = Point([x1], 0.5, 0.25)
    for udot in (0.5, 2.0):
        _assert_same_outcome(homogeneity_residual, homogeneity_numpy,
                             (guarded, rs, udot), lambda: _homogeneity_scale(
                                 guarded, rs, udot), V, udot)
    ent_a, ent_b, cmap, factor = conformal_pair()
    cases = [(guarded, ent_b.system, cmap, factor),
             (ent_a.system, guarded, cmap, factor),
             (ent_a.system, ent_b.system, cmap, V)]
    for k in range(3):
        comps = ["x1", "u", "w"]
        comps[k] = V
        cases.append((ent_a.system, ent_b.system,
                      CoordinateMap(1, comps, name="guarded"), factor))
    for case, (sys_a, sys_b, cm, omega) in enumerate(cases):
        for check, compiled, numpy_route, args, scale in _pair_routes(
                sys_a, sys_b, cm, omega, p, rs):
            _assert_same_outcome(compiled, numpy_route, args,
                                 lambda: scale(*args), check, V, case)


@pytest.mark.parametrize("xp, udot", [
    ([np.inf], 1.0), ([-np.inf], 0.5), ([np.nan], 2.0), ([0.3], np.inf),
    ([0.3], -np.inf), ([0.3], np.nan)])
def test_a_non_finite_velocity_raises_non_finite_error(xp, udot):
    system = standard_catalog()["harmonic"].system
    rs = ReducedState([0.4], xp, 0.5, 0.25)
    for route in (homogeneity_residual, homogeneity_numpy):
        with pytest.raises(NonFiniteError, match="finite velocities"):
            route(system, rs, udot)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.lists(_EXPRS, min_size=6, max_size=6),
                  st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                  st.lists(_COORD, min_size=6, max_size=6))
# constant h with x' = 0 makes the quadratic term a structural zero, and
# udot * udot underflows: the numpy route's division raises regardless,
# and the compiled route raises NonFiniteError
@hypothesis.example(texts=["0", "(-pow(0, pi))", "(-pow(0, pi))", "x1", "x1",
                           "x1"], k=0.0, udot=1.717248566024963e-287,
                    coords=[0.0] * 6)
def test_random_systems_match_the_numpy_homogeneity(texts, k, udot, coords):
    h11, h12, h22, a1, a2, V = texts
    system = HerglotzSystem(2, [[h11, h12], [h12, h22]], [a1, a2], V,
                            params={"k": k}, name="random")
    rs = ReducedState(coords[:2], coords[4:6], coords[2], coords[3])
    hypothesis.assume(udot != 0.0)
    _assert_same_outcome(homogeneity_residual, homogeneity_numpy,
                         (system, rs, udot),
                         lambda: _homogeneity_scale(system, rs, udot),
                         texts, udot, coords)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.lists(_EXPRS, min_size=4, max_size=4),
                  st.floats(-2.0, 2.0), st.lists(_COORD, min_size=6,
                                                 max_size=6))
def test_random_maps_match_the_numpy_route(texts, k, coords):
    ent_a, ent_b, _, factor = conformal_pair(n=2)
    cmap = CoordinateMap(2, texts, params={"k": k}, name="random")
    p = Point(coords[:2], coords[2], coords[3])
    rs = ReducedState(coords[:2], coords[4:6], coords[2], coords[3])
    for check, compiled, numpy_route, args, scale in _pair_routes(
            ent_a.system, ent_b.system, cmap, factor, p, rs):
        _assert_same_outcome(compiled, numpy_route, args,
                             lambda: scale(*args), check, texts, coords)


def test_a_map_that_freezes_u_raises_singular_jacobian_with_a_float():
    # u' = 0*u: du'/du is 0.0, and the message shows it as a float, as
    # the numpy oracle's does
    ent_a, ent_b, _, _ = conformal_pair(n=1)
    cmap = CoordinateMap(1, ["x1", "0*u", "w"], name="frozen")
    rs = ReducedState([0.1], [0.2], 0.5, 0.25)
    message = "frozen: du'/du = 0.0 is not invertible at the state"
    for route in (transform_rule_check, transform_rule_numpy):
        with pytest.raises(SingularJacobianError) as info:
            route(ent_a.system, ent_b.system, cmap, rs)
        assert str(info.value) == message


def test_a_system_of_another_dimension_is_rejected():
    ent_a, ent_b, cmap, factor = conformal_pair(n=1)
    other = coupled_curved().system
    with pytest.raises(ValueError, match="coupled has 2"):
        transform_rule_check(ent_a.system, other, cmap,
                             ReducedState([0.1], [0.2], 0.0, 0.0))
