"""Metric assembly, inverses, Christoffel symbols, and coordinate maps.

Frozen values below come from an independent script that hard-codes the
curved catalog system's metric and its partial derivatives by hand and
contracts them with plain numpy.
"""

import math
import re
import warnings

import numpy as np
import pytest

from hlift.cloud import point_cloud
from hlift.errors import (AsymmetricMetricError, FieldEvalError,
                          SingularMetricError)
from hlift.geometry import (BrinkmannMetric, CoordinateMap, FieldPasses,
                            HerglotzSystem, NearlySingularKineticWarning, Point,
                            conformal_pullback_check, covariant_sym_grad,
                            eval_vector_fields, solve_kinetic)
from hlift.symmetry import SymmetryGenerator, conformal_factor
from hlift.systems import (coupled_curved, damped_conformal_map,
                           damped_time_dependent, free_particle,
                           harmonic_oscillator, standard_catalog,
                           x_scaling_control)

from numpy_oracle import conformal_factor_closed_form

P0 = Point(np.array([0.3, -0.2]), 0.4, 0.1)

# oracle output, coupled_curved at P0, velocity (0.5, -0.3, 1.0, 0.7)
FROZEN_G00 = 1.01
FROZEN_G22 = -0.2678836684617301
FROZEN_GINV33 = 0.274240663280383
FROZEN_GINV00 = 1.0362694300518134
FROZEN_GAMMA = {
    (0, 0, 1): -0.05181347150259067,
    (0, 2, 2): 0.3184974093264248,
    (1, 0, 0): 0.02616580310880829,
    (1, 2, 2): -0.15227461139896373,
    (2, 2, 2): -0.3,
    (3, 0, 2): 0.3008160621761658,
    (3, 2, 2): 0.15155964553466247,
    (2, 0, 1): 0.0,
    (3, 1, 2): -0.21955958549222798,
}
FROZEN_ACC = np.array([-0.21551813471502584, 0.2555777202072539,
                       0.3, -1.0478970807678232])


@pytest.fixture(scope="module")
def coupled():
    return coupled_curved()


@pytest.fixture(scope="module")
def metric(coupled):
    return BrinkmannMetric(coupled.system)


def test_point_round_trip():
    p = Point.from_coords([1.0, 2.0, 3.0, 4.0], 2)
    assert list(p.x) == [1.0, 2.0]
    assert p.u == 3.0 and p.w == 4.0
    assert np.array_equal(p.coords(), [1.0, 2.0, 3.0, 4.0])


def test_field_values_closed_form(coupled):
    h, A, V = coupled.system.eval_values(P0)
    assert h[0, 0] == pytest.approx(1 + 0.25 * 0.04, abs=1e-15)
    assert h[0, 1] == 0.3 and h[1, 1] == 2.0
    assert A[0] == pytest.approx(0.4 * -0.2, abs=1e-15)
    assert A[1] == pytest.approx(-0.1 * 0.3, abs=1e-15)
    want_V = 0.5 * (0.09 + 0.04) + 0.3 * 0.1 + 0.1 * math.sin(0.4)
    assert V == pytest.approx(want_V, rel=1e-15)


def test_bundle_gradients_closed_form(coupled):
    b = coupled.system.eval_bundle(P0)
    # dV = (x1, x2, 0.1 cos u, 0.3) for this catalog entry
    assert b.dV[0] == pytest.approx(0.3, abs=1e-15)
    assert b.dV[1] == pytest.approx(-0.2, abs=1e-15)
    assert b.dV[2] == pytest.approx(0.1 * math.cos(0.4), rel=1e-15)
    assert b.dV[3] == pytest.approx(0.3, abs=1e-15)
    # dh: only h11 varies, in x2
    assert b.dh[1, 0, 0] == pytest.approx(0.5 * -0.2, abs=1e-15)
    assert abs(b.dh[0]).max() == 0.0
    assert abs(b.dh[2]).max() == 0.0
    assert abs(b.dh[3]).max() == 0.0
    # dA: A1 in x2, A2 in x1
    assert b.dA[1, 0] == pytest.approx(0.4, abs=1e-15)
    assert b.dA[0, 1] == pytest.approx(-0.1, abs=1e-15)


def test_bundle_vs_finite_difference(coupled):
    sys = coupled.system
    eps = 1e-6
    b = sys.eval_bundle(P0)
    c0 = P0.coords()
    for axis in range(4):
        step = np.zeros(4)
        step[axis] = eps
        hp, Ap, Vp = sys.eval_values(Point.from_coords(c0 + step, 2))
        hm, Am, Vm = sys.eval_values(Point.from_coords(c0 - step, 2))
        assert np.allclose((hp - hm) / (2 * eps), b.dh[axis], atol=5e-10)
        assert np.allclose((Ap - Am) / (2 * eps), b.dA[axis], atol=5e-10)
        assert (Vp - Vm) / (2 * eps) == pytest.approx(b.dV[axis], abs=5e-10)


def test_metric_blocks(metric):
    g = metric.eval(P0)
    assert g[0, 0] == pytest.approx(FROZEN_G00, abs=1e-15)
    assert g[2, 2] == pytest.approx(FROZEN_G22, rel=1e-15)
    assert g[2, 3] == -1.0 and g[3, 2] == -1.0
    assert g[3, 3] == 0.0
    assert g[0, 3] == 0.0 and g[1, 3] == 0.0
    assert np.array_equal(g, g.T)


def test_inverse_closed_form(metric):
    g = metric.eval(P0)
    ginv = metric.inverse(P0)
    assert np.allclose(g @ ginv, np.eye(4), atol=1e-14)
    assert ginv[2, 2] == 0.0
    assert ginv[2, 3] == -1.0
    assert ginv[3, 3] == pytest.approx(FROZEN_GINV33, rel=1e-14)
    assert ginv[0, 0] == pytest.approx(FROZEN_GINV00, rel=1e-14)


def test_christoffel_frozen(metric):
    gamma = metric.christoffel(P0)
    for idx, want in FROZEN_GAMMA.items():
        assert gamma[idx] == pytest.approx(want, rel=1e-13, abs=1e-15), idx
    # symmetric in the lower pair
    assert np.allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-15)


def test_christoffel_vs_finite_difference(metric):
    # independent of the dual-number machinery: difference the metric itself
    eps = 1e-6
    c0 = P0.coords()
    dg = np.zeros((4, 4, 4))
    for axis in range(4):
        step = np.zeros(4)
        step[axis] = eps
        gp = metric.eval(Point.from_coords(c0 + step, 2))
        gm = metric.eval(Point.from_coords(c0 - step, 2))
        dg[axis] = (gp - gm) / (2 * eps)
    ginv = metric.inverse(P0)
    first = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    want = 0.5 * np.einsum("ms,sab->mab", ginv, first)
    assert np.allclose(metric.christoffel(P0), want, atol=1e-9)


def test_christoffel_reads_dg_alone(metric, monkeypatch):
    # christoffel builds no g: its Gamma from the bundle's dg and g^-1 is
    # that of eval_with_derivatives' dg, bit for bit
    m = metric.dim
    _, dg = metric.eval_with_derivatives(P0)
    term = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    want = 0.5 * (metric.inverse(P0) @ term.reshape(m, m * m)).reshape(m, m, m)
    monkeypatch.setattr(BrinkmannMetric, "_assemble", None)
    assert np.array_equal(metric.christoffel(P0), want)


def test_metric_compatibility(metric):
    # nabla_c g_ab = d_c g_ab - Gamma^d_ca g_db - Gamma^d_cb g_ad = 0
    g, dg = metric.eval_with_derivatives(P0)
    gamma = metric.christoffel(P0)
    nabla = (dg - np.einsum("dca,db->cab", gamma, g)
             - np.einsum("dcb,ad->cab", gamma, g))
    assert np.max(np.abs(nabla)) < 1e-9


def test_accelerations_frozen(metric):
    v = np.array([0.5, -0.3, 1.0, 0.7])
    acc = metric.accelerations(P0, v)
    assert np.allclose(acc, FROZEN_ACC, rtol=1e-13, atol=1e-15)


def test_accelerations_match_christoffel_contraction(metric):
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, size=4)
        v = rng.uniform(-1.0, 1.0, size=4)
        p = Point.from_coords(c, 2)
        gamma = metric.christoffel(p)
        want = -np.einsum("mab,a,b->m", gamma, v, v)
        assert np.allclose(metric.accelerations(p, v), want, atol=1e-13)


def test_flat_systems_have_zero_u_row():
    # no w dependence anywhere -> the u-acceleration row vanishes identically
    for key in ("free", "harmonic", "damped-time"):
        ent = standard_catalog()[key]
        met = BrinkmannMetric(ent.system)
        n = ent.system.n
        p = Point(np.full(n, 0.37), 0.9, -0.4)
        gamma = met.christoffel(p)
        assert np.max(np.abs(gamma[n])) == 0.0


def test_asymmetric_kinetic_block_rejected():
    sys = HerglotzSystem(2, [["1", "x1"], ["0", "1"]], ["0", "0"], "0")
    with pytest.raises(AsymmetricMetricError):
        sys.eval_values(Point(np.array([0.5, 0.0]), 0.0, 0.0))


def test_singular_kinetic_block():
    with pytest.raises(SingularMetricError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearlySingularKineticWarning)
            solve_kinetic(np.array([[0.0]]), np.array([1.0]), "test")
    with pytest.raises(SingularMetricError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearlySingularKineticWarning)
            solve_kinetic(np.array([[1.0, 1.0], [1.0, 1.0]]),
                          np.array([1.0, 0.0]), "test")


def test_near_singular_warning():
    with pytest.warns(NearlySingularKineticWarning):
        solve_kinetic(np.array([[1e-9]]), np.array([1.0]), "test")
    h3 = np.diag([1.0, 1.0, 1e-10])
    with pytest.warns(NearlySingularKineticWarning):
        solve_kinetic(h3, np.array([1.0, 1.0, 1.0]), "test")


def test_solve_kinetic_matches_direct_solve():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        m = rng.uniform(-1, 1, size=(n, n))
        h = m @ m.T + np.eye(n)  # SPD
        rhs = rng.uniform(-1, 1, size=n)
        out = solve_kinetic(h, rhs, "test")
        assert np.allclose(h @ out, rhs, atol=1e-12)


def test_w_dependence_probe():
    cat = standard_catalog()
    assert not cat["free"].system.w_dependent
    assert not cat["harmonic"].system.w_dependent
    assert not cat["damped-time"].system.w_dependent
    assert cat["damped-action"].system.w_dependent
    assert cat["coupled"].system.w_dependent


def test_vector_field_eval():
    gen = free_particle().generators["boost-x1"]
    p = Point(np.array([0.7, -0.2]), 1.3, 0.4)
    K, dK = eval_vector_fields(FieldPasses(gen.component_fields(), 2, "boost"), p)
    # boost: dx = (u, 0), du = 0, dw = x1
    assert np.allclose(K, [1.3, 0.0, 0.0, 0.7], atol=1e-15)
    assert dK[2, 0] == 1.0   # d(dx1)/du
    assert dK[0, 3] == 1.0   # d(dw)/dx1
    assert np.count_nonzero(dK) == 2


def test_covariant_sym_grad_killing_vs_not():
    free = free_particle()
    met = BrinkmannMetric(free.system)
    p = Point(np.array([0.4, 0.9]), 0.6, -0.2)
    S = covariant_sym_grad(met, free.generators["boost-x1"], p)
    assert np.max(np.abs(S)) < 1e-14
    from hlift.systems import x_scaling_control
    S_bad = covariant_sym_grad(met, x_scaling_control(2), p)
    assert np.max(np.abs(S_bad)) > 0.1


def _gamma_route_sym_grad(metric, gen, point):
    """nabla_mu K_nu + nabla_nu K_mu from christoffel and the lowered K,
    the oracle for covariant_sym_grad's Lie derivative form."""
    b = metric.system.eval_bundle(point)
    g, dg = metric.eval_with_derivatives(point, b)
    K, dK = gen.components_at(point)
    K_low = g @ K
    dK_low = np.einsum("mns,s->mn", dg, K) + np.einsum("ns,ms->mn", g, dK)
    gamma = metric.christoffel(point, b)
    nabla = dK_low - np.einsum("smn,s->mn", gamma, K_low)
    return nabla + nabla.T


def _sym_grad_subjects():
    """Every catalog generator, and the x-scaling control on every
    catalog system."""
    out = []
    for ent in standard_catalog().values():
        gens = list(ent.generators.values())
        gens += [g for g, _ in ent.conformal.values()]
        gens.append(x_scaling_control(ent.system.n))
        out += [pytest.param(ent.system, g, id=f"{ent.key}:{g.name}")
                for g in gens]
    return out


@pytest.mark.parametrize("system, gen", _sym_grad_subjects())
def test_lie_derivative_matches_the_christoffel_route(system, gen):
    metric = BrinkmannMetric(system)
    for p in point_cloud(system.n, 200):
        want = _gamma_route_sym_grad(metric, gen, p)
        got = covariant_sym_grad(metric, gen, p)
        scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, p


def test_conformal_factor_matches_closed_form():
    ent = damped_time_dependent(gamma=0.3)
    met = BrinkmannMetric(ent.system)
    gen = ent.conformal["time-scaling"][0]
    p = Point(np.array([0.8]), 1.1, 0.5)
    lam = conformal_factor(met, gen, p)
    want = conformal_factor_closed_form(ent.system, gen, p)
    assert lam == pytest.approx(want, rel=1e-12)
    # and the sym grad really is lambda * g
    S = covariant_sym_grad(met, gen, p)
    assert np.allclose(S, lam * met.eval(p), atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda n: HerglotzSystem(n, [["1"]], ["0"], "0"),
    lambda n: SymmetryGenerator(n, ["1"], "0", "0"),
    lambda n: CoordinateMap(n, ["x1", "u", "w"]),
], ids=["system", "generator", "map"])
@pytest.mark.parametrize("n, message", [
    (True, "dimension must be an integer, got True"),
    (1.0, "dimension must be an integer, got 1.0"),
    (0, "dimension must be at least 1, got 0"),
], ids=["bool", "float", "zero"])
def test_constructors_reject_an_invalid_dimension(make, n, message):
    # to int(n), True and 1.0 are both the dimension 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(n)


def test_coordinate_map_jacobian():
    gamma = 0.25
    cmap, factor = damped_conformal_map(gamma, 1)
    p = Point(np.array([0.6]), 0.8, -0.4)
    q, J = cmap.value_and_jacobian(p)
    scale = math.exp(-gamma * 0.8)
    assert q[0] == 0.6 and q[1] == 0.8
    assert q[2] == pytest.approx(scale * -0.4, rel=1e-15)
    # w-row of the Jacobian: (0, -gamma e^{-gu} w, e^{-gu})
    assert J[2, 0] == 0.0
    assert J[2, 1] == pytest.approx(-gamma * scale * -0.4, rel=1e-14)
    assert J[2, 2] == pytest.approx(scale, rel=1e-15)
    assert np.allclose(J[:2, :], np.eye(3)[:2, :], atol=1e-15)
    assert factor([0.6], 0.8, -0.4) == pytest.approx(scale, rel=1e-15)


def test_conformal_pullback_harmonic_identity_map():
    # identity map pulls a metric back to itself with factor one
    ent = harmonic_oscillator()
    met = BrinkmannMetric(ent.system)
    ident = CoordinateMap(1, ["x1", "u", "w"])
    p = Point(np.array([0.3]), 0.2, 0.9)
    assert conformal_pullback_check(met, met, ident, p, 1.0) < 1e-14


def test_conformal_pullback_damped_pair():
    from hlift.systems import conformal_pair
    ent_a, ent_b, cmap, factor = conformal_pair(0.3, 1.0, 1)
    met_a = BrinkmannMetric(ent_a.system)
    met_b = BrinkmannMetric(ent_b.system)
    p = Point(np.array([0.5]), 0.7, -0.2)
    assert conformal_pullback_check(met_a, met_b, cmap, p, factor) < 1e-13
    # wrong factor must not pass
    assert conformal_pullback_check(met_a, met_b, cmap, p, 1.0) > 1e-3


@pytest.mark.parametrize("omega, message", [
    ("1/x1", "omega: division by zero (span 0..4)"),
    ("log(x1)", "omega: log of non-positive value 0.0 (span 0..7)"),
])
def test_conformal_pullback_omega_errors_name_plain_floats(omega, message):
    # omega is evaluated on Python floats, as every field is: a zero
    # divisor raises instead of warning, and messages carry no numpy repr
    met = BrinkmannMetric(harmonic_oscillator().system)
    ident = CoordinateMap(1, ["x1", "u", "w"])
    p = Point(np.array([0.0]), 0.2, 0.9)
    with pytest.raises(FieldEvalError) as err:
        conformal_pullback_check(met, met, ident, p, omega)
    assert str(err.value) == message
