"""Generator residuals, degreewise coefficients, and charge machinery.

The micro-generators on the plain oscillator below have one-line hand
derivations; their residuals and coefficient tensors are frozen exactly.
"""

import math

import numpy as np
import pytest

from hlift.cloud import point_cloud, state_cloud
from hlift.dynamics import (IntegratorConfig, ReducedState, integrate_geodesic,
                            integrate_herglotz, lagrangian_w_slope, lift_state,
                            reduce_trajectory)
from hlift.errors import SingularJacobianError
from hlift.geometry import BrinkmannMetric, CoordinateMap, HerglotzSystem, Point
from hlift.symmetry import (SymmetryGenerator, affine_charge, charge_series,
                            conformal_killing_residual, degreewise_identities,
                            degreewise_max_residual, killing_residual,
                            noether_charge, nonlocal_charge,
                            symmetry_condition_residual, transform_rule_check)
from hlift.systems import (conformal_pair, coupled_curved,
                           damped_action_dependent, damped_time_dependent,
                           free_particle, harmonic_oscillator,
                           standard_catalog, x_scaling_control)

TIGHT = IntegratorConfig(rtol=1e-10, atol=1e-12)


def gen1(dx, du, dw, name="micro"):
    return SymmetryGenerator(1, [dx], du, dw, name=name)


# ------------------------------------------------------------ micro cases
# plain oscillator: h = 1, A = 0, V = x^2/2

@pytest.fixture(scope="module")
def osc():
    return harmonic_oscillator().system


def test_band_linear_only(osc):
    # dw = x1: only the linear band fires, with value -1
    iden = degreewise_identities(osc, gen1("0", "0", "x1"),
                                 Point(np.array([0.5]), 0.3, 0.2))
    assert iden["quartic"] == 0.0
    assert iden["cubic"][0] == 0.0
    assert np.max(np.abs(iden["quadratic"])) == 0.0
    assert iden["linear"][0] == -1.0
    assert iden["constant"] == 0.0
    # signed residual is -xp
    rs = ReducedState([0.5], [0.7], 0.3, 0.2)
    assert symmetry_condition_residual(osc, gen1("0", "0", "x1"), rs) \
        == pytest.approx(0.7, abs=1e-15)


def test_band_constant_only(osc):
    # dw = u: residual is identically -1
    g = gen1("0", "0", "u")
    iden = degreewise_identities(osc, g, Point(np.array([1.1]), 0.0, 0.0))
    assert iden["constant"] == -1.0
    assert iden["quartic"] == 0.0 and iden["linear"][0] == 0.0
    rs = ReducedState([-0.4], [2.0], 1.0, 0.3)
    assert symmetry_condition_residual(osc, g, rs) == pytest.approx(1.0, abs=1e-15)


def test_band_quartic_only(osc):
    # du = w: residual collapses to (x^4 - xp^4)/4
    g = gen1("0", "w", "0")
    iden = degreewise_identities(osc, g, Point(np.array([0.2]), 0.5, -0.3))
    assert iden["quartic"] == 1.0
    assert iden["cubic"][0] == 0.0
    assert np.max(np.abs(iden["quadratic"])) == 0.0
    rs = ReducedState([1.2], [0.8], 0.0, 0.0)
    want = 0.25 * (1.2 ** 4 - 0.8 ** 4)
    assert symmetry_condition_residual(osc, g, rs) == pytest.approx(want, rel=1e-13)


def test_band_cubic_only(osc):
    # dx = w: residual is xp^3/2 - x^2 xp/2 - x w
    g = gen1("w", "0", "0")
    iden = degreewise_identities(osc, g, Point(np.array([0.9]), 0.1, 0.4))
    assert iden["cubic"][0] == 1.0
    assert iden["quartic"] == 0.0
    assert np.max(np.abs(iden["quadratic"])) == 0.0
    rs = ReducedState([0.5], [1.1], 0.0, 0.3)
    want = 0.5 * 1.1 ** 3 - 0.5 * 0.25 * 1.1 - 0.5 * 0.3
    assert symmetry_condition_residual(osc, g, rs) == pytest.approx(want, rel=1e-13)


def test_band_quadratic_and_constant(osc):
    # dx = x1 (scaling): quadratic band 2h, constant band -x^2
    g = gen1("x1", "0", "0")
    p = Point(np.array([0.5]), 0.0, 0.0)
    iden = degreewise_identities(osc, g, p)
    assert iden["quadratic"][0, 0] == 2.0
    assert iden["constant"] == pytest.approx(-0.25, abs=1e-15)
    rs = ReducedState([0.5], [1.1], 0.0, 0.0)
    assert symmetry_condition_residual(osc, g, rs) \
        == pytest.approx(1.1 ** 2 - 0.25, rel=1e-14)


# ------------------------------------------------------------ hand expansion

def test_residual_matches_hand_expansion():
    # the invariance condition expanded by hand as a quartic in xp;
    # derived independently of the implementation
    sys = coupled_curved().system
    gen = SymmetryGenerator(2, ["0.3*w + x2*u", "sin(x1)"], "0.2*x1 + 0.1*w",
                            "u*w - 0.5*x2^2", name="random")

    def signed_poly(rs):
        n = 2
        b = sys.eval_bundle(rs.point())
        K, dK = gen.components_at(rs.point())
        xp = rs.xp
        cx, cu, cw = dK[:n, :n], dK[n, :n], dK[n + 1, :n]
        a, bb = dK[:, n], dK[:, n + 1]
        h, A, V = b.h, b.A, b.V
        T = xp @ h @ xp
        S = A @ xp
        L = 0.5 * T + S - V
        drag_h = np.einsum("c,cij->ij", K, b.dh)
        drag_A = np.einsum("c,ci->i", K, b.dA)
        M = h @ cx.T
        return (0.5 * xp @ drag_h @ xp + drag_A @ xp - K @ b.dV
                + 0.5 * xp @ (M + M.T) @ xp + (h @ cu) @ xp + (cx @ A) @ xp
                + A @ cu + ((h @ cw) @ xp + A @ cw) * L
                + (-0.5 * T - V) * (xp @ a[:n] + a[n])
                + a[n + 1] * (-0.25 * T * T - 0.5 * S * T - S * V + V * V)
                - bb[:n] @ xp - bb[n] - bb[n + 1] * L)

    rng = np.random.default_rng(9)
    for _ in range(40):
        rs = ReducedState(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2),
                          rng.uniform(0, 2), rng.uniform(-1, 1))
        got = symmetry_condition_residual(sys, gen, rs)
        assert got == pytest.approx(abs(signed_poly(rs)), abs=2e-13)


# ------------------------------------------------------------ catalog sweeps

def all_catalog_generators():
    out = []
    for key, ent in standard_catalog().items():
        for name, gen in ent.generators.items():
            out.append(pytest.param(ent, gen, id=f"{key}:{name}"))
    return out


@pytest.mark.parametrize("ent,gen", all_catalog_generators())
def test_catalog_generator_residuals(ent, gen):
    met = BrinkmannMetric(ent.system)
    n = ent.system.n
    for p in point_cloud(n, 25):
        assert killing_residual(met, gen, p) < 1e-12
        assert degreewise_max_residual(ent.system, gen, p) < 1e-12
    for rs in state_cloud(n, 25):
        assert symmetry_condition_residual(ent.system, gen, rs) < 1e-12


def test_control_generator_fails_every_level():
    ent = harmonic_oscillator()
    met = BrinkmannMetric(ent.system)
    ctrl = x_scaling_control(1)
    worst_k = max(killing_residual(met, ctrl, p) for p in point_cloud(1, 25))
    worst_d = max(degreewise_max_residual(ent.system, ctrl, p)
                  for p in point_cloud(1, 25))
    worst_s = max(symmetry_condition_residual(ent.system, ctrl, rs)
                  for rs in state_cloud(1, 25))
    assert worst_k > 1e-3 and worst_d > 1e-3 and worst_s > 1e-3


# ------------------------------------------------------------ conformal

def test_time_scaling_is_conformal_not_killing():
    ent = damped_time_dependent(gamma=0.2)
    met = BrinkmannMetric(ent.system)
    gen = ent.conformal["time-scaling"][0]
    for p in point_cloud(1, 25):
        res, lam = conformal_killing_residual(met, gen, p)
        assert res < 1e-12
        assert lam == pytest.approx(0.2, abs=1e-12)
    assert max(killing_residual(met, gen, p) for p in point_cloud(1, 10)) > 0.1


def test_plain_generator_conformal_residual_large():
    ent = harmonic_oscillator()
    met = BrinkmannMetric(ent.system)
    res, _ = conformal_killing_residual(met, x_scaling_control(1),
                                        Point(np.array([0.8]), 0.4, 0.1))
    assert res > 1e-3


# ------------------------------------------------------------ charges

def test_noether_charge_frozen_values():
    osc = harmonic_oscillator()
    ts = osc.generators["time-shift"]
    rs = ReducedState([1.0], [0.0], 0.0, 0.0)
    # Q = -E = -(xp^2 + x^2)/2
    assert noether_charge(osc.system, ts, rs) == -0.5
    free = free_particle()
    boost = free.generators["boost-x1"]
    rs2 = ReducedState([0.8, -0.4], [0.3, 0.5], 2.0, 0.1)
    # Q = p1 u - x1 = 0.3*2 - 0.8
    assert noether_charge(free.system, boost, rs2) == pytest.approx(-0.2, abs=1e-15)


@pytest.mark.parametrize("key", ["free", "harmonic"])
def test_charges_conserved_on_plain_systems(key):
    ent = standard_catalog()[key]
    rt = integrate_herglotz(ent.system, ent.default_state,
                            (ent.default_state.u, ent.default_state.u + 8.0),
                            config=TIGHT)
    for name, gen in ent.generators.items():
        _, qs = charge_series(ent.system, gen, rt)
        assert np.max(np.abs(qs - qs[0])) < 1e-9, name


def test_affine_charge_equals_udot_times_reduced():
    ent = coupled_curved()
    met = BrinkmannMetric(ent.system)
    rng = np.random.default_rng(23)
    gen = SymmetryGenerator(2, ["0.2*u", "x1"], "0.3", "x2*w", name="probe")
    for _ in range(20):
        rs = ReducedState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                          rng.uniform(0, 2), rng.uniform(-1, 1))
        udot0 = rng.uniform(0.5, 2.0)
        gs = lift_state(ent.system, rs, udot0)
        lhs = affine_charge(met, gen, gs)
        rhs = udot0 * noether_charge(ent.system, gen, rs)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_affine_charge_constant_for_killing_field():
    ent = harmonic_oscillator()
    met = BrinkmannMetric(ent.system)
    gs0 = lift_state(ent.system, ReducedState([1.0], [0.0], 0.0, 0.0), 1.3)
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=8.0)
    ts = ent.generators["time-shift"]
    vals = []
    for k in range(len(traj)):
        from hlift.dynamics import GeodesicState
        y = traj.y[k]
        gs = GeodesicState(Point(y[:1], y[1], y[2]), y[3:], float(traj.t[k]))
        vals.append(affine_charge(met, ts, gs))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-10


def test_nonlocal_charge_damped_action():
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    rt = integrate_herglotz(ent.system, ReducedState([1.0], [0.0], 0.0, 0.25),
                            (0.0, 10.0), config=TIGHT)
    ts = ent.generators["time-shift"]
    _, plain = charge_series(ent.system, ts, rt)
    assert np.max(np.abs(plain - plain[0])) > 1e-2
    _, qn = nonlocal_charge(ent.system, ts, rt)
    assert np.max(np.abs(qn - qn[0])) / abs(qn[0]) < 1e-9
    # the action-exp generator is the clean case: its rescaled charge
    # is exactly -1 for this start
    _, qe = nonlocal_charge(ent.system, ent.generators["action-exp"], rt)
    assert np.allclose(qe, -1.0, atol=1e-10)


def test_nonlocal_charge_equals_affine_over_udot0():
    # g(K, xdot) is affinely conserved upstairs; downstairs that is
    # udot0 times the rescaled charge
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    met = BrinkmannMetric(ent.system)
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    udot0 = 1.7
    gs0 = lift_state(ent.system, rs0, udot0)
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=6.0)
    rt = reduce_trajectory(traj)
    ts = ent.generators["time-shift"]
    _, qn = nonlocal_charge(ent.system, ts, rt)
    from hlift.dynamics import GeodesicState
    for k in (0, len(rt) // 3, len(rt) - 1):
        y = traj.y[k]
        gs = GeodesicState(Point(y[:1], y[1], y[2]), y[3:], float(traj.t[k]))
        assert affine_charge(met, ts, gs) == pytest.approx(udot0 * qn[k],
                                                           rel=1e-8)


def test_nonlocal_quadrature_vs_trapezoid():
    # nonconstant slope dL/dw = -0.2 w; cross-check the per-step Simpson
    # accumulator against a fine trapezoid on dense output
    sys = HerglotzSystem(1, [["1"]], ["0"], "0.5*x1^2 + 0.1*w^2")
    rs0 = ReducedState([1.0], [0.2], 0.0, 0.5)
    rt = integrate_herglotz(sys, rs0, (0.0, 10.0), config=TIGHT)
    gen = SymmetryGenerator(1, ["0"], "1", "0", name="time-shift")
    _, plain = charge_series(sys, gen, rt)
    _, qn = nonlocal_charge(sys, gen, rt)
    assert np.max(np.abs(plain - plain[0])) > 0.1
    assert np.max(np.abs(qn - qn[0])) / np.max(np.abs(qn)) < 5e-9
    grid = np.linspace(0.0, 10.0, 20001)
    slopes = np.array([lagrangian_w_slope(sys, rt.state_at(g)) for g in grid])
    total_trap = np.trapezoid(slopes, grid)
    total_simpson = -math.log(qn[-1] / plain[-1])
    assert total_trap == pytest.approx(total_simpson, abs=1e-7)


# ------------------------------------------------------------ transform rule

def test_transform_rule_damped_pair():
    ent_a, ent_b, cmap, _ = conformal_pair(0.2, 1.0, 1)
    for rs in state_cloud(1, 50):
        assert transform_rule_check(ent_a.system, ent_b.system, cmap, rs) < 1e-12


def test_transform_rule_detects_wrong_target():
    # mapping damped-action states onto the plain oscillator must fail
    ent_a, _, cmap, _ = conformal_pair(0.2, 1.0, 1)
    osc = harmonic_oscillator().system
    worst = max(transform_rule_check(ent_a.system, osc, cmap, rs)
                for rs in state_cloud(1, 25))
    assert worst > 1e-3


def test_transform_rule_singular_map():
    ent_a, ent_b, _, _ = conformal_pair(0.2, 1.0, 1)
    frozen_u = CoordinateMap(1, ["x1", "1", "w"], name="frozen-u")
    with pytest.raises(SingularJacobianError):
        transform_rule_check(ent_a.system, ent_b.system, frozen_u,
                             ReducedState([0.5], [0.1], 0.3, 0.2))
