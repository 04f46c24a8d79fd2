"""Generator residuals, degreewise coefficients, and charge machinery.

The micro-generators on the plain oscillator below have one-line hand
derivations; their residuals and coefficient tensors are frozen exactly.
"""

import math

import numpy as np
import pytest

from hlift import dynamics
from hlift.cloud import point_cloud, state_cloud
from hlift.dynamics import (IntegratorConfig, ReducedState, integrate_geodesic,
                            integrate_herglotz, lagrangian_w_slope, lift_state,
                            reduce_trajectory, w_slope_at)
from hlift.errors import (HliftError, MonotonicityViolationError,
                          NonFiniteError, SigmaInversionError,
                          SingularJacobianError)
from hlift.geometry import BrinkmannMetric, CoordinateMap, HerglotzSystem, Point
from hlift.symmetry import (_GAUSS3, SymmetryGenerator, affine_charge,
                            charge_series, conformal_killing_residual,
                            degreewise_identities, degreewise_max_residual,
                            killing_residual, noether_charge, nonlocal_charge,
                            symmetry_condition_residual, transform_rule_check)
from hlift.systems import (conformal_pair, coupled_curved,
                           damped_action_dependent, damped_time_dependent,
                           free_particle, harmonic_oscillator,
                           standard_catalog, x_scaling_control)

from numpy_oracle import noether_charge_numpy, nonlocal_charge_numpy

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


@pytest.mark.parametrize("key, x, xp, bad", [
    ("damped-action", [0.1], [math.nan], "nan"),
    ("coupled", [0.3, -0.2], [math.inf, 0.1], "inf")])
def test_a_non_finite_velocity_raises_naming_it(key, x, xp, bad):
    # raised before any arithmetic reads the velocity: a numpy warning
    # ("invalid value encountered in matmul") would fail the suite
    system = standard_catalog()[key].system
    gen = SymmetryGenerator(system.n, ["0"] * system.n, "1", "0",
                            name="time-shift")
    rs = ReducedState(x, xp, 0.0, 0.0)
    for what, call in (("Noether charge", lambda: noether_charge(system, gen, rs)),
                       ("w-slope", lambda: lagrangian_w_slope(system, rs))):
        with pytest.raises(NonFiniteError) as info:
            call()
        assert str(info.value) == f"{what} needs finite velocities, got {bad}"


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
        gs = GeodesicState(Point(y[:1], y[1], y[2]), y[3:])
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
        gs = GeodesicState(Point(y[:1], y[1], y[2]), y[3:])
        assert affine_charge(met, ts, gs) == pytest.approx(udot0 * qn[k],
                                                           rel=1e-8)


def test_nonlocal_quadrature_vs_trapezoid():
    # nonconstant slope dL/dw = -0.2 w; on three starts, the nonlocal
    # charge holds to the relative drift 5e-9, and the per-step
    # Gauss-Legendre accumulator agrees with a fine trapezoid on dense
    # output.  A per-step Simpson rule with a dense midpoint drifts by
    # 4.5e-7, 1.6e-6 and 3.4e-6 over these steps.
    sys = HerglotzSystem(1, [["1"]], ["0"], "0.5*x1^2 + 0.1*w^2")
    gen = SymmetryGenerator(1, ["0"], "1", "0", name="time-shift")
    grid = np.linspace(0.0, 10.0, 20001)
    for x, xp, w in [(1.0, 0.2, 0.5), (2.0, 1.0, -2.0), (1.0, 0.0, -3.0)]:
        rs0 = ReducedState([x], [xp], 0.0, w)
        rt = integrate_herglotz(sys, rs0, (0.0, 10.0), config=TIGHT)
        _, plain = charge_series(sys, gen, rt)
        _, qn = nonlocal_charge(sys, gen, rt)
        assert np.max(np.abs(plain - plain[0])) > 0.1
        assert np.max(np.abs(qn - qn[0])) / np.max(np.abs(qn)) < 5e-9
        slopes = np.array([lagrangian_w_slope(sys, rt.state_at(g))
                           for g in grid])
        total_trap = np.trapezoid(slopes, grid)
        total_gauss = -math.log(qn[-1] / plain[-1])
        assert total_trap == pytest.approx(total_gauss, abs=1e-7)


def _both_views(ent):
    """The Herglotz trajectory of the default start over u-span 10, and
    the geodesic one reduced."""
    rs = ent.default_state
    span = (rs.u, rs.u + 10.0)
    traj = integrate_geodesic(BrinkmannMetric(ent.system),
                              lift_state(ent.system, rs), (0.0, math.inf),
                              config=TIGHT, stop_at_u=span[1])
    return (integrate_herglotz(ent.system, rs, span, config=TIGHT),
            reduce_trajectory(traj))


@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action"])
def test_nonlocal_charge_equals_its_numpy_oracle_bit_for_bit(key):
    # state_at and the numpy slope at the same nodes, summed in the same
    # order, for every generator, conformal ones included, on both
    # trajectory kinds (coupled has no generators)
    ent = standard_catalog()[key]
    gens = {**ent.generators,
            **{name: gen for name, (gen, _) in ent.conformal.items()}}
    assert gens
    views = _both_views(ent)
    for name, gen in gens.items():
        for rt in views:
            u, got = nonlocal_charge(ent.system, gen, rt)
            u_want, want = nonlocal_charge_numpy(ent.system, gen, rt)
            assert u.tolist() == u_want.tolist()
            assert got.tolist() == want.tolist(), (name, rt.traj.kind)


def nonlocal_charge_bracketed(system, gen, rt):
    """nonlocal_charge as it read each node before it knew the node's
    step: rt._state brackets every node on the whole u grid."""
    u, qs = charge_series(system, gen, rt)
    integral = [0.0]
    for u0, u1 in zip(u.tolist(), u[1:].tolist()):
        du = u1 - u0
        acc = 0
        for a, wt in _GAUSS3:
            uq = u0 + a * du
            x, xp, w = rt._state(uq)
            acc += wt * w_slope_at(system, x, uq, w, xp)
        integral.append(integral[-1] + du * acc)
    return u, np.exp(-np.array(integral)) * qs


def nonlocal_charge_node_by_node(system, gen, rt):
    """nonlocal_charge as it read the nodes before it read them at once:
    step by step, each node off its step by rt._state(uq, k), building
    each step on its first node."""
    u, qs = charge_series(system, gen, rt)
    grid = u.tolist()
    integral = [0.0]
    for k in range(len(grid) - 1):
        u0 = grid[k]
        du = grid[k + 1] - u0
        acc = 0
        for a, wt in _GAUSS3:
            uq = u0 + a * du
            x, xp, w = rt._state(uq, k)
            acc += wt * w_slope_at(system, x, uq, w, xp)
        integral.append(integral[-1] + du * acc)
    return u, np.exp(-np.array(integral)) * qs


def _kept_stage_at(rt, step: int) -> int:
    """The index in rt.traj._steps of the kept first stage of `step`."""
    return step * (1 + len(dynamics._KEPT) * rt.traj.y.shape[1]) + 1


def _declined_dense_stage(rt, step: int, monkeypatch) -> None:
    """Make a kept stage of `step` nan, so a dense stage is declined."""
    rt.traj._steps[_kept_stage_at(rt, step)] = math.nan


def _udot_turns_negative(rt, step: int, monkeypatch) -> None:
    """Make du/dsigma of the geodesic view `rt` negative at the nodes of
    `step`, u left as it is: the udot entry of its kept first stage
    becomes -500 / h."""
    at = _kept_stage_at(rt, step)
    rt.traj._steps[at + 2 * rt.n + 2] = -500.0 / rt.traj._steps[at - 1]


def _iterations_run_out(rt, step: int, monkeypatch) -> None:
    """Give sigma_at one Newton iteration, which no node converges in."""
    monkeypatch.setattr(dynamics.ReducedTrajectory, "_SIGMA_ITERS", 1)


@pytest.mark.parametrize("fault, views, error", [
    (_declined_dense_stage, (0, 1), NonFiniteError),
    (_udot_turns_negative, (1,), MonotonicityViolationError),
    (_iterations_run_out, (1,), SigmaInversionError)])
@pytest.mark.parametrize("step", [0, 5])
def test_a_failed_stacked_read_raises_as_the_read_node_by_node(
        fault, views, error, step, monkeypatch):
    # where a dense stage is declined, a node's du/dsigma is not positive
    # or its sigma does not converge, nonlocal_charge raises the error of
    # the node-by-node read, with the nfev and built steps that read leaves
    ent = standard_catalog()["damped-action"]
    gen = ent.generators["time-shift"]
    for view in views:
        raised = []
        for charge in (nonlocal_charge, nonlocal_charge_node_by_node):
            rt = _both_views(ent)[view]
            fault(rt, step, monkeypatch)
            with pytest.raises(error) as info:
                charge(ent.system, gen, rt)
            raised.append((str(info.value), rt.traj.nfev,
                           [s is None for s in rt.traj._built]))
        assert raised[0] == raised[1]


@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_a_fault_free_nonlocal_charge_reads_no_node_alone(key, monkeypatch):
    # without a fault every node comes off the stacked read, with the
    # bits and nfev of the read node by node, which is never called
    ent = standard_catalog()[key]
    gen = next(iter(_series_generators(key).values()))
    want = []
    for rt in _both_views(ent):
        want.append((nonlocal_charge_node_by_node(ent.system, gen, rt)[1]
                     .tolist(), rt.traj.nfev))

    def alone(*args):
        raise AssertionError("a node read alone")
    monkeypatch.setattr(dynamics.ReducedTrajectory, "_state", alone)
    got = []
    for rt in _both_views(ent):
        got.append((nonlocal_charge(ent.system, gen, rt)[1].tolist(),
                    rt.traj.nfev))
    assert got == want


@pytest.fixture
def bracket_calls(monkeypatch):
    """The number of dynamics._bracket calls so far, as a one-item list."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return bracket(*args)
    bracket = dynamics._bracket
    monkeypatch.setattr(dynamics, "_bracket", counted)
    return calls


@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_nonlocal_nodes_on_their_steps_equal_bracketed_nodes(key,
                                                             bracket_calls):
    # every node is read off the step it lies in, without bracketing, and
    # gives the bracketed path's floats on both trajectory kinds; coupled
    # has no generator, so it takes the u-shift
    ent = standard_catalog()[key]
    n = ent.system.n
    gens = {**ent.generators,
            **{name: gen for name, (gen, _) in ent.conformal.items()}}
    gens = gens or {"u-shift": SymmetryGenerator(n, ["0"] * n, "1", "0")}
    for rt in _both_views(ent):
        for name, gen in gens.items():
            before = bracket_calls[0]
            u, got = nonlocal_charge(ent.system, gen, rt)
            assert bracket_calls[0] == before, (name, rt.traj.kind)
            u_want, want = nonlocal_charge_bracketed(ent.system, gen, rt)
            assert bracket_calls[0] == before + 3 * (len(u) - 1)
            assert u.tolist() == u_want.tolist()
            assert got.tolist() == want.tolist(), (name, rt.traj.kind)


def test_a_node_outside_its_step_takes_the_bracketed_path(bracket_calls):
    # a node that rounds onto the step's end belongs to the next step, as
    # _bracket assigns steps; further out it is bracketed all the same
    for rt in _both_views(standard_catalog()["damped-action"]):
        grid = rt.u.tolist()
        for k, uq in ((3, grid[4]), (3, 0.5 * (grid[6] + grid[7])),
                      (len(grid) - 2, grid[-1]),
                      (5, 0.5 * (grid[5] + grid[6]))):
            before = bracket_calls[0]
            got = rt._state(uq, k)
            outside = not grid[k] <= uq < grid[k + 1]
            assert bracket_calls[0] == before + outside, (k, rt.traj.kind)
            assert got == rt._state(uq)


def _series_generators(key: str) -> dict:
    """Every generator of catalog system `key`, conformal ones included;
    coupled has none, so it takes the u-shift and one whose components
    depend on x, u and w."""
    if key == "coupled":
        return {"u-shift": SymmetryGenerator(2, ["0", "0"], "1", "0"),
                "probe": SymmetryGenerator(2, ["0.2*u", "x1"], "0.3",
                                           "x2*w", name="probe")}
    ent = standard_catalog()[key]
    return {**ent.generators,
            **{name: gen for name, (gen, _) in ent.conformal.items()}}


@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_the_charge_series_is_the_charge_sample_by_sample(key, monkeypatch):
    # made in blocks of 128 and of 7 samples, the series is noether_charge
    # at each sample alone, and that is the numpy formula, bit for bit
    ent = standard_catalog()[key]
    for block in (128, 7):
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        for rt in _both_views(ent):
            states = [ReducedState(*rt.sample_arrays(k)) for k in range(len(rt))]
            for name, gen in _series_generators(key).items():
                _, qs = charge_series(ent.system, gen, rt)
                want = [noether_charge_numpy(ent.system, gen, rs)
                        for rs in states]
                assert qs.tolist() == want, (name, rt.traj.kind)
                assert [noether_charge(ent.system, gen, rs)
                        for rs in states] == want


def _damped_samples(edits: dict):
    """The damped-action Herglotz trajectory from x = 1, w = 0.25 over
    u-span 2, its samples' (x, x', w) columns edited: {sample: (column,
    value)}."""
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    rt = integrate_herglotz(ent.system, ReducedState([1.0], [0.0], 0.0, 0.25),
                            (0.0, 2.0), config=TIGHT)
    for k, (col, value) in edits.items():
        rt.traj.y[k, col] = value
    return ent, rt


@pytest.mark.parametrize("edits, message", [
    ({3: (1, math.nan), 5: (0, math.nan)},
     "Noether charge needs finite velocities, got nan"),
    ({5: (1, math.nan), 3: (0, math.nan)},
     "cannot seed non-finite coordinate nan"),
    ({3: (0, -20.0), 5: (0, math.nan)}, "log"),
    ({5: (0, -20.0), 3: (0, math.nan)},
     "cannot seed non-finite coordinate nan")])
def test_the_first_sample_at_fault_raises_its_charge_error(edits, message):
    # of a non-finite x' (column 1) at one sample and a declined field
    # pass (x = nan, column 0) at another, or a generator's declined pass
    # (log of x + 10 < 0) and the system's, the earlier sample raises
    # what noether_charge raises there, in blocks of any size
    ent, rt = _damped_samples(edits)
    gen = SymmetryGenerator(1, ["0"], "1", "log(x1 + 10)", name="log-w")
    k = min(edits)
    with pytest.raises(HliftError) as want:
        noether_charge(ent.system, gen, ReducedState(*rt.sample_arrays(k)))
    assert message in str(want.value)
    for block in (128, 2):
        ent, rt = _damped_samples(edits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK", block)
            with pytest.raises(HliftError) as got:
                charge_series(ent.system, gen, rt)
        assert (type(got.value), str(got.value)) == (type(want.value),
                                                     str(want.value))


@pytest.mark.parametrize("slope_fails", [False, True])
def test_the_first_node_at_fault_raises_its_nonlocal_error(slope_fails):
    # a kept stage of step 4 made nan fails the read of a node there;
    # with x also made nan on step 2, the w-slope of a node there fails
    # first: nonlocal_charge raises what the bracketed reads raise
    ent = standard_catalog()["damped-action"]
    gen = ent.generators["time-shift"]
    errors = []
    for charge in (nonlocal_charge_bracketed, nonlocal_charge):
        for rt in _both_views(ent):
            traj = rt.traj
            width = len(dynamics._KEPT) * traj.y.shape[1]
            traj._steps[4 * (1 + width) + 1] = math.nan
            if slope_fails:
                t0, t1, y0, rows = traj._step(2)
                traj._built[2] = (t0, t1, [math.nan, *y0[1:]], rows)
            with pytest.raises(HliftError) as info:
                charge(ent.system, gen, rt)
            errors.append((type(info.value), str(info.value)))
    assert errors[:2] == errors[2:]
    want = "cannot seed" if slope_fails else "dense output"
    assert all(want in message for _, message in errors)


def test_the_charge_series_hands_out_copies():
    # the series is made once per trajectory; writing into an array a
    # caller got changes neither later series nor the nonlocal charge
    ent = standard_catalog()["damped-action"]
    gen = ent.generators["time-shift"]
    for rt in _both_views(ent):
        u, qs = charge_series(ent.system, gen, rt)
        _, qnl = nonlocal_charge(ent.system, gen, rt)
        want = (u.tolist(), qs.tolist(), qnl.tolist())
        u[:] = 0.0
        qs[:] = 0.0
        qnl[:] = 0.0
        u, qs = charge_series(ent.system, gen, rt)
        assert (u.tolist(), qs.tolist(),
                nonlocal_charge(ent.system, gen, rt)[1].tolist()) == want


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
