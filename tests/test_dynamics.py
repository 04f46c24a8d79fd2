"""Both integration pipelines against closed-form and finite-difference oracles."""

import functools
import math
import operator
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hlift import dynamics
from hlift.cloud import state_cloud
from hlift.dynamics import (GeodesicState, IntegratorConfig, ReducedState,
                            ReducedTrajectory, Trajectory, herglotz_rhs,
                            homogeneity_residual, integrate_geodesic,
                            integrate_herglotz, lagrangian_w_slope, lift_state,
                            null_residual, reduce_trajectory,
                            reduced_lagrangian, u_equation_residual,
                            w_equation_residual)
from hlift.errors import (BlowUpError, MonotonicityViolationError,
                          NonFiniteError, NonPositiveUdotError,
                          SigmaInversionError, StepLimitExceededError,
                          ZeroUdotError)
from hlift.geometry import (BrinkmannMetric, HerglotzSystem,
                            NearlySingularKineticWarning, Point)
from hlift.symmetry import _GAUSS3
from hlift.systems import (coupled_curved, damped_action_dependent,
                           free_particle, harmonic_oscillator,
                           standard_catalog)

from numpy_oracle import equation_residuals_numpy, lagrangian_w_slope_numpy

TIGHT = IntegratorConfig(rtol=1e-10, atol=1e-12)


def harmonic_xw(u, x0=1.0, v0=0.0, w0=0.1):
    # unit frequency: x = x0 cos u + v0 sin u, w = w0 + int L du
    x = x0 * math.cos(u) + v0 * math.sin(u)
    xp = -x0 * math.sin(u) + v0 * math.cos(u)
    # L = (xp^2 - x^2)/2; for x0=1, v0=0 this is -(cos 2u)/2
    w = w0 - 0.25 * math.sin(2 * u) * (x0 ** 2 - v0 ** 2) \
        - 0.25 * (1 - math.cos(2 * u)) * (2 * x0 * v0)
    return x, xp, w


# ---------------------------------------------------------------- state plumbing

def test_reduced_lagrangian_closed_form():
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    rs = ReducedState([1.0], [0.0], 0.0, 0.25)
    # L = xp^2/2 - x^2/2 - gamma w = 0 - 0.5 - 0.05
    assert reduced_lagrangian(ent.system, rs) == pytest.approx(-0.55, abs=1e-15)
    assert lagrangian_w_slope(ent.system, rs) == pytest.approx(-0.2, abs=1e-15)


# w in every field, of degree 1 and 2, so that each term of dL/dw is live
_W_EVERYWHERE = HerglotzSystem(
    2, [["1 + 0.1*w*x1", "0.05*w"], ["0.05*w", "2 + sin(w*u)"]],
    ["0.3*w*x2", "-0.2*w^2"], "0.5*x1^2 + 0.1*w*x2^2 + 0.2*w^2",
    name="w-everywhere")
_SLOPE_SYSTEMS = [*standard_catalog(), "w-everywhere"]


def _slope_system(key: str) -> HerglotzSystem:
    return (_W_EVERYWHERE if key == "w-everywhere"
            else standard_catalog()[key].system)


def _w_partials(system: HerglotzSystem, rs: ReducedState):
    """(d_w h, d_w A, d_w V, x') at the state, as Python floats."""
    n = system.n
    b = system.eval_bundle(rs.point())
    return (b.dh[n + 1].tolist(), b.dA[n + 1].tolist(), float(b.dV[n + 1]),
            rs.xp.tolist())


def _dot(a: list, b: list) -> float:
    """a . b summed from its first term, as the compiled tails sum."""
    return functools.reduce(operator.add, [p * q for p, q in zip(a, b)])


@pytest.mark.parametrize("key", _SLOPE_SYSTEMS)
def test_w_slope_is_its_float_formula_bit_for_bit(key):
    # ((0.5 x') . row) . x' over the rows of d_w h, + d_w A . x' - d_w V;
    # the compiled tail drops the structurally zero terms, which add
    # exact zeros here
    system = _slope_system(key)
    for rs in state_cloud(system.n, 200):
        dh, dA, dV, xp = _w_partials(system, rs)
        half = [0.5 * v for v in xp]
        want = _dot([_dot(half, row) for row in dh], xp) + _dot(dA, xp) - dV
        assert lagrangian_w_slope(system, rs) == want, rs


@pytest.mark.parametrize("key", _SLOPE_SYSTEMS)
def test_w_slope_agrees_with_the_numpy_oracle(key):
    """Bit for bit for n = 1.  For n >= 2 numpy's matmul of 2-vectors
    rounds differently from a sequential sum: on the w-everywhere cloud
    at 58 of the 200 states, by thousands of ulp of the result where its
    terms cancel, but by under 1.5 eps of the sum of the terms'
    magnitudes; the bound there is 4 eps of that sum.  No
    catalog generator's nonlocal charge is affected: coupled, the only
    w-dependent n = 2 entry, has no generators (and agrees exactly)."""
    system = _slope_system(key)
    for rs in state_cloud(system.n, 200):
        got = lagrangian_w_slope(system, rs)
        want = lagrangian_w_slope_numpy(system, rs)
        if system.n == 1:
            assert got == want, rs
            continue
        dh, dA, dV, xp = _w_partials(system, rs)
        mag = [abs(v) for v in xp]
        scale = (0.5 * _dot([_dot(mag, map(abs, row)) for row in dh], mag)
                 + _dot(list(map(abs, dA)), mag) + abs(dV))
        assert abs(got - want) <= 4 * 2.0 ** -52 * scale, rs


def test_lift_state_is_null():
    ent = coupled_curved()
    met = BrinkmannMetric(ent.system)
    rs = ReducedState([0.6, -0.3], [0.2, 0.4], 0.0, 0.1)
    for udot0 in (0.5, 1.0, 3.0):
        gs = lift_state(ent.system, rs, udot0)
        assert abs(null_residual(met, gs)) < 1e-14
        assert gs.velocity[2] == udot0


def test_lift_state_rejects_bad_udot():
    ent = harmonic_oscillator()
    rs = ReducedState([1.0], [0.0], 0.0, 0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveUdotError):
            lift_state(ent.system, rs, bad)


def test_null_residual_off_cone():
    # shifting the w-velocity by udot*C moves 1/2 g(v,v) by exactly -udot^2 C
    ent = harmonic_oscillator()
    met = BrinkmannMetric(ent.system)
    rs = ReducedState([0.7], [0.4], 0.3, 0.2)
    for udot0, C in [(1.0, 0.1), (2.0, -0.05)]:
        gs = lift_state(ent.system, rs, udot0)
        gs.velocity[2] += udot0 * C
        assert null_residual(met, gs) == pytest.approx(-udot0 ** 2 * C,
                                                       rel=1e-12)


# ---------------------------------------------------------------- rhs oracles

def test_herglotz_rhs_frozen_damped_action():
    # by hand: xdd = -omega^2 x - gamma xp, L = -x^2/2 - gamma w at xp=0
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    rs = ReducedState([1.0], [0.0], 0.0, 0.25)
    acc, lag = herglotz_rhs(ent.system, rs)
    assert acc[0] == pytest.approx(-1.0, abs=1e-14)
    assert lag == pytest.approx(-0.55, abs=1e-15)
    rs2 = ReducedState([0.5], [2.0], 0.0, 0.0)
    acc2, _ = herglotz_rhs(ent.system, rs2)
    assert acc2[0] == pytest.approx(-0.5 - 0.2 * 2.0, rel=1e-13)


def test_herglotz_rhs_satisfies_euler_lagrange_fd():
    # independent oracle: difference the Lagrangian itself along the motion;
    # d/du (dL/dxp_k) must equal dL/dx_k + (dL/dw)(dL/dxp_k)
    ent = coupled_curved()
    sys = ent.system
    rs0 = ReducedState([0.6, -0.3], [0.2, 0.4], 0.3, 0.1)
    rt = integrate_herglotz(sys, rs0, (0.3, 0.9), config=TIGHT)
    eps = 1e-5

    def momentum(rs):
        p = np.zeros(2)
        for k in range(2):
            dv = np.zeros(2)
            dv[k] = eps
            lp = reduced_lagrangian(sys, ReducedState(rs.x, rs.xp + dv, rs.u, rs.w))
            lm = reduced_lagrangian(sys, ReducedState(rs.x, rs.xp - dv, rs.u, rs.w))
            p[k] = (lp - lm) / (2 * eps)
        return p

    u0 = 0.6
    pdot = (momentum(rt.state_at(u0 + eps)) - momentum(rt.state_at(u0 - eps))) / (2 * eps)
    rs = rt.state_at(u0)
    dLdx = np.zeros(2)
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = eps
        lp = reduced_lagrangian(sys, ReducedState(rs.x + dx, rs.xp, rs.u, rs.w))
        lm = reduced_lagrangian(sys, ReducedState(rs.x - dx, rs.xp, rs.u, rs.w))
        dLdx[k] = (lp - lm) / (2 * eps)
    dLdw = (reduced_lagrangian(sys, ReducedState(rs.x, rs.xp, rs.u, rs.w + eps))
            - reduced_lagrangian(sys, ReducedState(rs.x, rs.xp, rs.u, rs.w - eps))) / (2 * eps)
    assert np.allclose(pdot, dLdx + dLdw * momentum(rs), atol=2e-5)


# ---------------------------------------------------------------- herglotz runs

def test_harmonic_run_vs_closed_form():
    ent = harmonic_oscillator()
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.1)
    rt = integrate_herglotz(ent.system, rs0, (0.0, 10.0), config=TIGHT)
    worst = 0.0
    for u in np.linspace(0.0, 10.0, 101):
        x, xp, w = harmonic_xw(u)
        rs = rt.state_at(u)
        worst = max(worst, abs(rs.x[0] - x), abs(rs.xp[0] - xp), abs(rs.w - w))
    # global error at rtol 1e-10 over ten periods sits near 1e-8
    assert worst < 5e-8


def test_dense_output_off_samples():
    # probe strictly between accepted samples
    ent = harmonic_oscillator()
    rs0 = ReducedState([0.3], [1.1], 0.0, 0.0)
    rt = integrate_herglotz(ent.system, rs0, (0.0, 6.0), config=TIGHT)
    mids = 0.5 * (rt.u[:-1] + rt.u[1:])
    for u in mids:
        x = 0.3 * math.cos(u) + 1.1 * math.sin(u)
        assert rt.state_at(float(u)).x[0] == pytest.approx(x, abs=5e-9)


def test_integrator_diagnostics():
    ent = harmonic_oscillator()
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.0)
    rt = integrate_herglotz(ent.system, rs0, (0.0, 10.0), config=TIGHT)
    assert len(rt) > 20
    assert rt.traj.rejected >= 0
    assert np.all(np.diff(rt.traj.t) > 0)
    assert rt.u[0] == 0.0
    assert rt.u[-1] == pytest.approx(10.0)


@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_recorded_w_slope_is_the_reduced_lagrangian(key):
    # dw/du of every accepted sample, as the dense polynomial records it,
    # is L of that sample: (r0 + r1) / h at the start of a step, and
    # (r0 - r1 - r2) / h at the end of the last one
    ent = standard_catalog()[key]
    n = ent.system.n
    rt = integrate_herglotz(ent.system, ent.default_state, (0.0, 5.0),
                            config=TIGHT)
    h = np.diff(rt.traj.t)
    r = rt.traj.dense[:, :, 2 * n]
    slopes = [*((r[:, 0] + r[:, 1]) / h),
              (r[-1, 0] - r[-1, 1] - r[-1, 2]) / h[-1]]
    for k in range(len(rt)):
        lag = reduced_lagrangian(ent.system, ReducedState(*rt.sample_arrays(k)))
        assert abs(lag - slopes[k]) <= 1e-12 * max(1.0, abs(lag))


@pytest.mark.parametrize("key", ["harmonic", "damped-action", "coupled"])
def test_recorded_null_residual_is_the_sample_residual(key):
    # the stepper reuses its FSAL field pass, which sees the sample exactly
    ent = standard_catalog()[key]
    n = ent.system.n
    m = n + 2
    met = BrinkmannMetric(ent.system)
    traj = integrate_geodesic(met, lift_state(ent.system, ent.default_state),
                              (0.0, math.inf), config=TIGHT, stop_at_u=4.0)
    nulls = traj.diagnostics["null_residual"]
    assert len(nulls) == len(traj)
    for k, y in enumerate(traj.y):
        gs = GeodesicState(Point(y[:n], y[n], y[n + 1]), y[m:])
        assert nulls[k] == null_residual(met, gs)


@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_catalog_runs_never_decline(key):
    # the compiled right-hand sides take every call from the default state
    # (a declined call would end the run with its error)
    ent = standard_catalog()[key]
    rt = integrate_herglotz(ent.system, ent.default_state, (0.0, 5.0),
                            config=TIGHT)
    traj = integrate_geodesic(BrinkmannMetric(ent.system),
                              lift_state(ent.system, ent.default_state),
                              (0.0, math.inf), config=TIGHT, stop_at_u=5.0)
    for t in (rt.traj, traj):
        # the first call, the initial-step probe and twelve stages per
        # attempt; then three dense stages per step built
        steps = len(t) - 1
        assert t.nfev == 2 + 12 * (steps + t.rejected)
        t.dense
        assert t.nfev == 2 + 12 * (steps + t.rejected) + 3 * steps


def test_nearly_singular_kinetic_block_takes_the_compiled_path():
    # h22 stays under the 1e-8 eigenvalue floor along the whole path: the
    # compiled functions take every call and warn once per call, the dense
    # stages' when the rows are built; x2 stays at rest, so the motion
    # itself is harmless
    sys = HerglotzSystem(2, [["1", "0"], ["0", "1e-9*(1 + x1^2)"]],
                         ["0", "0"], "0.5*x1^2")
    rs0 = ReducedState([1.0, 0.0], [0.0, 0.0], 0.0, 0.0)
    with pytest.warns(NearlySingularKineticWarning) as reduced_warned:
        rt = integrate_herglotz(sys, rs0, (0.0, 1.0), config=TIGHT)
    with pytest.warns(NearlySingularKineticWarning) as geodesic_warned:
        traj = integrate_geodesic(BrinkmannMetric(sys), lift_state(sys, rs0),
                                  (0.0, math.inf), config=TIGHT, stop_at_u=1.0)
    for t, warned in ((rt.traj, reduced_warned), (traj, geodesic_warned)):
        steps = len(t) - 1
        assert len(warned) == t.nfev == 2 + 12 * (steps + t.rejected)
        with pytest.warns(NearlySingularKineticWarning) as dense_warned:
            t.dense
        assert len(dense_warned) == t.nfev - len(warned) == 3 * steps > 0
        assert {str(w.message) for w in [*warned, *dense_warned]} == {
            "kinetic block h is nearly singular"}
    # the rows are built: a query makes no call and warns nothing
    assert rt.state_at(1.0).x[0] == pytest.approx(math.cos(1.0), abs=1e-9)
    assert rt.traj.nfev == len(reduced_warned) + 3 * (len(rt) - 1)


# ---------------------------------------------------------------- stacked dense output

_TOLS = {"1e-10": TIGHT, "1e-13": IntegratorConfig(rtol=1e-13, atol=1e-15)}


def _views(ent, cfg=TIGHT, span=5.0):
    """The Herglotz trajectory from the default start over `span`, and
    the geodesic one reduced."""
    rs = ent.default_state
    traj = integrate_geodesic(BrinkmannMetric(ent.system),
                              lift_state(ent.system, rs), (0.0, math.inf),
                              config=cfg, stop_at_u=rs.u + span)
    return (integrate_herglotz(ent.system, rs, (rs.u, rs.u + span), config=cfg),
            reduce_trajectory(traj))


def _gauss_nodes(rt) -> tuple:
    """The nonlocal charge's nodes as floats, three per step, and their
    steps."""
    grid = rt.u.tolist()
    nodes = [grid[k] + a * (grid[k + 1] - grid[k])
             for k in range(len(grid) - 1) for a, _ in _GAUSS3]
    return nodes, np.arange(len(grid) - 1).repeat(3)


def _stacked_reads(rt, nodes) -> list:
    """ReducedTrajectory._states at the nodes, as _state's (x, x', w)."""
    rt.traj.dense
    return list(zip(*(a.tolist() for a in rt._states(np.array(nodes)))))


@pytest.mark.parametrize("tol", sorted(_TOLS))
@pytest.mark.parametrize("key", sorted(standard_catalog()))
def test_stacked_node_reads_are_the_reads_node_by_node(key, tol):
    # every Gauss node of every step, on both views, read at once is read
    # as _state(uq, k) reads it, to the bit, and the reads make no call
    for rt in _views(standard_catalog()[key], _TOLS[tol]):
        nodes, ks = _gauss_nodes(rt)
        got = _stacked_reads(rt, nodes)
        nfev = rt.traj.nfev
        assert got == [rt._state(q, k) for q, k in zip(nodes, ks.tolist())]
        assert rt.traj.nfev == nfev


def test_a_node_on_the_end_of_its_step_is_read_off_the_next():
    # a node that rounds onto the end of its step is read off the step
    # _bracket assigns (the next one; the last step for the last sample),
    # as _state(uq, k) reads it
    for rt in _views(standard_catalog()["damped-action"]):
        grid = rt.u.tolist()
        last = len(grid) - 2
        nodes = [grid[4], grid[-1], math.nextafter(grid[4], -math.inf),
                 grid[0]]
        ks = np.array([3, last, 3, 0])
        want = [rt._state(q, k) for q, k in zip(nodes, ks.tolist())]
        assert _stacked_reads(rt, nodes) == want
        assert want[0] == rt._state(grid[4], 4) != rt._state(nodes[2], 3)


@pytest.mark.parametrize("key", ["damped-action", "coupled"])
def test_a_node_reads_the_same_floats_whatever_shares_its_pass(key):
    # each node's Newton lane is its own: a subset of the nodes, in
    # another order, reads each node's floats of the read of all nodes
    for rt in _views(standard_catalog()[key], _TOLS["1e-13"]):
        nodes, _ = _gauss_nodes(rt)
        every = _stacked_reads(rt, nodes)
        some = list(range(len(nodes)))[::-7] + [1, 2]
        assert _stacked_reads(rt, [nodes[i] for i in some]) == [
            every[i] for i in some]


def _twin_views(ent):
    """Two equal copies of _views(ent), so that one can be read at once
    and the other step by step."""
    return zip(_views(ent), _views(ent))


def _as_lists(step: tuple) -> tuple:
    """A built step (Trajectory._step) with its states and rows as lists."""
    t0, t1, y0, rows = step
    return t0, t1, list(y0), [list(row) for row in rows]


def test_the_stacked_build_is_the_build_step_by_step():
    # with some steps built by queries first, dense builds the rest at
    # once: every step keeps _step's floats and counts its three calls,
    # and later queries make no call
    for stacked, single in _twin_views(standard_catalog()["coupled"]):
        a, b = stacked.traj, single.traj
        for k in (0, 3, len(a) - 2):
            a._step(k)
        rows = a.dense
        want = np.array([b._step(k)[3] for k in range(len(b) - 1)])
        assert rows.tolist() == want.tolist()
        assert a.nfev == b.nfev
        assert [_as_lists(step) for step in a._built] == [
            _as_lists(step) for step in b._built]
        q = 0.5 * (stacked.u[5] + stacked.u[6])
        assert stacked._state(q) == single._state(q)
        assert a.nfev == b.nfev


@pytest.mark.parametrize("step", [0, 4])
def test_a_declined_dense_stage_raises_as_the_build_step_by_step(step):
    # a kept stage made nan at one step: dense builds the steps one at a
    # time, the steps before it are built and it raises their error
    for stacked, single in _twin_views(standard_catalog()["damped-action"]):
        errors = []
        for traj in (stacked.traj, single.traj):
            width = len(dynamics._KEPT) * traj.y.shape[1]
            traj._steps[step * (1 + width) + 1] = math.nan
        with pytest.raises(NonFiniteError) as info:
            stacked.traj.dense
        errors.append(str(info.value))
        with pytest.raises(NonFiniteError) as info:
            for k in range(len(single.traj) - 1):
                single.traj._step(k)
        errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "dense output of the step" in errors[0]
        assert stacked.traj.nfev == single.traj.nfev
        assert stacked.traj._built[:step + 1] == single.traj._built[:step + 1]


@pytest.mark.parametrize("settings, message", [
    ({"rtol": 0.0, "atol": 0.0}, "rtol and atol must not both be zero"),
    ({"rtol": math.nan}, "rtol must be a finite number, got nan"),
    ({"atol": math.inf}, "atol must be a finite number, got inf"),
    ({"rtol": -1e-10}, "rtol must not be negative, got -1e-10"),
    ({"atol": -0.5}, "atol must not be negative, got -0.5"),
    ({"max_steps": 0}, "max_steps must be at least 1, got 0"),
    ({"max_steps": True}, "max_steps must be an integer, got True"),
    ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
], ids=["zero-tolerances", "nan-rtol", "inf-atol", "negative-rtol",
        "negative-atol", "no-steps", "bool-steps", "float-steps"])
def test_integrator_config_rejects_invalid_settings(settings, message):
    # checked where the config is made, before any integration: zero
    # tolerances divided by zero in the loop, and a nan rtol was reported
    # as a non-finite coordinate
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntegratorConfig(**settings)


def test_step_limit():
    ent = harmonic_oscillator()
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.0)
    with pytest.raises(StepLimitExceededError):
        integrate_herglotz(ent.system, rs0, (0.0, 10.0),
                           config=IntegratorConfig(max_steps=5))


def test_blow_up():
    # inverted quadratic potential: x grows like e^u, w like its square.
    # NB "-x1^2" would parse as (-x1)^2; the parens matter here.
    sys = HerglotzSystem(1, [["1"]], ["0"], "-(x1^2)")
    rs0 = ReducedState([1.0], [1.0], 0.0, 0.0)
    with pytest.raises(BlowUpError):
        integrate_herglotz(sys, rs0, (0.0, 60.0),
                           config=IntegratorConfig(rtol=1e-8, atol=1e-10))


# ---------------------------------------------------------------- geodesic runs

def test_free_geodesic_is_straight():
    ent = free_particle()
    rs0 = ReducedState([0.8, -0.4], [0.3, 0.5], 0.0, 0.1)
    gs0 = lift_state(ent.system, rs0, 1.0)
    traj = integrate_geodesic(BrinkmannMetric(ent.system), gs0, (0.0, math.inf),
                              config=TIGHT, stop_at_u=5.0)
    rt = reduce_trajectory(traj)
    for u in np.linspace(0.0, 5.0, 21):
        rs = rt.state_at(u)
        assert rs.x[0] == pytest.approx(0.8 + 0.3 * u, abs=1e-10)
        assert rs.x[1] == pytest.approx(-0.4 + 0.5 * u, abs=1e-10)


def test_udot_bitwise_constant_without_w_coupling():
    # the u-acceleration row vanishes identically, so every RK increment
    # of udot is exactly 0.0
    for ent in (free_particle(), harmonic_oscillator()):
        n = ent.system.n
        rs0 = ent.default_state
        gs0 = lift_state(ent.system, rs0, 1.5)
        traj = integrate_geodesic(BrinkmannMetric(ent.system), gs0,
                                  (0.0, math.inf), config=TIGHT, stop_at_u=4.0)
        udots = traj.y[:, (n + 2) + n]
        assert np.ptp(udots) == 0.0


def test_sigma_u_inversion():
    ent = harmonic_oscillator()
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.0)
    gs0 = lift_state(ent.system, rs0, 2.0)
    traj = integrate_geodesic(BrinkmannMetric(ent.system), gs0, (0.0, math.inf),
                              config=TIGHT, stop_at_u=4.0)
    rt = reduce_trajectory(traj)
    # udot frozen at 2, so u = 2 sigma exactly up to integration error
    assert rt.sigma_at(1.0) == pytest.approx(0.5, abs=1e-12)
    assert rt.sigma_at(3.0) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        rt.sigma_at(4.5)  # beyond the covered window


def test_non_finite_parameters_are_out_of_range(damped_run):
    ent, _, traj = damped_run
    rt_g = reduce_trajectory(traj)
    rt_h = integrate_herglotz(ent.system, ReducedState([1.0], [0.0], 0.0, 0.25),
                              (0.0, 4.0), config=TIGHT)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            traj.eval(bad)
        with pytest.raises(ValueError, match="outside"):
            rt_g.sigma_at(bad)
        for rt in (rt_g, rt_h):
            with pytest.raises(ValueError, match="outside"):
                rt.state_at(bad)


def test_out_of_range_messages_give_the_range_as_floats(damped_run):
    traj = damped_run[2]
    rt = reduce_trajectory(traj)
    t0, t1 = traj.t[0].item(), traj.t[-1].item()
    u0, u1 = float(rt.u[0]), float(rt.u[-1])
    with pytest.raises(ValueError) as err:
        traj.eval(t1 + 1.0)
    assert str(err.value) == (f"parameter {t1 + 1.0!r} outside trajectory "
                              f"range [{t0!r}, {t1!r}]")
    with pytest.raises(ValueError) as err:
        rt.sigma_at(u0 - 1.0)
    assert str(err.value) == (f"u = {u0 - 1.0!r} outside covered "
                              f"range [{u0!r}, {u1!r}]")
    # the ends, and a step past them by under 1e-9, stay in range
    assert traj._locate(t0) == 0
    assert traj._locate(t1 * (1 + 1e-10)) == len(traj) - 2


def test_sigma_at_raises_without_convergence(damped_run, monkeypatch):
    # udot grows along the run, so one iteration from the linear seed
    # between two samples cannot reach 1e-13
    rt = reduce_trajectory(damped_run[2])
    u = 0.5 * (rt.u[3] + rt.u[4])
    sigma = rt.sigma_at(u)
    assert rt.traj.eval(sigma)[1] == pytest.approx(u, abs=1e-12)
    monkeypatch.setattr(ReducedTrajectory, "_SIGMA_ITERS", 1)
    with pytest.raises(SigmaInversionError, match="in 1 iterations"):
        rt.sigma_at(u)


def test_reduced_view_refuses_an_unknown_kind():
    traj = Trajectory([0.0, 1.0], [[0.0, 0.0, 0.0]] * 2,
                      [[[0.0, 0.0, 0.0]] * 7], kind="oracle", n=1, rejected=0)
    with pytest.raises(ValueError, match="unknown trajectory kind 'oracle'"):
        ReducedTrajectory(traj)


def test_reduce_rejects_backward_time():
    ent = free_particle()
    met = BrinkmannMetric(ent.system)
    rs0 = ReducedState([0.0, 0.0], [0.1, 0.0], 0.0, 0.0)
    gs0 = lift_state(ent.system, rs0, 1.0)
    gs0.velocity[2] = -1.0  # hand-built, bypasses the lift guard
    traj = integrate_geodesic(met, gs0, (0.0, 2.0), config=TIGHT)
    with pytest.raises(MonotonicityViolationError):
        reduce_trajectory(traj)


def test_cross_pipeline_agreement_n3():
    # exercises the generic (LAPACK) kinetic path end to end
    sys = HerglotzSystem(
        3, [["1 + 0.1*x3^2", "0.2", "0"], ["0.2", "2", "0"], ["0", "0", "1"]],
        ["0.1*x2", "0", "0"], "0.5*(x1^2 + x2^2 + x3^2) + 0.1*w")
    rs0 = ReducedState([0.5, -0.2, 0.3], [0.1, 0.2, -0.1], 0.0, 0.0)
    rt_h = integrate_herglotz(sys, rs0, (0.0, 2.0), config=TIGHT)
    gs0 = lift_state(sys, rs0, 1.0)
    traj = integrate_geodesic(BrinkmannMetric(sys), gs0, (0.0, math.inf),
                              config=TIGHT, stop_at_u=2.0)
    rt_g = reduce_trajectory(traj)
    for u in np.linspace(0.0, 2.0, 9):
        assert np.allclose(rt_h.state_at(u).x, rt_g.state_at(u).x, atol=1e-8)


# ---------------------------------------------------------------- residual diagnostics

@pytest.fixture(scope="module")
def damped_run():
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    met = BrinkmannMetric(ent.system)
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    gs0 = lift_state(ent.system, rs0, 1.0)
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=10.0)
    return ent, met, traj


def test_u_equation_residual_null_run(damped_run):
    _, met, traj = damped_run
    assert u_equation_residual(met, traj) < 1e-10


def test_w_equation_residual_null_run(damped_run):
    _, met, traj = damped_run
    assert w_equation_residual(met, traj) < 1e-8


def test_w_equation_residual_flags_off_cone(damped_run):
    # same geodesic flow, but started off the null cone: the w equation
    # is no longer implied and the defect is order C
    ent, met, _ = damped_run
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    gs0 = lift_state(ent.system, rs0, 1.0)
    gs0.velocity[2] += 0.1
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=5.0)
    assert w_equation_residual(met, traj) > 1e-4
    # the u equation does not care about the cone
    assert u_equation_residual(met, traj) < 1e-10


@pytest.fixture
def damped_sample_run():
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    met = BrinkmannMetric(ent.system)
    gs0 = lift_state(ent.system, ReducedState([1.0], [0.0], 0.0, 0.25), 1.0)
    return met, integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                                   stop_at_u=2.0)


def _raised_three_times(met, traj, error) -> str:
    """The message of `error`, which the u- and w-equation residuals
    raise alike, first, second and third; the oracle raises it too."""
    messages = []
    for residual in (u_equation_residual, w_equation_residual,
                     u_equation_residual):
        with pytest.raises(error) as info:
            residual(met, traj)
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3
    with pytest.raises(error) as info:
        equation_residuals_numpy(met, traj)
    assert messages[0] == str(info.value)
    return messages[0]


@pytest.mark.parametrize("col, value, error", [(4, 0.0, ZeroUdotError),
                                              (0, math.nan, NonFiniteError)])
def test_a_failed_sample_pass_keeps_nothing(damped_sample_run, col, value,
                                            error):
    # the u- and w-equation residuals share one pass over the samples;
    # where it raises at a sample (udot = 0, x = nan), it keeps nothing
    # and every later residual raises the same error
    met, traj = damped_sample_run
    traj.y[5, col] = value
    _raised_three_times(met, traj, error)


# columns 4 and 5 are udot and wdot, column 0 is x of damped_sample_run's
# samples
@pytest.mark.parametrize("edits, error", [
    ({5: (4, 0.0), 3: (0, math.nan)}, NonFiniteError),
    ({3: (4, 0.0), 5: (0, math.nan)}, ZeroUdotError),
    ({5: (4, 0.0), 3: (5, math.nan)}, NonFiniteError),
    ({3: (4, 0.0), 5: (5, math.inf)}, ZeroUdotError)])
@pytest.mark.parametrize("block", [None, 2])
def test_the_first_sample_at_fault_raises(damped_sample_run, monkeypatch,
                                          edits, error, block):
    # of udot = 0 at one sample and x or wdot not finite at another, the
    # earlier one, sample 3, raises, whether the pass takes the samples in
    # one block or in many
    met, traj = damped_sample_run
    if block is not None:
        monkeypatch.setattr(dynamics, "_BLOCK", block)
    for k, (col, value) in edits.items():
        traj.y[k, col] = value
    message = _raised_three_times(met, traj, error)
    if error is ZeroUdotError:
        assert message == (
            f"du/dsigma vanished at sigma = {float(traj.t[3])!r}")


def test_a_non_finite_velocity_is_no_pass(damped_sample_run):
    # with wdot = nan at every sample, both residuals once read 0.0: the
    # pass now raises at the first sample, naming its velocity
    met, traj = damped_sample_run
    traj.y[:, 5] = math.nan
    message = _raised_three_times(met, traj, NonFiniteError)
    assert message == (f"u/w-equation residual at sigma = "
                       f"{float(traj.t[0])!r} needs finite velocities, got nan")


@pytest.mark.parametrize("block", [None, 1, 7, 10_000])
def test_the_sample_pass_in_blocks_is_the_pass_sample_by_sample(
        monkeypatch, block):
    # however the samples of the coupled default geodesic, started off
    # the null cone so that both residuals vary from sample to sample,
    # are split into blocks, the residuals are those of single-point
    # calls, bit for bit
    ent = coupled_curved()
    met = BrinkmannMetric(ent.system)
    gs0 = lift_state(ent.system, ent.default_state, 1.0)
    gs0.velocity[3] += 0.1
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=ent.default_state.u + 2.0)
    if block is not None:
        monkeypatch.setattr(dynamics, "_BLOCK", block)
    want = equation_residuals_numpy(met, traj)
    assert len(traj) > 10 and min(want) > 0.0
    assert dynamics._residual_pass(met, traj) == want


def test_a_thin_kinetic_block_warns_once_per_pass():
    # h = exp(x1) is thin (below 1e-8) at the samples moved to x1 = -20:
    # the stacked pass warns once and returns the single-point residuals
    system = HerglotzSystem(1, [["exp(x1)"]], ["0.1*x1"], "0.5*x1^2 + 0.2*w",
                            name="thin-at-x-20")
    met = BrinkmannMetric(system)
    gs0 = lift_state(system, ReducedState([1.0], [0.3], 0.0, 0.25), 1.0)
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=2.0)
    traj.y[[2, 6], 0] = -20.0
    with pytest.warns(NearlySingularKineticWarning) as record:
        got = (u_equation_residual(met, traj), w_equation_residual(met, traj))
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearlySingularKineticWarning)
        assert got == equation_residuals_numpy(met, traj)


def test_the_sample_pass_keeps_two_floats():
    # the pass over the coupled default geodesic's 62 samples keeps the
    # two residuals, not a field bundle or an array per sample (85 KB);
    # a first pass builds the system's derivative pass
    ent = coupled_curved()
    met = BrinkmannMetric(ent.system)
    rs0 = ent.default_state
    first, traj = (integrate_geodesic(met, lift_state(ent.system, rs0, 1.0),
                                      (0.0, math.inf), config=TIGHT,
                                      stop_at_u=rs0.u + 10.0)
                   for _ in range(2))
    u_equation_residual(met, first)
    tracemalloc.start()
    try:
        u = u_equation_residual(met, traj)
        w = w_equation_residual(met, traj)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(traj._memo.values()) == [(u, w)]
    assert isinstance(u, float) and isinstance(w, float)
    assert kept <= 10_000


def test_null_drift_along_run(damped_run):
    _, _, traj = damped_run
    assert np.max(np.abs(traj.diagnostics["null_residual"])) < 1e-8


def test_udot_growth_matches_w_slope():
    # dL/dw = -gamma here, so d(udot)/du = -udot dL/dw gives
    # udot(u) = udot0 e^{+gamma u}: the lift pays for the dissipation
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    met = BrinkmannMetric(ent.system)
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    gs0 = lift_state(ent.system, rs0, 1.0)
    traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=TIGHT,
                              stop_at_u=10.0)
    rt = reduce_trajectory(traj)
    for k in (0, len(rt) // 2, len(rt) - 1):
        u = float(rt.u[k])
        udot = traj.y[k, 3 + 1]
        assert udot == pytest.approx(math.exp(0.2 * u), rel=1e-8)


# ---------------------------------------------------------------- invariances

def test_homogeneity_residual_small():
    ent = coupled_curved()
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        xp = rng.uniform(-2, 2, size=2)
        rs = ReducedState(x, xp, rng.uniform(0, 2), rng.uniform(-1, 1))
        for udot in (0.5, 1.0, 2.0):
            assert homogeneity_residual(ent.system, rs, udot) < 1e-12


def test_reparametrization_invariance_short():
    ent = damped_action_dependent(gamma=0.2, omega=1.0)
    met = BrinkmannMetric(ent.system)
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    views = []
    for udot0 in (1.0, 2.5):
        gs0 = lift_state(ent.system, rs0, udot0)
        traj = integrate_geodesic(met, gs0, (0.0, math.inf), config=cfg,
                                  stop_at_u=3.0)
        views.append(reduce_trajectory(traj))
    for u in np.linspace(0.0, 3.0, 13):
        a, b = views[0].state_at(u), views[1].state_at(u)
        assert np.allclose(a.x, b.x, atol=1e-9)
        assert a.w == pytest.approx(b.w, abs=1e-9)
