"""The scalar Dormand-Prince stepper against a numpy oracle, and against
SciPy's DOP853 as an independent one.

`_oracle_rk` is the array form of the stepper: the same tableau, the
same PI control and the same checks, on numpy arrays, with the weighted
stage sums taken by numpy's dot product.  The generated loop sums left
to right instead, so the two agree at rounding level, not bit for bit.
"""

import math
from array import array

import numpy as np
import pytest

from hlift.dynamics import (IntegratorConfig, Trajectory, _geodesic_numpy,
                            _stepper, integrate_geodesic, integrate_herglotz,
                            lift_state, reduce_trajectory, reduced_function)
from hlift.errors import BlowUpError, StepLimitExceededError
from hlift.geometry import BrinkmannMetric
from hlift.systems import standard_catalog

TIGHT = IntegratorConfig(rtol=1e-10, atol=1e-12)
SPAN = 10.0

# ----------------------------------------------------------------- oracle

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = _DP_A[6]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])


def _rms(v):
    return float(np.sqrt(np.mean(v * v)))


def _oracle_initial_step(f, t0, y0, f0, cfg, span):
    scale = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1)
    if math.isfinite(span):
        h = min(h, span)
    return h


def _oracle_rk(f, t0, y0, t_end, cfg, stop=None, on_accept=None):
    """(ts, ys, fs, rejected, nfev) of the array-form stepper; f maps
    (t, array) to an array."""
    t = float(t0)
    y = np.asarray(y0, dtype=float)
    k1 = np.asarray(f(t, y), dtype=float)
    if on_accept is not None:
        on_accept(t, y, k1)
    h = _oracle_initial_step(f, t, y, k1, cfg, t_end - t)
    nfev = 2
    ts, ys, fs = [t], [y.copy()], [k1.copy()]
    rejected = attempts = 0
    err_prev = 1.0
    just_rejected = False
    K = np.empty((7, len(y)))
    done = t >= t_end or (stop is not None and stop(t, y))
    while not done:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimitExceededError("oracle step limit")
        clipped = False
        if math.isfinite(t_end) and t + h >= t_end:
            h = t_end - t
            clipped = True
        if h <= 1e-14 * max(1.0, abs(t)):
            raise BlowUpError("oracle step size underflow")
        K[0] = k1
        ok = True
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ K[:i])
            if not np.all(np.isfinite(yi)):
                ok = False
                break
            K[i] = f(t + _DP_C[i] * h, yi)
            nfev += 1
        if ok:
            y_new = y + h * (_DP_B @ K[:6])
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(h * (_DP_E @ K) / scale)
            ok = math.isfinite(err) and np.all(np.isfinite(y_new))
        if not ok:
            rejected += 1
            just_rejected = True
            h *= 0.25
            continue
        if err <= 1.0:
            t = t_end if clipped else t + h
            y, k1 = y_new, K[6].copy()
            ts.append(t)
            ys.append(y.copy())
            fs.append(k1.copy())
            if on_accept is not None:
                on_accept(t, y, k1)
            if float(np.max(np.abs(y))) > 1e12:
                raise BlowUpError("oracle blow-up")
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * err ** -0.14 * err_prev ** 0.08))
            if just_rejected:
                factor = min(1.0, factor)
            just_rejected = False
            err_prev = max(err, 1e-10)
            h = h * factor
            if stop is not None and stop(t, y):
                break
            if math.isfinite(t_end) and t >= t_end:
                break
        else:
            rejected += 1
            just_rejected = True
            h = h * max(0.2, 0.9 * err ** -0.2)
    return np.array(ts), np.array(ys), np.array(fs), rejected, nfev


def _on_arrays(f):
    """f on tuples as the oracle's f on arrays."""
    return lambda t, y: np.array(f(t, tuple(y.tolist())))


# ------------------------------------------------------ catalog runs

def _scalar_run(pipeline, ent):
    rs0 = ent.default_state
    if pipeline == "geodesic":
        traj = integrate_geodesic(BrinkmannMetric(ent.system),
                                  lift_state(ent.system, rs0), (0.0, math.inf),
                                  config=TIGHT, stop_at_u=rs0.u + SPAN)
        return traj, traj.diagnostics["null_residual"]
    rt = integrate_herglotz(ent.system, rs0, (rs0.u, rs0.u + SPAN), config=TIGHT)
    return rt.traj, None


def _oracle_run(pipeline, ent):
    rs0 = ent.default_state
    system = ent.system
    n = system.n
    if pipeline == "geodesic":
        metric = BrinkmannMetric(system)
        fn = metric.geodesic_function()
        # the derivative without the null residual, by numpy where fn declines
        f = lambda t, y: (fn(*y) or _geodesic_numpy(metric, y))[:-1]
        gs0 = lift_state(system, rs0)
        target = rs0.u + SPAN
        return _oracle_rk(_on_arrays(f), 0.0,
                          np.concatenate([gs0.point.coords(), gs0.velocity]),
                          math.inf, TIGHT, stop=lambda t, y: y[n] >= target)
    fn = reduced_function(system)
    f = _on_arrays(lambda u, z: fn(u, *z))
    z0 = np.concatenate([rs0.x, rs0.xp, [rs0.w]])
    return _oracle_rk(f, rs0.u, z0, rs0.u + SPAN, TIGHT)


# The two steppers' stage sums differ by a few ulp.  The error norm is a
# small difference of such sums, so its rounding moves the step sizes and
# with them the sample times apart (by up to 7e-6 on these runs), but
# every sample stays on the same solution: it lies on the oracle's cubic
# Hermite interpolant, whose error that close to a node is far below
# rounding, to 1e-13 of the largest state entry (1.4e-14 measured).
_ROUNDING = 1e-13
# The free particle's stages agree exactly, so its error norm is rounding
# noise alone, and the step counts may differ by one.
_NOISE_ONLY = {"free"}


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_scalar_stepper_matches_the_numpy_oracle(key, pipeline):
    ent = standard_catalog()[key]
    traj, _ = _scalar_run(pipeline, ent)
    ts, ys, fs, rejected, nfev = _oracle_run(pipeline, ent)
    if key in _NOISE_ONLY:
        assert abs(len(traj) - len(ts)) <= 1
        assert traj.rejected == rejected
    else:
        assert (len(traj), traj.rejected, traj.nfev) == (len(ts), rejected, nfev)
    oracle = Trajectory(ts, ys, fs, kind="oracle", n=ent.system.n,
                        rejected=rejected)
    worst = max(float(np.max(np.abs(y - oracle.eval(t))))
                for t, y in zip(traj.t, traj.y) if t <= ts[-1])
    assert worst <= _ROUNDING * np.max(np.abs(ys))


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_scalar_stepper_reruns_bit_identically(key, pipeline):
    ent = standard_catalog()[key]
    (a, na), (b, nb) = _scalar_run(pipeline, ent), _scalar_run(pipeline, ent)
    for x, y in ((a.t, b.t), (a.y, b.y), (a.f, b.f)):
        assert np.array_equal(x, y)
    assert (a.rejected, a.nfev) == (b.rejected, b.nfev)
    if na is not None:
        assert np.array_equal(na, nb)


# ------------------------------------------------------ dense output
#
# The cubic Hermite interpolant of the containing step, on numpy rows:
# Trajectory.eval's float form performs the same operations in the same
# order, so the two agree bit for bit.

def _numpy_hermite(traj, tq):
    k = int(np.searchsorted(traj.t, tq, side="right")) - 1
    k = min(max(k, 0), len(traj) - 2)
    t0, t1 = traj.t[k], traj.t[k + 1]
    h = t1 - t0
    s = (tq - t0) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return (h00 * traj.y[k] + (h10 * h) * traj.f[k]
            + h01 * traj.y[k + 1] + (h11 * h) * traj.f[k + 1])


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_dense_output_is_the_numpy_hermite_bit_for_bit(key, pipeline):
    ent = standard_catalog()[key]
    traj, _ = _scalar_run(pipeline, ent)
    t = traj.t
    between = [t[:-1] + a * np.diff(t) for a in (0.3, 0.5)]
    for tq in np.concatenate([t, *between]):
        assert np.array_equal(traj.eval(tq), _numpy_hermite(traj, tq))
    if pipeline == "herglotz":
        return
    # a geodesic view's state at u: its sigma, the state there, and the
    # velocities divided by udot
    view = reduce_trajectory(traj)
    n, m = traj.n, traj.n + 2
    u = view.u
    for uq in np.concatenate([u, 0.5 * (u[:-1] + u[1:])]):
        got = view.state_at(uq)
        y = traj.eval(view.sigma_at(uq))
        assert np.array_equal(got.x, y[:n])
        assert np.array_equal(got.xp, y[m:m + n] / y[m + n])
        assert (got.u, got.w) == (uq, y[n + 1])


# ------------------------------------------------ independent oracle
#
# SciPy's DOP853 (an 8th-order Dormand-Prince code with its own step
# control and 7th-order dense output) integrates the same compiled
# right-hand side from the same start, far tighter.  Both solutions are
# read at the 33 equivalence checkpoints in u (for the geodesic, at the
# sigma where our run reaches each u).  Our reading there is the cubic
# Hermite interpolant between steps: steps sized for a local error of
# rtol have h ~ rtol^(1/5), so the interpolant's error is ~ h^4 ~
# rtol^(4/5) of the state's size (Hairer, Norsett & Wanner, Solving ODEs
# I, II.6); DOP853's dense output adds ~ rtol_ref^(7/8).  The bound is
# that sum per unit of state size (at least 1), times 10 for the
# unknown derivative constants: 1e-7 per unit.  Measured: at most
# 0.085 of the bound (harmonic, reduced); at the step nodes themselves
# the two agree to 1.3e-10.

_REF = dict(method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
_REF_BOUND = 10.0 * (TIGHT.rtol ** 0.8 + _REF["rtol"] ** 0.875)


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_scalar_stepper_matches_scipy_dop853(key, pipeline):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    ent = standard_catalog()[key]
    traj, _ = _scalar_run(pipeline, ent)
    rs0 = ent.default_state
    us = np.linspace(rs0.u, rs0.u + SPAN, 33)
    if pipeline == "geodesic":
        fn = BrinkmannMetric(ent.system).geodesic_function()
        f = lambda t, y: fn(*y)[:-1]          # drop the null residual
        view = reduce_trajectory(traj)
        ts = np.array([view.sigma_at(u) for u in us])
    else:
        fn = reduced_function(ent.system)
        f = lambda t, y: fn(t, *y)
        ts = us
    ref = solve_ivp(f, (traj.t[0], traj.t[-1]), traj.y[0], **_REF)
    assert ref.success
    want = ref.sol(ts).T
    got = np.array([traj.eval(t) for t in ts])
    size = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= _REF_BOUND * size


# ------------------------------------------------- non-finite stages

def _loop_run(f, y0, stop_at):
    """The generated loop on y' = f(t, y), one state entry, from t = 0
    until y reaches stop_at: (ts, ys, rejected, nfev)."""
    def slow(t, y):
        raise AssertionError("f never declines")
    k0 = f(0.0, *y0)
    ts, ys, fs = array("d", (0.0,)), array("d", y0), array("d", k0)
    rejected, nfev, declined = _stepper(1, True, 0, 0)(
        f, slow, 0.0, math.inf, tuple(y0), k0, TIGHT, ts, ys, fs, stop_at)
    assert declined == 0
    return np.frombuffer(ts), np.frombuffer(ys), rejected, nfev


def test_non_finite_stage_rejects_the_step():
    # y' = 1 up to t = 3, inf beyond: the step keeps growing until a stage
    # lands past 3, whose inf makes the next stage input (or the error
    # norm) non-finite; the attempt is rejected and counts only the calls
    # of f it made
    calls = []

    def f(t, y):
        calls.append(t)
        return (1.0 if t < 3.0 else math.inf,)

    ts, ys, rejected, nfev = _loop_run(f, [0.0], 2.5)
    assert rejected >= 1
    assert nfev == len(calls) < 2 + 6 * (len(ts) - 1 + rejected)
    assert np.allclose(ys, ts, rtol=1e-15, atol=0.0)
    want = _oracle_rk(lambda t, y: np.array(f(t, y[0])), 0.0, [0.0], math.inf,
                      TIGHT, stop=lambda t, y: y[0] >= 2.5)
    assert (len(ts), rejected, nfev) == (len(want[0]), want[3], want[4])


def test_generated_step_rejects_with_its_call_count():
    # on y' = 1 the call of one stage of the first attempt returns inf:
    # the next stage's input (for the FSAL stage 7, the error norm) is not
    # finite, so the attempt is rejected after stage - 1 calls of f
    for stage in range(2, 8):
        calls = []

        def f(t, y):
            calls.append(t)
            # the initial derivative and the initial-step probe come first
            return (math.inf if len(calls) == 2 + stage - 1 else 1.0,)

        ts, ys, rejected, nfev = _loop_run(f, [0.0], 2.5)
        assert rejected == 1
        assert nfev == len(calls) == 2 + (stage - 1) + 6 * (len(ts) - 1)
        assert np.allclose(ys, ts, rtol=1e-15, atol=0.0)


# ---------------------------------------------- mid-integration declines
#
# The compiled right-hand side is wrapped so that it declines chosen
# calls: 0 is the initial derivative, 1 the initial-step probe, and then
# each attempt makes six calls, of which the last, 7 + 6a, is the FSAL
# stage whose input is the state the attempt accepts.  Every declined
# call takes the numpy route, whose numbers agree with the compiled ones
# at rounding level, so the run takes the same steps.

_DECLINE = (0, 1, 4, 7, 25, 61)


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["harmonic", "coupled"])
def test_declined_calls_take_the_numpy_route_mid_integration(
        key, pipeline, monkeypatch):
    ent = standard_catalog()[key]
    want, want_null = _scalar_run(pipeline, ent)
    assert want.declined == 0
    fns = ent.system._passes._fns
    kind = "geodesic" if pipeline == "geodesic" else "reduced"
    fn = fns[kind]
    declined_args = []

    def declining(*args):
        declining.calls += 1
        if declining.calls - 1 in _DECLINE:
            declined_args.append(args)
            return None
        return fn(*args)

    declining.calls = 0
    monkeypatch.setitem(fns, kind, declining)
    got, got_null = _scalar_run(pipeline, ent)
    assert got.declined == len(_DECLINE)
    assert (got.nfev, got.rejected, len(got)) == (want.nfev, want.rejected,
                                                  len(want))
    assert got.nfev == declining.calls
    # some declined call was the FSAL stage of an accepted step
    states = {tuple(row) for row in got.y.tolist()}
    offset = 1 if pipeline == "herglotz" else 0      # the reduced fn takes u
    assert any(tuple(args[offset:]) in states for args in declined_args[3:])
    # the sample times drift apart as in the oracle comparison above, but
    # every sample lies on the undeclined run's interpolant
    size = np.max(np.abs(want.y))
    worst = max(float(np.max(np.abs(y - want.eval(t))))
                for t, y in zip(got.t, got.y) if t <= want.t[-1])
    assert worst <= _ROUNDING * size
    if pipeline == "geodesic":
        assert len(got_null) == len(got)
        assert np.max(np.abs(got_null - want_null)) <= _ROUNDING * size
