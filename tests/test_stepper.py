"""The scalar DOP853 stepper against a numpy oracle, and against SciPy's
DOP853 as an independent one.

`_oracle_rk` is the array form of the stepper: the same tableau, the
same PI control, the same checks and the same dense rows, on numpy
arrays.  Every weighted sum is taken term by term, left to right over
the nonzero entries, as the generated loop writes it, and the norms are
summed as Python floats in the same order; so the two agree bit for bit.
"""

import functools
import math
import operator
import re
from array import array

import numpy as np
import pytest

from hlift.dynamics import (_A, _C, _D, _E3, _E5, IntegratorConfig,
                            _stepper, integrate_geodesic, integrate_herglotz,
                            lift_state, reduce_trajectory, reduced_function)
from hlift.errors import BlowUpError, NonFiniteError, StepLimitExceededError
from hlift.geometry import BrinkmannMetric
from hlift.systems import standard_catalog

TIGHT = IntegratorConfig(rtol=1e-10, atol=1e-12)
SPAN = 10.0


def test_tableau_is_scipys_dop853():
    # the literals, entry for entry, against SciPy's copy of Hairer's
    # coefficients; no stored entry is zero, as the loop skips none
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def full(rows, width):
        return np.array([[row.get(c, 0.0) for c in range(width)]
                         for row in rows])

    assert np.array_equal(np.array(_C), coef.C)
    assert np.array_equal(full(_A, 16), coef.A)
    assert np.array_equal(full([_E5, _E3], 13), np.array([coef.E5, coef.E3]))
    assert np.array_equal(full(_D, 16), coef.D)
    assert all(a != 0.0 for row in (*_A, _E5, _E3, *_D) for a in row.values())


# ----------------------------------------------------------------- oracle

def _lin(row, K):
    """sum_c row[c] K[c], term by term from the left."""
    return functools.reduce(operator.add, [a * K[c] for c, a in row.items()])


def _sum(v):
    return functools.reduce(operator.add, v.tolist())


def _rms(v):
    return math.sqrt(_sum(v * v) / len(v))


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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h = min(100 * h0, h1)
    if math.isfinite(span):
        h = min(h, span)
    return h


def _finite(v):
    return bool(np.all(np.isfinite(v)))


def _oracle_rk(f, t0, y0, t_end, cfg, stop=None):
    """(ts, ys, dense, rejected, nfev) of the array-form stepper; f maps
    (t, array) to an array."""
    # Hairer's PI control on a 7th order estimate: exponents 1/8 - 0.2 beta
    # and beta, safety factor, growth bound
    beta = 0.04
    alpha, safety, grow = 1 / 8 - 0.2 * beta, 0.8, 5.0
    t = float(t0)
    y = np.asarray(y0, dtype=float)
    k1 = np.asarray(f(t, y), dtype=float)
    h = _oracle_initial_step(f, t, y, k1, cfg, t_end - t)
    nfev = 2
    ts, ys, dense = [t], [y.copy()], []
    rejected = attempts = 0
    err_prev = 1.0
    just_rejected = False
    K = np.empty((16, len(y)))
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
        calls = 0
        for i in range(1, 13):      # stages 2..13, 13 at the new state
            yi = y + h * _lin(_A[i], K)
            if not _finite(yi):
                break
            K[i] = f(t + _C[i] * h, yi)
            calls += 1
        if calls == 12:
            y_new = yi
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            e5, e3 = (_lin(row, K) / scale for row in (_E5, _E3))
            e5, dn = _sum(e5 * e5), _sum(e3 * e3)
            dn = e5 + 0.01 * dn
            err = h * e5 / math.sqrt(len(y) * (dn if dn > 0.0 else 1.0))
            if err > 1.0:
                nfev += 12
                rejected += 1
                just_rejected = True
                h = h * max(0.2, safety * err ** -(1 / 8))
                continue
            if err <= 1.0:          # finite: the dense stages
                for i in range(13, 16):
                    yi = y + h * _lin(_A[i], K)
                    if not _finite(yi):
                        break
                    K[i] = f(t + _C[i] * h, yi)
                    calls += 1
        nfev += calls
        if calls < 15 or not _finite(K[15]):
            rejected += 1
            just_rejected = True
            h *= 0.25
            continue
        d0 = y_new - y
        dense.append([d0, h * K[0] - d0, 2.0 * d0 - h * (K[12] + K[0]),
                      *[h * _lin(row, K) for row in _D]])
        t = t_end if clipped else t + h
        y, k1 = y_new, K[12].copy()
        ts.append(t)
        ys.append(y.copy())
        if float(np.max(np.abs(y))) > 1e12:
            raise BlowUpError("oracle blow-up")
        if err == 0.0:
            factor = grow
        else:
            factor = min(grow, safety * err ** -alpha * err_prev ** beta)
        if just_rejected:
            factor = min(1.0, factor)
        just_rejected = False
        err_prev = max(err, 1e-4)
        h = h * factor
        if stop is not None and stop(t, y):
            break
        if math.isfinite(t_end) and t >= t_end:
            break
    return (np.array(ts), np.array(ys),
            np.array(dense).reshape(len(ts) - 1, 7, len(y)), rejected, nfev)


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
        f = lambda t, y: fn(*y)[:-1]        # without the null residual
        gs0 = lift_state(system, rs0)
        target = rs0.u + SPAN
        return _oracle_rk(_on_arrays(f), 0.0,
                          np.concatenate([gs0.point.coords(), gs0.velocity]),
                          math.inf, TIGHT, stop=lambda t, y: y[n] >= target)
    fn = reduced_function(system)
    f = _on_arrays(lambda u, z: fn(u, *z))
    z0 = np.concatenate([rs0.x, rs0.xp, [rs0.w]])
    return _oracle_rk(f, rs0.u, z0, rs0.u + SPAN, TIGHT)


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_scalar_stepper_matches_the_numpy_oracle(key, pipeline):
    ent = standard_catalog()[key]
    traj, _ = _scalar_run(pipeline, ent)
    ts, ys, dense, rejected, nfev = _oracle_run(pipeline, ent)
    assert (traj.rejected, traj.nfev) == (rejected, nfev)
    for got, want in ((traj.t, ts), (traj.y, ys), (traj.dense, dense)):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_scalar_stepper_reruns_bit_identically(key, pipeline):
    ent = standard_catalog()[key]
    (a, na), (b, nb) = _scalar_run(pipeline, ent), _scalar_run(pipeline, ent)
    for x, y in ((a.t, b.t), (a.y, b.y), (a.dense, b.dense)):
        assert np.array_equal(x, y)
    assert (a.rejected, a.nfev) == (b.rejected, b.nfev)
    if na is not None:
        assert np.array_equal(na, nb)


# ------------------------------------------------------ dense output
#
# The dense polynomial of the containing step on numpy rows:
# Trajectory.eval's float form performs the same operations in the same
# order, so the two agree bit for bit.

def _numpy_dense(traj, tq):
    k = int(np.searchsorted(traj.t, tq, side="right")) - 1
    k = min(max(k, 0), len(traj) - 2)
    t0, t1 = traj.t[k], traj.t[k + 1]
    x = (tq - t0) / (t1 - t0)
    r = traj.dense[k]
    v = r[6] * x
    for row, w in zip(r[5::-1], (1.0 - x, x) * 3):
        v = (v + row) * w
    return v + traj.y[k]


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_dense_output_is_the_numpy_hermite_bit_for_bit(key, pipeline):
    # Trajectory.eval is DOP853's dense polynomial (_numpy_dense) bit for
    # bit, at every sample and inside every step
    ent = standard_catalog()[key]
    traj, _ = _scalar_run(pipeline, ent)
    t = traj.t
    between = [t[:-1] + a * np.diff(t) for a in (0.3, 0.5)]
    for tq in np.concatenate([t, *between]):
        assert np.array_equal(traj.eval(tq), _numpy_dense(traj, tq))
    # a step's polynomial starts on its first sample and ends on its last
    # to rounding
    assert all(np.array_equal(traj.eval(tq), y)
               for tq, y in zip(t[:-1], traj.y))
    assert np.allclose(traj.eval(t[-1]), traj.y[-1], rtol=1e-15, atol=1e-15)
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
# SciPy's DOP853 (the same method with its own step control and its own
# dense output) integrates the same compiled right-hand side from the same
# start, far tighter.  Both solutions are read at the 33 equivalence
# checkpoints in u (for the geodesic, at the sigma where our run reaches
# each u), ours by its dense polynomial.  The bound is deliberately loose:
# it is what a 5th order pair read by a cubic Hermite interpolant would
# need (steps h ~ rtol^(1/5), interpolation error ~ h^4 ~ rtol^(4/5) of
# the state's size; Hairer, Norsett & Wanner, Solving ODEs I, II.6) plus
# the reference's dense output, ~ rtol_ref^(7/8), per unit of state size
# (at least 1), times 10 for the unknown derivative constants: 1.6e-7 per
# unit.  Measured: at most 1.1e-4 of the bound (coupled, reduced); at the
# step nodes themselves the two agree to 7e-13 per unit.

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
    def explain(t, y):
        raise AssertionError("f never declines")
    k0 = f(0.0, *y0)
    ts, ys = array("d", (0.0,)), array("d", y0)
    rejected, nfev = _stepper(1, True, 0, 0)(
        f, explain, 0.0, math.inf, tuple(y0), k0, TIGHT, ts, ys, array("d"),
        stop_at)
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
    steps = len(ts) - 1
    assert rejected >= 1
    assert nfev == len(calls) < 2 + 12 * (steps + rejected) + 3 * steps
    assert np.allclose(ys, ts, rtol=1e-15, atol=0.0)
    want = _oracle_rk(lambda t, y: np.array(f(t, y[0])), 0.0, [0.0], math.inf,
                      TIGHT, stop=lambda t, y: y[0] >= 2.5)
    assert np.array_equal(ts, want[0]) and np.array_equal(ys, want[1][:, 0])
    assert (rejected, nfev) == want[3:]


def test_generated_step_rejects_with_its_call_count():
    # on y' = 1 the call of one stage of the first attempt returns inf:
    # the next stage's input is not finite (for the FSAL stage 13, that of
    # the first dense stage; for the last dense stage 16, its own output),
    # so the attempt is rejected after stage - 1 calls of f
    for stage in range(2, 17):
        calls = []

        def f(t, y):
            calls.append(t)
            # the initial derivative and the initial-step probe come first
            return (math.inf if len(calls) == 2 + stage - 1 else 1.0,)

        ts, ys, rejected, nfev = _loop_run(f, [0.0], 2.5)
        assert rejected == 1
        assert nfev == len(calls) == 2 + (stage - 1) + 15 * (len(ts) - 1)
        assert np.allclose(ys, ts, rtol=1e-15, atol=0.0)


# ---------------------------------------------- mid-integration declines
#
# The compiled right-hand side is wrapped so that it declines one chosen
# call: 0 is the initial derivative, 1 the initial-step probe, and then
# each attempt makes twelve calls, of which the last is the FSAL stage
# whose input is the state the attempt accepts, and an accepted one three
# more; 43 is the FSAL stage of the third attempt where none is rejected,
# 61 a stage of the fifth.  The integration ends at that call with the
# NonFiniteError that names the pipeline.

@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["harmonic", "coupled"])
@pytest.mark.parametrize("declined", [0, 1, 43, 61])
def test_a_declined_call_ends_the_integration(key, pipeline, declined,
                                              monkeypatch):
    ent = standard_catalog()[key]
    fns = ent.system._passes._fns
    kind = "geodesic" if pipeline == "geodesic" else "reduced"
    _scalar_run(pipeline, ent)          # builds the function
    fn = fns[kind]

    def declining(*args):
        declining.calls += 1
        return None if declining.calls - 1 == declined else fn(*args)

    declining.calls = 0
    monkeypatch.setitem(fns, kind, declining)
    label = re.escape(f"{ent.system.name} {kind}: ")
    with pytest.raises(NonFiniteError, match=f"^{label}"):
        _scalar_run(pipeline, ent)
    assert declining.calls == declined + 1
