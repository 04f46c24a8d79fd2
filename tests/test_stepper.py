"""The scalar DOP853 stepper against a numpy oracle, and against SciPy's
DOP853 as an independent one.

`_oracle_rk` is the array form of the stepper: the same tableau, the
same PI control, the same checks and, per accepted step, the same dense
rows (`_oracle_dense`), on numpy arrays.  Its f keeps the compiled
right-hand side's contract: finite outputs, or None, which only a
non-finite input may give (`_oracle_stage`).  Every weighted sum is taken
term by term, left to right over the nonzero entries, as the generated
code writes it, and the norms are summed as Python floats in the same
order; so the two agree bit for bit.
"""

import functools
import linecache
import math
import operator
import re
import sys
import types
from array import array

import numpy as np
import pytest

from hlift.dynamics import (_A, _C, _D, _E3, _E5, IntegratorConfig,
                            Trajectory, _dense_rows, _fold, _samples,
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


def _oracle_stage(f, t, y):
    """f(t, y), which declines (None) only a non-finite input."""
    out = f(t, y)
    if out is None and _finite(y):
        raise NonFiniteError("oracle: f declined a finite input")
    return out


def _oracle_dense(f, t, h, y, y_new, K):
    """The 7 dense rows of an accepted step from t by h, y to y_new, whose
    stages 1..13 are K[:13]: the dense stages 14..16 into K, then the
    rows; None where f declines a dense stage's input."""
    for i in range(13, 16):
        out = _oracle_stage(f, t + _C[i] * h, y + h * _lin(_A[i], K))
        if out is None:
            return None
        K[i] = out
    d0 = y_new - y
    return [d0, h * K[0] - d0, 2.0 * d0 - h * (K[12] + K[0]),
            *[h * _lin(row, K) for row in _D]]


def _oracle_rk(f, t0, y0, t_end, cfg, stop=None):
    """(ts, ys, dense, rejected, nfev) of the array-form stepper; f maps
    (t, array) to an array, or to None at a non-finite input.  dense
    lists each step's rows (_oracle_dense), and nfev counts the
    integration's calls, declined ones included, which leave out the 3
    dense stages of each step."""
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
        err = math.nan
        for i in range(1, 13):      # stages 2..13, 13 at the new state
            yi = y + h * _lin(_A[i], K)
            out = _oracle_stage(f, t + _C[i] * h, yi)
            calls += 1
            if out is None:
                break
            K[i] = out
        else:
            y_new = yi
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            e5, e3 = (_lin(row, K) / scale for row in (_E5, _E3))
            e5, dn = _sum(e5 * e5), _sum(e3 * e3)
            dn = e5 + 0.01 * dn
            err = h * e5 / math.sqrt(len(y) * (dn if dn > 0.0 else 1.0))
        nfev += calls
        if err > 1.0:
            rejected += 1
            just_rejected = True
            h = h * max(0.2, safety * err ** -(1 / 8))
            continue
        # a stage input or the norm not finite
        if not err <= 1.0:
            rejected += 1
            just_rejected = True
            h *= 0.25
            continue
        dense.append(_oracle_dense(f, t, h, y, y_new, K))
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
    return np.array(ts), np.array(ys), dense, rejected, nfev


def _on_arrays(f, outputs=None):
    """f on tuples as the oracle's f on arrays: its first `outputs`
    outputs (all by default), or None where f declines."""
    def on_arrays(t, y):
        out = f(t, tuple(y.tolist()))
        return None if out is None else np.array(out[:outputs])
    return on_arrays


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
        f = lambda t, y: fn(*y)     # the null residual dropped below
        gs0 = lift_state(system, rs0)
        target = rs0.u + SPAN
        return _oracle_rk(_on_arrays(f, -1), 0.0,
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
    # forcing the dense output builds every step by its 3 dense stages
    steps = len(ts) - 1
    dense = np.array(dense).reshape(steps, 7, ys.shape[1])
    traj.dense
    assert (traj.rejected, traj.nfev) == (rejected, nfev + 3 * steps)
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


@pytest.mark.parametrize("row", [*_A[13:], *_D],
                         ids=[*(f"A{i}" for i in (13, 14, 15)),
                              *(f"D{r}" for r in range(4))])
def test_the_stacked_fold_adds_as_the_generated_rows(row):
    # the stacked build's one reduction over the stages is _combo's sum
    # from the left, bit for bit, over stacks of random size holding
    # magnitudes from 1e-300 to 1e300 and zeros of either sign
    rng = np.random.default_rng(29)
    for _ in range(25):
        steps, size = int(rng.integers(1, 201)), int(rng.integers(3, 9))
        K = (rng.choice([-1.0, 1.0], (17, steps, size))
             * 10.0 ** rng.uniform(-300.0, 300.0, (17, steps, size)))
        K[rng.random(K.shape) < 0.1] *= 0.0
        first, *rest = [a * K[c + 1] for c, a in row.items()]
        want = sum(rest, first)
        got = _fold(row, K)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["damped-action", "coupled"])
def test_rows_do_not_depend_on_the_query_order(key, pipeline):
    # a step's rows, built on its first query, are those of forcing the
    # dense output, whichever step is queried first; a second query of a
    # step calls nothing
    ent = standard_catalog()[key]
    forced = _scalar_run(pipeline, ent)[0].dense
    steps = len(forced)
    rng = np.random.default_rng(17)
    for order in (range(steps - 1, -1, -1), rng.permutation(steps)):
        traj, _ = _scalar_run(pipeline, ent)
        nfev = traj.nfev
        mids = 0.5 * (traj.t[:-1] + traj.t[1:])
        for k in (*order, *order):
            traj.eval(mids[k])
        assert np.array_equal(traj.dense, forced)
        assert traj.nfev == nfev + 3 * steps


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
#
# The loop's f keeps the compiled right-hand side's contract: finite
# outputs, or None wherever an input is not finite (_contract).  A stage
# input becomes non-finite where an earlier stage's finite but huge
# output overflows the stage sum; f then declines it, and the loop
# rejects the attempt, counting the declined call.  A call declined at a
# finite input raises the error of explain.

_BIG = sys.float_info.max


def _contract(g, calls):
    """y' = g(t, y) as the compiled function computes it: None at a
    non-finite input, g's value (or None) elsewhere; `calls` records
    each call's input."""
    def f(t, y):
        calls.append(y)
        return g(t, y) if math.isfinite(y) else None
    return f


def _loop_run(f, y0, stop_at):
    """The generated loop on y' = f(t, y), one state entry, from t = 0
    until y reaches stop_at, as a trajectory whose rows f builds; explain
    raises NonFiniteError "y' = f declined at t"."""
    def explain(t, y):
        raise NonFiniteError(f"y' = f declined at {t!r}")
    k0 = f(0.0, *y0)
    ts, ys, ds = array("d", (0.0,)), array("d", y0), array("d")
    rejected, nfev = _stepper(1, True, 0, 0)(
        f, explain, 0.0, math.inf, tuple(y0), k0, TIGHT, ts, ys, ds, stop_at)
    # the reduced kind: f takes the parameter
    return Trajectory(*_samples(ts, ys), ds, kind="reduced", n=0,
                      rejected=rejected, nfev=nfev, fn=f, explain=explain,
                      label="y' = f")


def test_non_finite_stage_rejects_the_step():
    # y' = 1 up to t = 3, the largest float beyond: the step keeps growing
    # until stages land past 3, whose outputs overflow a later stage's
    # input (or the error norm); the attempt is rejected and counts the
    # calls of f it made, the declined one included
    calls = []
    f = _contract(lambda t, y: (1.0 if t < 3.0 else _BIG,), calls)
    traj = _loop_run(f, [0.0], 2.5)
    ts, ys, rejected, nfev = traj.t, traj.y[:, 0], traj.rejected, traj.nfev
    steps = len(ts) - 1
    assert rejected >= 1
    assert not all(map(math.isfinite, calls))
    assert nfev == len(calls) < 2 + 12 * (steps + rejected)
    assert np.allclose(ys, ts, rtol=1e-15, atol=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _oracle_rk(_on_arrays(lambda t, y: f(t, *y)), 0.0, [0.0],
                          math.inf, TIGHT, stop=lambda t, y: y[0] >= 2.5)
    assert np.array_equal(ts, want[0]) and np.array_equal(ys, want[1][:, 0])
    assert (rejected, nfev) == want[3:]
    assert all(np.array_equal(traj._step(k)[3], rows)
               for k, rows in enumerate(want[2]))


def test_generated_step_rejects_with_its_call_count():
    # on y' = 1 the call of one stage of the first attempt returns the
    # largest float: the first later stage whose tableau entry for it
    # exceeds 1 in size gets an infinite input, which f declines, so the
    # attempt is rejected after the calls of stages 2..that stage
    overflows = {}
    for stage in range(2, 14):
        later = [r + 1 for r in range(stage, 13)
                 if abs(_A[r].get(stage - 1, 0.0)) > 1.0]
        if later:
            overflows[stage] = later[0]
    assert overflows == {4: 9, 5: 11, 6: 9, 7: 9, 8: 9, 9: 11, 10: 11}
    for stage, declined in overflows.items():
        calls = []
        # the initial derivative and the initial-step probe come first
        f = _contract(lambda t, y: (_BIG if len(calls) == 2 + stage - 1
                                    else 1.0,), calls)
        traj = _loop_run(f, [0.0], 2.5)
        assert traj.rejected == 1
        assert [k for k, y in enumerate(calls)
                if not math.isfinite(y)] == [2 + declined - 2]
        assert (traj.nfev == len(calls)
                == 2 + (declined - 1) + 12 * (len(traj) - 1))
        assert np.allclose(traj.y[:, 0], traj.t, rtol=1e-15, atol=0.0)
    # a dense stage returns the largest float: the integration completes,
    # and the query of the step raises where the last dense stage's input
    # overflows; once f is finite again the query builds the step's 3
    # stages
    for stage in (14, 15):
        calls = []
        bad = []
        f = _contract(lambda t, y: (_BIG if len(calls) in bad else 1.0,),
                      calls)
        traj = _loop_run(f, [0.0], 2.5)
        steps = len(traj) - 1
        assert traj.rejected == 0
        assert traj.nfev == len(calls) == 2 + 12 * steps
        bad.append(len(calls) + stage - 13)
        with pytest.raises(NonFiniteError, match="^y' = f: the dense output "
                           "of the step at 0.0 is not finite$"):
            traj.eval(0.5 * traj.t[1])
        assert len(calls) == 2 + 12 * steps + 3 and traj.nfev == len(calls) - 3
        assert not math.isfinite(calls[-1])
        assert traj.eval(0.5 * traj.t[1]) == pytest.approx(0.5 * traj.t[1])
        assert traj.nfev == len(calls) - 3 == 2 + 12 * steps + 3


def test_a_call_declined_at_a_finite_input_raises_its_explanation():
    # f declines one call at a finite input: the initial-step probe (call
    # 1), a stage of the first attempt (calls 2..13, 13 the FSAL stage),
    # or, on query, a dense stage; explain's error ends the integration
    # or the query at that call
    for number in range(1, 14):
        calls = []
        f = _contract(lambda t, y: None if len(calls) == number + 1
                      else (1.0,), calls)
        with pytest.raises(NonFiniteError, match="^y' = f declined at "):
            _loop_run(f, [0.0], 2.5)
        assert len(calls) == number + 1 and all(map(math.isfinite, calls))
    for stage in (14, 15, 16):
        calls = []
        bad = []
        f = _contract(lambda t, y: None if len(calls) in bad else (1.0,),
                      calls)
        traj = _loop_run(f, [0.0], 2.5)
        nfev = traj.nfev
        bad.append(len(calls) + stage - 13)
        with pytest.raises(NonFiniteError, match="^y' = f declined at "):
            traj.eval(0.5 * traj.t[1])
        assert len(calls) == bad[0] and traj.nfev == nfev
        assert all(map(math.isfinite, calls))


@pytest.mark.parametrize("size, takes_t, n_aux, stop",
                         [(4, False, 1, 1), (2, True, 0, None), (3, True, 2, 0)])
def test_a_stage_is_checked_finite_only_where_f_declines_it(size, takes_t,
                                                           n_aux, stop):
    # in the generated source (linecache), each stage's finite test sits
    # in the branch of its declined call: 12 in the loop (stages 2..13,
    # none on the FSAL output) and 3 in the dense rows (stages 14..16,
    # none on the last output); the loop's one other test is the error
    # norm's.  The functions are generated afresh, in shapes that no
    # pipeline has, so that the source read is theirs alone.
    for fn, stages in ((_stepper.__wrapped__(size, takes_t, n_aux, stop), 12),
                       (_dense_rows.__wrapped__(size, takes_t), 3)):
        lines = linecache.getlines(fn.__code__.co_filename)
        assert lines and lines[0].startswith(f"def {fn.__name__}(")
        checks = [k for k, line in enumerate(lines) if "_s - _s" in line]
        assert len(checks) == stages
        for k in checks:
            depth = len(lines[k]) - len(lines[k].lstrip())
            block = next(line for line in reversed(lines[:k])
                         if len(line) - len(line.lstrip()) < depth)
            assert block.strip() == "if _o is None:"
        assert sum(" - " in line and "!= 0.0" in line
                   for line in lines) == stages + (stages == 12)


def test_only_the_fsal_stage_calls_the_function_with_aux_outputs():
    # in the generated geodesic loop (linecache), fa, the right-hand side
    # with the null residual, makes one call, stage 13's at the state the
    # attempt accepts, and its declines go to explain_a; the probe and
    # stages 2..12 call fn, which returns the derivative alone.  The loop
    # is generated afresh, so that the source read is its own.
    fn = _stepper.__wrapped__(8, False, 1, 2)
    lines = [line.strip()
             for line in linecache.getlines(fn.__code__.co_filename)]
    assert lines[0] == ("def _loop(fn, explain, t, t_end, y, k, cfg, ts, ys, "
                        "ds, fa, explain_a, xs_0, target):")
    calls = [line for line in lines if line.startswith("_o = ")]
    assert [line.partition("(")[0] for line in calls] == (
        ["_o = fn"] * 12 + ["_o = fa"])
    assert calls[0].startswith("_o = fn(y_0 + h0 * k1_0, ")
    for i, call in enumerate(calls[1:], start=2):
        assert call.partition("(")[2].startswith(f"s{i}_0, ")
    explained = [line.partition("(")[0] for line in lines
                 if line.startswith("explain")]
    assert explained == ["explain"] * 12 + ["explain_a"]
    # its one aux output comes from fa's call alone, and is kept
    unpacked = ", ".join(f"k13_{j}" for j in range(8)) + ", _x0, = _o"
    assert [line for line in lines if "_x0" in line] == [unpacked,
                                                         "_xa0(_x0)"]


# ---------------------------------------------- mid-integration declines
#
# The compiled right-hand sides are wrapped so that they decline one chosen
# call: 0 is the initial derivative, 1 the initial-step probe, and then
# each attempt makes twelve calls, of which the last is the FSAL stage
# whose input is the state the attempt accepts; where none is rejected,
# 43 is stage 7 of the fourth attempt and 61 the FSAL stage of the fifth.
# The integration ends at that call with the NonFiniteError that names the
# pipeline.  A dense stage's call is made when its step is first queried,
# and a decline raises there.

def _declining(ent, pipeline, monkeypatch):
    """The pipeline's compiled functions (for the geodesic, those with and
    without the null residual), wrapped to count their calls together
    and to decline call number `declining.declined` (none at first);
    `declining.kinds` lists the kind of each call.  Also the error label
    of a kind."""
    fns = ent.system._passes._fns
    kinds = (("geodesic", "geodesic-flow") if pipeline == "geodesic"
             else ("reduced",))
    _scalar_run(pipeline, ent)          # builds the functions

    def wrap(kind, fn):
        def wrapped(*args):
            declining.kinds.append(kind)
            declining.calls += 1
            if declining.calls - 1 == declining.declined:
                return None
            return fn(*args)
        return wrapped

    declining = types.SimpleNamespace(calls=0, declined=None, kinds=[])
    for kind in kinds:
        monkeypatch.setitem(fns, (kind,), wrap(kind, fns[kind,]))
    return declining, lambda kind: re.escape(f"{ent.system.name} {kind}: ")


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["harmonic", "coupled"])
@pytest.mark.parametrize("declined", [0, 1, 43, 61])
def test_a_declined_call_ends_the_integration(key, pipeline, declined,
                                              monkeypatch):
    # the geodesic's calls at the initial and the FSAL stage (0 and 61)
    # are those of its function with the null residual
    ent = standard_catalog()[key]
    declining, label = _declining(ent, pipeline, monkeypatch)
    declining.declined = declined
    with pytest.raises(NonFiniteError) as info:
        _scalar_run(pipeline, ent)
    assert declining.calls == declined + 1
    kind = declining.kinds[-1]
    if pipeline == "geodesic":
        assert kind == ("geodesic" if declined in (0, 61) else "geodesic-flow")
    assert re.match(label(kind), str(info.value))


@pytest.mark.parametrize("pipeline", ["geodesic", "herglotz"])
@pytest.mark.parametrize("key", ["harmonic", "coupled"])
def test_a_declined_dense_stage_raises_on_query(key, pipeline, monkeypatch):
    # the second dense stage of the first step queried declines: the
    # integration has completed, and only the query raises.  The
    # geodesic's null residual is computed at the initial state and at
    # the FSAL stage of each attempt, whatever its error norm decides,
    # and never at a dense stage
    ent = standard_catalog()[key]
    declining, label = _declining(ent, pipeline, monkeypatch)
    traj, _ = _scalar_run(pipeline, ent)
    assert traj.nfev == declining.calls
    if pipeline == "geodesic":
        assert declining.kinds.count("geodesic") == len(traj) + traj.rejected
    declining.declined = declining.calls + 1
    with pytest.raises(NonFiniteError) as info:
        traj.eval(traj.t[3])
    assert declining.calls == traj.nfev + 2
    kind = declining.kinds[-1]
    assert kind == ("reduced" if pipeline == "herglotz" else "geodesic-flow")
    assert re.match(label(kind), str(info.value))
    # the other steps build
    traj.eval(traj.t[4])
    assert traj.nfev == declining.calls - 2
    assert declining.kinds[-3:] == [kind] * 3
