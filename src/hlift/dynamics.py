"""Null geodesic integration and the equivalent reduced dynamics.

Two independent routes to the same motion:

  * full space: second-order geodesic flow of the lifted metric in an
    affine parameter sigma, integrated without ever projecting onto the
    null cone (the null residual is a diagnostic, not a constraint);
  * reduced: the action-dependent equations of motion in the time
    variable u, with the action coordinate w dragged along by
    dw/du = L(x, x', u, w).

A null geodesic with du/dsigma > 0, reparametrized by u, must reproduce
the reduced solution; the comparison machinery lives here as well.

The stepper is an embedded Dormand-Prince 4(5) pair with PI step-size
control, FSAL reuse, and a cubic Hermite interpolant stored per accepted
step.  It is deliberately hand-rolled: every accepted step records the
diagnostics the equivalence checks need, and reruns are bit-for-bit
deterministic.  One scalar step loop serves both pipelines: states and
derivatives are tuples of floats, each attempt is one call of a
straight-line step generated per state length, and the compiled
right-hand sides are called on the floats directly; only a call they
decline goes through numpy.  Accepted samples go to flat float buffers,
reshaped once into the trajectory's arrays.  The samples agree with an
array-form oracle of the same stepper at rounding level.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BlowUpError, MonotonicityViolationError, NonFiniteError,
                     NonPositiveUdotError, SigmaInversionError,
                     StepLimitExceededError, ZeroUdotError)
from .expr import define_function
from .geometry import (BrinkmannMetric, HerglotzSystem, Point,
                       emit_kinetic_solve, solve_kinetic, tail_bundle)

__all__ = [
    "GeodesicState", "ReducedState", "IntegratorConfig", "Trajectory",
    "ReducedTrajectory", "reduced_lagrangian", "lagrangian_w_slope",
    "lift_state", "null_residual", "geodesic_rhs", "integrate_geodesic",
    "reduce_trajectory", "herglotz_rhs", "reduced_function",
    "integrate_herglotz", "u_equation_residual", "w_equation_residual",
    "homogeneity_residual",
]

_BLOWUP_NORM = 1e12


@dataclass
class GeodesicState:
    """Point plus velocity of the lifted space at parameter sigma."""

    point: Point
    velocity: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)


@dataclass
class ReducedState:
    """Configuration (x, x' = dx/du, u, w) of the reduced dynamics."""

    x: np.ndarray
    xp: np.ndarray
    u: float
    w: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xp = np.asarray(self.xp, dtype=float)

    def point(self) -> Point:
        return Point(self.x, self.u, self.w)


@dataclass
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000


# ---------------------------------------------------------------------
# scalar functionals of states

def reduced_lagrangian(system: HerglotzSystem, rs: ReducedState) -> float:
    """L = (1/2) h_ij x'^i x'^j + A_i x'^i - V at the reduced state."""
    h, A, V = system.eval_values(rs.point())
    return float(0.5 * rs.xp @ h @ rs.xp + A @ rs.xp - V)


def lagrangian_w_slope(system: HerglotzSystem, rs: ReducedState) -> float:
    """d L / d w at the reduced state (the nonconservation rate)."""
    _, dL = system.eval_bundle(rs.point()).lagrangian(rs.xp)
    return float(dL[system.n + 1])


def lift_state(system: HerglotzSystem, rs: ReducedState,
               udot0: float = 1.0) -> GeodesicState:
    """Null initial data over a reduced state.

    Velocities are (x' udot0, udot0, udot0 L), which lies on the null
    cone of the lifted metric for any udot0 > 0.
    """
    if udot0 <= 0.0:
        raise NonPositiveUdotError(f"udot0 must be positive, got {udot0!r}")
    lag = reduced_lagrangian(system, rs)
    vel = np.concatenate([rs.xp * udot0, [udot0, udot0 * lag]])
    return GeodesicState(rs.point(), vel, 0.0)


def null_residual(metric: BrinkmannMetric, gs: GeodesicState) -> float:
    """(1/2) g_{mu nu} xdot^mu xdot^nu; zero on the null cone."""
    h, A, V = metric.system.eval_values(gs.point)
    return _null_form(h.tolist(), A.tolist(), V, gs.velocity.tolist())


def _null_form(h: list, A: list, V: float, v: list) -> float:
    """(1/2) g(v, v) on Python floats, term for term as the compiled
    geodesic function computes it, so that the two agree bit for bit."""
    n = len(A)
    xd, ud, wd = v[:n], v[n], v[n + 1]
    quad = sum(sum(h[i][j] * xd[j] for j in range(n)) * xd[i] for i in range(n))
    lin = sum(A[i] * xd[i] for i in range(n))
    return float(0.5 * quad + lin * ud - V * ud * ud - ud * wd)


def geodesic_rhs(metric: BrinkmannMetric, gs: GeodesicState) -> np.ndarray:
    """Accelerations -Gamma^mu_{nu rho} xdot^nu xdot^rho."""
    return metric.accelerations(gs.point, gs.velocity)


# ---------------------------------------------------------------------
# embedded Dormand-Prince 4(5) with PI control and Hermite dense output

# the tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5): nodes and
# rows of stages 2..7, whose last row is the 5th order weights (FSAL),
# and the weights of the error estimate
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)
_ORDER_EXP = 1.0 / 5.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _scaled_rms(v, scale) -> float:
    """sqrt(mean((v / scale)^2)) over sequences of floats."""
    return math.sqrt(sum((a / s) * (a / s) for a, s in zip(v, scale)) / len(v))


def _initial_step(f, t0, y0, f0, cfg: IntegratorConfig, span: float) -> float:
    """Cheap two-evaluation guess for the first step size."""
    scale = [cfg.atol + cfg.rtol * abs(v) for v in y0]
    d0 = _scaled_rms(y0, scale)
    d1 = _scaled_rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(t0 + h0, tuple(a + h0 * b for a, b in zip(y0, f0)))
    d2 = _scaled_rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    h = min(100 * h0, h1)
    if math.isfinite(span):
        h = min(h, span)
    return h


@functools.cache
def _dopri5_step(size: int):
    """One Dormand-Prince attempt on states of `size` floats, as one
    straight-line function, generated on first use:

        step(f, t, h, y_0, ..., k1_0, ..., atol, rtol)

    with k1 = f(t, y).  It returns (y_new, k7, err): the 5th order state,
    which is the input of the FSAL stage itself, so that k7 = f(t + h,
    y_new) is f's last call; and the RMS norm of the error estimate
    scaled by atol + rtol max(|y|, |y_new|).  Where a stage input or err
    is not finite it returns instead the number of calls of f it made.
    f takes (t, tuple of floats) and returns a tuple of floats.
    """
    J = range(size)
    body = []

    def combo(row, j):
        return " + ".join(f"{a!r} * k{i + 1}_{j}" for i, a in enumerate(row)
                          if a != 0.0)

    for i, (c, row) in enumerate(zip(_DP_C, _DP_A)):
        s = [f"s{i + 2}_{j}" for j in J]
        body += [f"{s[j]} = y_{j} + h * ({combo(row, j)})" for j in J]
        # x * 0.0 is nan exactly for a non-finite x, and never overflows
        body.append(f"if {' + '.join(f'{v} * 0.0' for v in s)} != 0.0: "
                    f"return {i}")
        body.append(f"y{i + 2} = ({', '.join(s)},)")
        tc = "t + h" if c == 1.0 else f"t + {c!r} * h"
        body.append(f"{', '.join(f'k{i + 2}_{j}' for j in J)}, = k{i + 2} "
                    f"= f({tc}, y{i + 2})")
    for j in J:
        body += [f"_a = abs(y_{j})", f"_b = abs(s7_{j})",
                 f"r{j} = h * ({combo(_DP_E, j)}) / "
                 f"(atol + rtol * (_a if _a > _b else _b))"]
    body += [f"err = _sqrt(({' + '.join(f'r{j} * r{j}' for j in J)}) / {size})",
             "if err - err != 0.0: return 6",
             "return y7, k7, err"]
    params = (["f", "t", "h"] + [f"y_{j}" for j in J]
              + [f"k1_{j}" for j in J] + ["atol", "rtol"])
    return define_function("_dopri5_step", params, body, f"dopri5 {size}",
                           {"_sqrt": math.sqrt})


class Trajectory:
    """Accepted samples of one adaptive integration.

    Stores parameter values, states and state derivatives per accepted
    step; evaluation between samples uses the cubic Hermite interpolant
    of the containing step, which matches the endpoint samples exactly.

    Counters: `rejected` steps, `nfev` right-hand side calls (the
    initial-step probe included), and `declined`, the calls the compiled
    right-hand side handed to the numpy path.
    """

    def __init__(self, t, y, f, kind: str, n: int, rejected: int,
                 diagnostics: Optional[dict] = None, nfev: int = 0,
                 declined: int = 0):
        self.t = np.asarray(t)
        self.y = np.asarray(y)
        self.f = np.asarray(f)
        self.kind = kind
        self.n = n
        self.rejected = rejected
        self.nfev = nfev
        self.declined = declined
        self.diagnostics = diagnostics or {}
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory parameter must increase strictly")

    def __len__(self):
        return len(self.t)

    @property
    def step_sizes(self) -> np.ndarray:
        return np.diff(self.t)

    def _locate(self, tq: float) -> int:
        t = self.t
        pad = 1e-9 * max(1.0, abs(t[0]), abs(t[-1]))
        if not (t[0] - pad <= tq <= t[-1] + pad):      # nan included
            raise ValueError(
                f"parameter {tq!r} outside trajectory range [{t[0]!r}, {t[-1]!r}]")
        k = int(np.searchsorted(t, tq, side="right")) - 1
        return min(max(k, 0), len(t) - 2)

    def eval(self, tq: float) -> np.ndarray:
        """Cubic Hermite evaluation of the state at parameter tq."""
        k = self._locate(tq)
        t0, t1 = self.t[k], self.t[k + 1]
        h = t1 - t0
        s = (tq - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        return (h00 * self.y[k] + (h10 * h) * self.f[k]
                + h01 * self.y[k + 1] + (h11 * h) * self.f[k + 1])


def _integrate(f: Callable, t0: float, y0: tuple, k0: tuple, t_end: float,
               cfg: IntegratorConfig,
               stop: Optional[Callable] = None,
               on_accept: Optional[Callable] = None):
    """Core stepper; returns (ts, ys, fs, rejected, nfev), the accepted
    samples as arrays of shapes (N,), (N, len(y0)) and (N, len(y0)).

    f(t, y) takes and returns tuples of floats, and k0 is the caller's
    first call f(t0, y0), which nfev counts.  Each attempt is one call of
    the generated step (_dopri5_step); the accepted samples go to flat
    float buffers.  on_accept(t, y, f(t, y)) runs for the initial state
    and for every accepted step, each time right after the call of f at
    exactly that (t, y): the first call, or the FSAL stage, whose input
    is the accepted state.  So on_accept may reuse whatever f computed
    last instead of evaluating it again.
    """
    size = len(y0)
    step = _dopri5_step(size)
    atol, rtol = cfg.atol, cfg.rtol
    t = float(t0)
    y, k1 = y0, k0
    if on_accept is not None:
        on_accept(t, y, k1)
    h = _initial_step(f, t, y, k1, cfg, t_end - t)
    nfev = 2
    ts, ys, fs = array("d", (t,)), array("d", y), array("d", k1)
    rejected = 0
    attempts = 0
    err_prev = 1.0
    just_rejected = False
    bounded = math.isfinite(t_end)
    done = t >= t_end or (stop is not None and stop(t, y))
    while not done:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimitExceededError(
                f"no convergence within {cfg.max_steps} steps (t = {t!r})")
        clipped = False
        if bounded and t + h >= t_end:
            h = t_end - t
            clipped = True
        if h <= 1e-14 * max(1.0, abs(t)):
            raise BlowUpError(f"step size underflow at t = {t!r}")
        out = step(f, t, h, *y, *k1, atol, rtol)
        if type(out) is int:        # not finite: out calls of f were made
            nfev += out
            rejected += 1
            just_rejected = True
            h *= 0.25
            continue
        nfev += 6
        y_new, k_new, err = out
        if err <= 1.0:
            t = t_end if clipped else t + h
            y, k1 = y_new, k_new
            ts.append(t)
            ys.extend(y)
            fs.extend(k1)
            if on_accept is not None:
                on_accept(t, y, k1)
            if max(map(abs, y)) > _BLOWUP_NORM:
                raise BlowUpError(
                    f"state norm exceeded {_BLOWUP_NORM:g} at t = {t!r}")
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if just_rejected:
                factor = min(1.0, factor)
            just_rejected = False
            err_prev = max(err, 1e-10)
            h = h * factor
            if stop is not None and stop(t, y):
                break
            if bounded and t >= t_end:
                break
        else:
            rejected += 1
            just_rejected = True
            factor = _SAFETY * err ** (-_ORDER_EXP)
            h = h * max(_MIN_FACTOR, factor)
    as_array = lambda buf: np.frombuffer(buf, dtype=float)
    return (as_array(ts), as_array(ys).reshape(-1, size),
            as_array(fs).reshape(-1, size), rejected, nfev)


# ---------------------------------------------------------------------
# geodesic pipeline

def _geodesic_ode(metric: BrinkmannMetric, declined: list):
    """(f, latest): the first-order geodesic system on tuples of floats
    and a one-slot list holding the null residual at f's most recent
    call.

    f runs the compiled geodesic function; where it declines, f counts
    the call in `declined` and runs the numpy path (eval_bundle and
    accelerations), which raises or warns as its own.
    """
    system = metric.system
    n = system.n
    m = n + 2
    fn = metric.geodesic_function()
    latest = [0.0]

    def f(sigma, y):
        out = fn(*y)
        if out is not None:
            latest[0] = out[-1]
            return out[:-1]
        declined[0] += 1
        point = Point(y[:n], y[n], y[n + 1])
        b = system.eval_bundle(point)
        v = list(y[m:])
        latest[0] = _null_form(b.h.tolist(), b.A.tolist(), b.V, v)
        acc = metric.accelerations(point, np.array(v), b)
        return (*v, *acc.tolist())

    return f, latest


def integrate_geodesic(metric: BrinkmannMetric, gs0: GeodesicState,
                       sigma_span, config: Optional[IntegratorConfig] = None,
                       stop_at_u: Optional[float] = None) -> Trajectory:
    """Integrate the geodesic flow over sigma_span = (s0, s1).

    s1 may be inf when stop_at_u is given; stepping then ends with the
    first accepted sample whose u reaches stop_at_u.  The null residual
    is recorded at every accepted step but never enforced.
    """
    cfg = config or IntegratorConfig()
    n = metric.system.n
    s0, s1 = float(sigma_span[0]), float(sigma_span[1])
    y0 = tuple(np.concatenate([gs0.point.coords(), gs0.velocity]).tolist())
    declined = [0]
    f, latest = _geodesic_ode(metric, declined)
    k0 = f(s0, y0)
    nulls = array("d")

    def record(t, y, fy):
        # the stepper's last call of f was at this very state
        nulls.append(latest[0])

    stop = None
    if stop_at_u is not None:
        target = float(stop_at_u)
        stop = lambda t, y: y[n] >= target
    ts, ys, fs, rej, nfev = _integrate(f, s0, y0, k0, s1, cfg, stop=stop,
                                       on_accept=record)
    return Trajectory(ts, ys, fs, kind="geodesic", n=n, rejected=rej,
                      diagnostics={"null_residual": np.frombuffer(nulls)},
                      nfev=nfev, declined=declined[0])


class ReducedTrajectory:
    """Reduced samples (x, x', w) against u, with dense evaluation.

    Backed either by a direct reduced integration (parameter is u) or by
    a geodesic trajectory reparametrized through u(sigma); in the latter
    case evaluation root-finds sigma for the requested u with a
    bisection-guarded Newton iteration, to 1e-13 in sigma, and raises
    SigmaInversionError when 100 iterations do not get there.
    """

    _SIGMA_TOL = 1e-13
    _SIGMA_ITERS = 100

    def __init__(self, traj: Trajectory, source: str):
        self.traj = traj
        self.source = source
        self.n = traj.n
        if source == "herglotz":
            self.u = traj.t
        else:
            n = traj.n
            m = n + 2
            udots = traj.y[:, m + n]
            bad = np.nonzero(udots <= 0.0)[0]
            if bad.size:
                raise MonotonicityViolationError(
                    "du/dsigma is not positive", float(traj.t[bad[0]]))
            self.u = traj.y[:, n].copy()
            if not np.all(np.diff(self.u) > 0):
                raise MonotonicityViolationError(
                    "u is not strictly increasing across samples",
                    float(traj.t[0]))

    def __len__(self):
        return len(self.u)

    @property
    def u0(self) -> float:
        return float(self.u[0])

    @property
    def u_end(self) -> float:
        return float(self.u[-1])

    def sample_state(self, k: int) -> ReducedState:
        y = self.traj.y[k]
        n = self.n
        if self.source == "herglotz":
            return ReducedState(y[:n].copy(), y[n:2 * n].copy(),
                                float(self.traj.t[k]), float(y[2 * n]))
        m = n + 2
        ud = y[m + n]
        return ReducedState(y[:n].copy(), y[m:m + n] / ud,
                            float(y[n]), float(y[n + 1]))

    def sigma_at(self, u_target: float) -> float:
        """Invert u(sigma) on the geodesic samples (geodesic source only)."""
        if self.source != "geodesic":
            raise ValueError("sigma_at applies to geodesic-backed trajectories")
        traj = self.traj
        n = self.n
        m = n + 2
        u = self.u
        pad = 1e-9 * max(1.0, abs(u[0]), abs(u[-1]))
        if not (u[0] - pad <= u_target <= u[-1] + pad):      # nan included
            raise ValueError(
                f"u = {u_target!r} outside covered range [{u[0]!r}, {u[-1]!r}]")
        k = int(np.searchsorted(u, u_target, side="right")) - 1
        k = min(max(k, 0), len(u) - 2)
        lo, hi = traj.t[k], traj.t[k + 1]
        # linear seed inside the bracket
        du = u[k + 1] - u[k]
        s = lo + (hi - lo) * ((u_target - u[k]) / du if du > 0 else 0.5)
        for _ in range(self._SIGMA_ITERS):
            y = traj.eval(s)
            fval = y[n] - u_target
            if fval > 0:
                hi = min(hi, s)
            elif fval < 0:
                lo = max(lo, s)
            else:
                return float(s)
            udot = y[m + n]
            step = fval / udot if udot > 0 else None
            s_new = s - step if step is not None else 0.5 * (lo + hi)
            if not (lo <= s_new <= hi):
                s_new = 0.5 * (lo + hi)
            if abs(s_new - s) <= self._SIGMA_TOL:
                return float(s_new)
            s = s_new
        raise SigmaInversionError(
            f"sigma for u = {u_target!r} not found to {self._SIGMA_TOL:g} in "
            f"{self._SIGMA_ITERS} iterations (last sigma = {s!r})")

    def state_at(self, u_target: float) -> ReducedState:
        n = self.n
        if self.source == "herglotz":
            y = self.traj.eval(u_target)
            return ReducedState(y[:n], y[n:2 * n], float(u_target),
                                float(y[2 * n]))
        m = n + 2
        s = self.sigma_at(u_target)
        y = self.traj.eval(s)
        ud = y[m + n]
        if ud <= 0.0:
            raise MonotonicityViolationError("du/dsigma is not positive", s)
        return ReducedState(y[:n], y[m:m + n] / ud, float(u_target),
                            float(y[n + 1]))

    def x_at(self, u_target: float) -> np.ndarray:
        return self.state_at(u_target).x


def reduce_trajectory(traj: Trajectory) -> ReducedTrajectory:
    """Reparametrize a geodesic trajectory by u.

    Requires du/dsigma > 0 at every accepted sample; violation raises
    MonotonicityViolationError carrying the first offending sigma.
    """
    if traj.kind != "geodesic":
        raise ValueError("reduce_trajectory expects a geodesic trajectory")
    return ReducedTrajectory(traj, source="geodesic")


# ---------------------------------------------------------------------
# reduced pipeline

def herglotz_rhs(system: HerglotzSystem, rs: ReducedState,
                 declined: Optional[list] = None):
    """(x'', dw/du) of the reduced dynamics at a reduced state.

    x'' solves  h_kj x''^j = -( G_k + d_k V + F_ik x'^i
        + d_u(h_ik x'^i + A_k) + d_w(h_ik x'^i + A_k) L
        - (h_ik x'^i + A_k) d_w L )
    with G_k the kinetic quadratic term built from x-partials of h,
    F_ik = d_i A_k - d_k A_i, and L the reduced Lagrangian; dw/du = L.
    Everything comes from first derivatives of (h, A, V) at the point.

    The system's compiled reduced function evaluates the formula; where
    it declines, the numpy path (_herglotz_rhs_numpy) runs instead and
    raises or warns as its own, and the call is counted in `declined`,
    a one-slot list, when given.
    """
    n = system.n
    out = reduced_function(system)(float(rs.u), *rs.x.tolist(),
                                   *rs.xp.tolist(), float(rs.w))
    if out is not None:
        return np.array(out[n:2 * n]), out[2 * n]
    if declined is not None:
        declined[0] += 1
    return _herglotz_rhs_numpy(system, rs)


def reduced_function(system: HerglotzSystem):
    """The compiled reduced right-hand side of z = (x, x', w):
    f(u, z_0, ..., z_2n) returns (zdot_0, ..., zdot_2n) = (x', x'', L),
    herglotz_rhs's formula, or None where the field pass or the kinetic
    solve declines or an output is not finite.  Built on first use and
    cached with the system's field passes."""
    return system.pipeline("reduced", _reduced_tail)


def _herglotz_rhs_numpy(system: HerglotzSystem, rs: ReducedState):
    """herglotz_rhs by numpy from eval_bundle: the error path and oracle."""
    n = system.n
    b = system.eval_bundle(rs.point())
    xp = rs.xp
    lag, dL = b.lagrangian(xp)
    dwL = dL[n + 1]
    dh_x = b.dh[:n]
    t1 = np.einsum("ikj,i,j->k", dh_x, xp, xp)
    t2 = np.einsum("kij,i,j->k", dh_x, xp, xp)
    gterm = t1 - 0.5 * t2
    dA_x = b.dA[:n]
    fterm = xp @ dA_x - dA_x @ xp
    du_vec = b.dh[n] @ xp + b.dA[n]
    dw_vec = b.dh[n + 1] @ xp + b.dA[n + 1]
    p = b.h @ xp + b.A
    rhs = -(gterm + b.dV[:n] + fterm + du_vec + dw_vec * lag - p * dwL)
    xpp = solve_kinetic(b.h, rhs, system.name)
    return xpp, lag


def _reduced_tail(em, nodes):
    """herglotz_rhs's formula as a pipeline tail (expr.compile_forward):
    (u, x1..xn, x'1..x'n, w) -> (x', x'', L)."""
    m = em.m
    n = m - 2
    w = n + 1
    xp = [f"_p{i}" for i in range(n)]
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    # D[c][k] = d_c h_kj x'^j
    D = [[em.dot(dh[c][k], xp) for k in range(n)] for c in range(m)]
    hx = [em.dot(row, xp) for row in h]
    lag = em.sub(em.add(em.mul(0.5, em.dot(hx, xp)), em.dot(A, xp)), V)
    dwL = em.sub(em.add(em.mul(0.5, em.dot(D[w], xp)), em.dot(dA[w], xp)), dV[w])
    rhs = []
    for k in range(n):
        gterm = em.sub(em.dot(xp, [D[i][k] for i in range(n)]),
                       em.mul(0.5, em.dot(xp, D[k])))
        fterm = em.sub(em.dot(xp, [dA[i][k] for i in range(n)]),
                       em.dot(dA[k], xp))
        du_vec = em.add(D[n][k], dA[n][k])
        dw_vec = em.add(D[w][k], dA[w][k])
        p = em.add(hx[k], A[k])
        inner = em.total([gterm, dV[k], fterm, du_vec, em.mul(dw_vec, lag)])
        rhs.append(em.sub(None, em.sub(inner, em.mul(p, dwL))))
    (xpp,) = emit_kinetic_solve(em, h, [rhs])
    return ["u", *em.coords[:n], *xp, "w"], xp + xpp + [lag]


def integrate_herglotz(system: HerglotzSystem, rs0: ReducedState, u_span,
                       config: Optional[IntegratorConfig] = None
                       ) -> ReducedTrajectory:
    """Integrate the reduced dynamics over u_span = (u0, u1).

    The state is (x, x', w) with dw/du = L.  The initial derivative
    comes from herglotz_rhs, every later one from the compiled reduced
    function, or where it declines from the numpy path.
    """
    cfg = config or IntegratorConfig()
    n = system.n
    declined = [0]
    fn = reduced_function(system)

    def f(u, z):
        out = fn(u, *z)
        if out is not None:
            return out
        declined[0] += 1
        xpp, lag = _herglotz_rhs_numpy(
            system, ReducedState(z[:n], z[n:2 * n], u, z[2 * n]))
        return (*z[n:2 * n], *xpp.tolist(), lag)

    u0 = float(u_span[0])
    xp0 = rs0.xp.tolist()
    z0 = (*rs0.x.tolist(), *xp0, float(rs0.w))
    xpp0, lag0 = herglotz_rhs(system, ReducedState(rs0.x, rs0.xp, u0, rs0.w),
                              declined)
    k0 = (*xp0, *xpp0.tolist(), float(lag0))
    ts, ys, fs, rej, nfev = _integrate(f, u0, z0, k0, float(u_span[1]), cfg)
    traj = Trajectory(ts, ys, fs, kind="reduced", n=n, rejected=rej,
                      nfev=nfev, declined=declined[0])
    return ReducedTrajectory(traj, source="herglotz")


# ---------------------------------------------------------------------
# consistency residuals along geodesic trajectories

def _geodesic_samples(metric: BrinkmannMetric, traj: Trajectory):
    """(velocity, bundle, accelerations) at each accepted sample of a
    geodesic trajectory; ZeroUdotError where du/dsigma vanishes."""
    n = traj.n
    m = n + 2
    for k in range(len(traj)):
        y = traj.y[k]
        v = y[m:]
        if v[n] == 0.0:
            raise ZeroUdotError(f"du/dsigma vanished at sigma = {traj.t[k]!r}")
        point = Point(y[:n], y[n], y[n + 1])
        b = metric.system.eval_bundle(point)
        yield v, b, metric.accelerations(point, v, b)


def u_equation_residual(metric: BrinkmannMetric, traj: Trajectory) -> float:
    """max_k | uddot / udot^2 + d_w L | over the accepted samples.

    uddot comes from the Christoffel route, d_w L from direct field
    derivatives at the reduced velocities; agreement certifies that the
    u-geodesic equation is the w-slope equation of the reduced system.
    """
    n = metric.system.n
    worst = 0.0
    for v, b, acc in _geodesic_samples(metric, traj):
        ud = v[n]
        _, dL = b.lagrangian(v[:n] / ud)
        worst = max(worst, abs(acc[n] / (ud * ud) + dL[n + 1]))
    return worst


def w_equation_residual(metric: BrinkmannMetric, traj: Trajectory) -> float:
    """max_k | d/dsigma(udot L) - wddot | over the accepted samples.

    wddot is the w-acceleration demanded by the geodesic equations; the
    other term is the w-acceleration implied by differentiating the null
    relation wdot = udot L along the flow.  On the null cone the two
    agree identically, so the w-equation never needs to be imposed; off
    the cone the gap is |2 L_residual / udot| * |uddot / udot^2| scaled,
    which is what the negative control exercises.
    """
    n = metric.system.n
    worst = 0.0
    for v, b, acc in _geodesic_samples(metric, traj):
        xd, ud, wd = v[:n], v[n], v[n + 1]
        xp = xd / ud
        lag, dL = b.lagrangian(xp)
        p_vel = b.h @ xp + b.A
        dxp = acc[:n] / ud - xd * (acc[n] / (ud * ud))
        dL_dsigma = float(dL[:n] @ xd + dL[n] * ud + dL[n + 1] * wd
                          + p_vel @ dxp)
        wddot_null = acc[n] * lag + ud * dL_dsigma
        worst = max(worst, abs(wddot_null - acc[n + 1]))
    return worst


def homogeneity_residual(system: HerglotzSystem, rs: ReducedState,
                         udot: float) -> float:
    """Euler degree-1 defect of Ltilde = (1/2) h xd xd / ud + A xd - V ud.

    The velocity partials are closed forms, dLtilde/dxd = h xd / ud + A
    and dLtilde/dud = -(1/2) h xd xd / ud^2 - V; the residual
    |xd . dLtilde/dxd + ud dLtilde/dud - Ltilde| vanishes for any
    first-degree homogeneous function.
    """
    if udot == 0.0:
        raise ZeroUdotError("homogeneity check needs a nonzero udot")
    h, A, V = system.eval_values(rs.point())
    xd = rs.xp * udot
    for v in (*xd.tolist(), float(udot)):
        if not math.isfinite(v):
            raise NonFiniteError(f"homogeneity check needs finite velocities, "
                                 f"got {v!r}")
    hx = h @ xd
    quad = float(xd @ hx)
    lt = 0.5 * quad / udot + float(A @ xd) - V * udot
    d_xd = hx / udot + A
    d_ud = -0.5 * quad / (udot * udot) - V
    euler = float(xd @ d_xd) + udot * d_ud
    return abs(euler - lt)
