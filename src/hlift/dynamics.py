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

The stepper is DOP853, Dormand and Prince's 8th order pair with Hairer's
5th/3rd order error estimate, PI step-size control, FSAL reuse and its
7th order dense output.  It is deliberately hand-rolled: every accepted
step records the diagnostics the equivalence checks need, and reruns are
bit-for-bit deterministic.  A whole integration is one generated
function per pipeline shape (_stepper): stages, error norm, PI control
and sample buffers are float locals of one loop, which calls the
compiled right-hand side directly and trusts its contract, finite
outputs or None where an input or output is not finite: a call declined
at a non-finite stage input rejects the attempt, any other ends the
integration with its error (FieldPasses.explain, the loop's callback).
The loop keeps per accepted step the stage derivatives the dense output
reads; a step's 3 dense stages and 7 polynomial rows are made on its
first query (_dense_rows, Trajectory._step), so most steps, which no
query reads, never pay for them, and a dense stage's error or warning
comes with that query.  An array-form oracle of the same stepper
reproduces its samples and dense rows bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BlowUpError, MonotonicityViolationError, NonFiniteError,
                     NonPositiveUdotError, SigmaInversionError,
                     StepLimitExceededError, ZeroUdotError)
from .expr import _finite_check, define_function
from .geometry import (BrinkmannMetric, HerglotzSystem, Point, _dot, _mv,
                       emit_kinetic_solve, solve_kinetic, tail_bundle,
                       tail_lagrangian)

__all__ = [
    "GeodesicState", "ReducedState", "IntegratorConfig", "Trajectory",
    "ReducedTrajectory", "reduced_lagrangian", "lagrangian_w_slope",
    "lift_state", "null_residual", "integrate_geodesic",
    "reduce_trajectory", "herglotz_rhs", "reduced_function",
    "integrate_herglotz", "u_equation_residual", "w_equation_residual",
    "homogeneity_residual",
]

_BLOWUP_NORM = 1e12
# samples per numpy pass of the u- and w-equation residuals: a block pays
# the pass's fixed cost of some fifty numpy calls once, and bounds its
# arrays (dg, its symmetrized sum and Gamma hold m^3 floats a sample each)
_RESIDUAL_BLOCK = 128


@dataclass
class GeodesicState:
    """Point plus velocity of the lifted space."""

    point: Point
    velocity: np.ndarray

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget of an integration.  rtol and atol are
    finite, not negative and not both zero, and max_steps is an int (not
    a bool) of at least 1; other values raise ValueError."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rtol", "atol"):
            tol = getattr(self, name)
            if not math.isfinite(tol):
                raise ValueError(f"{name} must be a finite number, got {tol!r}")
            if tol < 0.0:
                raise ValueError(f"{name} must not be negative, got {tol!r}")
        if self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError("rtol and atol must not both be zero")
        if type(self.max_steps) is not int:        # a bool is no step count
            raise ValueError(f"max_steps must be an integer, got "
                             f"{self.max_steps!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got "
                             f"{self.max_steps!r}")


# ---------------------------------------------------------------------
# scalar functionals of states

def reduced_lagrangian(system: HerglotzSystem, rs: ReducedState) -> float:
    """L = (1/2) h_ij x'^i x'^j + A_i x'^i - V at the reduced state."""
    h, A, V = system.eval_values(rs.point())
    return float(0.5 * rs.xp @ h @ rs.xp + A @ rs.xp - V)


def lagrangian_w_slope(system: HerglotzSystem, rs: ReducedState) -> float:
    """d L / d w = (1/2) x'.d_w h.x' + d_w A.x' - d_w V at the reduced
    state (the nonconservation rate).

    The system's compiled w-slope function, a tail over its derivative
    pass, evaluates it; where that declines, FieldPasses.explain raises
    the state's error: NonFiniteError for a velocity that is not finite.
    """
    return w_slope_at(system, rs.x.tolist(), float(rs.u), float(rs.w),
                      rs.xp.tolist())


def w_slope_at(system: HerglotzSystem, x: list, u: float, w: float,
               xp: list) -> float:
    """lagrangian_w_slope at the state (x, x', u, w) given as floats."""
    args = (*x, u, w, *xp)
    return system._passes.call("w-slope", _w_slope_tail, args,
                               _w_slope_steps, system, x, u, w, xp)[0]


def _w_slope_steps(system: HerglotzSystem, x: list, u: float, w: float,
                   xp: list) -> None:
    """The w-slope's steps that can be at fault: the derivative pass at
    the point, then its own check of the velocities."""
    system.eval_bundle(Point(x, u, w))
    require_finite_velocities("w-slope", xp)


def _w_slope_tail(em, nodes):
    """lagrangian_w_slope's formula as a pipeline tail over the derivative
    pass (expr.compile_forward): (x1..xn, u, w, x'1..x'n) -> dL/dw, the
    Lagrangian of the w-partials of (h, A, V) (geometry.tail_lagrangian).
    The pass checks only the coordinates, so the tail checks the
    velocities finite itself."""
    n = em.m - 2
    xp = [f"_p{i}" for i in range(n)]
    _, dh, _, dA, _, dV = tail_bundle(nodes, n)
    em.guard_finite(xp)
    return ([*em.coords, *xp],
            [tail_lagrangian(em, dh[n + 1], dA[n + 1], dV[n + 1], xp)])


def require_finite_velocities(what: str, velocities) -> None:
    """NonFiniteError naming the first of `velocities` that is not
    finite: `what` needs finite velocities."""
    for v in velocities:
        if not math.isfinite(v):
            raise NonFiniteError(f"{what} needs finite velocities, got {v!r}")


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
    return GeodesicState(rs.point(), vel)


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


# ---------------------------------------------------------------------
# DOP853: the 8(5,3) Runge-Kutta pair with its 7th order dense output

# Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6, with the
# coefficients of Hairer's dop853.f.  _C[i] is the node of stage i + 1 and
# _A[i] its row of the Runge-Kutta matrix, as {column: entry}.  Stages
# 1..12 make an attempt; stage 13 evaluates the new state, whose row _A[12]
# holds the 8th order weights, and is the next step's first stage (FSAL);
# stages 14..16 feed the dense output alone.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)
# the error estimate: the 5th order one, _E5, corrected by the 3rd order
# one, _E3 (the 8th order weights less an embedded 3rd order formula)
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_E3 = {**_A[12], 0: _A[12][0] - 0.2440944881889764,
       8: _A[12][8] - 0.7338466882816118,
       11: _A[12][11] - 0.022058823529411766}
# the dense polynomial's rows 3..6 as combinations of the 16 stages
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)
# the step-size controller: Hairer's PI control on the 7th order error
# estimate, h *= safety * err^-alpha * err_prev^beta within [0.2, 5].
# Safety and growth bound are the pair with the smallest worst null drift
# among those swept on the 512 coupled starts of pair-batch seeds 0-7:
# 1.1e-9 at 914 calls per geodesic (0.9 and 10, SciPy's, read 6.1e-9).
_ORDER_EXP = 1.0 / 8.0
_PI_BETA = 0.04
_PI_ALPHA = _ORDER_EXP - 0.2 * _PI_BETA
_SAFETY = 0.8
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _k(i, size: int) -> list:
    """The locals k{i}_j of stage i's derivative."""
    return [f"k{i}_{j}" for j in range(size)]


def _combo(row: dict, j: int) -> str:
    """sum_c row[c] k{c + 1}_j over a tableau row, term by term from the
    left."""
    return " + ".join(f"{a!r} * k{c + 1}_{j}" for c, a in row.items())


def _call(takes_t: bool, tc: str, state: list, out: list, declined=(),
          via=("fn", "explain")):
    """The call at ([tc,] state) of the function named by via[0],
    unpacked into the locals `out`; a call it declines runs the lines
    `declined`, then its explain, via[1], which raises."""
    fn, explain = via
    tc = f"{tc}, " if takes_t else ""
    args = ", ".join(state)
    return [f"_o = {fn}({tc}{args})",
            "if _o is None:",
            *[f"    {line}" for line in declined],
            f"    {explain}({tc}({args},))",
            f"{', '.join(out)}, = _o"]


def _stage(i: int, size: int, takes_t: bool, action: str, out: list,
           via=("fn", "explain")) -> list:
    """Stage i from the state y_j at t, the step h and the earlier stages:
    its input s{i}_j and its call (_call, `via`) into `out`.  The function
    declines a non-finite input, so a declined call runs `action` where
    its input is not finite and goes to explain where it is."""
    s = [f"s{i}_{j}" for j in range(size)]
    c = _C[i - 1]
    tc = "t + h" if c == 1.0 else f"t + {c!r} * h"
    return ([f"{s[j]} = y_{j} + h * ({_combo(_A[i - 1], j)})"
             for j in range(size)]
            + _call(takes_t, tc, s, out, _finite_check(s, action), via))


# the stages besides 14..16 that the dense stages and rows read: what the
# loop keeps per accepted step for _dense_rows (k1 and k6..k13)
_KEPT = sorted({1, 13} | {c + 1 for row in (*_A[13:], *_D) for c in row
                          if c < 13})


@functools.cache
def _stepper(size: int, takes_t: bool, n_aux: int, stop: Optional[int]):
    """The whole adaptive integration of one pipeline shape, as one
    function generated on first use:

        loop(fn, explain, t, t_end, y, k, cfg, ts, ys, ds,
             [fa, explain_a, xs_0..], [target])

    y is the initial state, a tuple of `size` floats, and k its derivative.
    fn is the compiled right-hand side: fn([t,] y_0, ...) returns the
    derivative, all finite, or None where it declines, as it does at any
    non-finite input; explain([t,] y) raises the error of a declined
    call.  With `n_aux` auxiliary outputs, fa is the same right-hand side
    followed by them, and explain_a explains its declined calls.  The
    loop makes the initial-step probe and then DOP853 attempts until t
    reaches t_end (or, with a `stop` index, y[stop] reaches `target`).
    An attempt makes 12 calls (11 stages and the FSAL stage at the new
    state).  Each accepted step appends its sample to the buffers ts and
    ys, to ds its size h and the stage derivatives its dense output reads
    (_KEPT, `size` floats each; _dense_rows makes the 3 dense stages and
    the rows on demand), and to xs_a the auxiliary outputs of its FSAL
    stage, the one call by fa, whose input is the accepted state; the
    caller has appended the initial sample.  The functions' contract is
    the only finite check of a stage: an attempt is rejected and its step
    quartered where a call declines a non-finite stage input (nfev counts
    that call) or the error norm is not finite; any other declined call
    ends the integration.  Returns (rejected, nfev), nfev including the
    caller's call at the initial state.
    """
    J = range(size)
    y = [f"y_{j}" for j in J]
    k = functools.partial(_k, size=size)

    def rms(terms):
        return f"_sqrt(({' + '.join(terms)}) / {size})"

    def reject(calls: int) -> str:
        return (f"{f'nfev += {calls}; ' if calls else ''}rejected += 1; "
                "just_rejected = True; h *= 0.25; continue")

    sq = lambda a: f"({a}) * ({a})"
    aux = [f"_x{a}" for a in range(n_aux)]
    body = [f"{', '.join(y)}, = y", f"{', '.join(k(1))}, = k",
            "atol, rtol, max_steps = cfg.atol, cfg.rtol, cfg.max_steps",
            "_ta, _ye, _de = ts.append, ys.extend, ds.extend",
            *[f"_xa{a} = xs_{a}.append" for a in range(n_aux)]]
    # the initial step, a cheap two-evaluation guess; _a_j = |y_j| is kept
    # from the error norm of the step that accepted y
    body += [f"_a{j} = abs(y_{j}); _c{j} = atol + rtol * _a{j}" for j in J]
    body += [f"d0 = {rms([sq(f'y_{j} / _c{j}') for j in J])}",
             f"d1 = {rms([sq(f'k1_{j} / _c{j}') for j in J])}",
             "h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1"]
    body += _call(takes_t, "t + h0", [f"y_{j} + h0 * k1_{j}" for j in J],
                  k("p"))
    body += [f"d2 = {rms([sq(f'(kp_{j} - k1_{j}) / _c{j}') for j in J])} / h0",
             "if d1 <= 1e-15 and d2 <= 1e-15:",
             "    h1 = max(1e-6, h0 * 1e-3)",
             "else:",
             f"    h1 = (0.01 / max(d1, d2)) ** {_ORDER_EXP!r}",
             "h = min(100 * h0, h1)",
             "if _isfinite(t_end - t):",
             "    h = min(h, t_end - t)",
             "nfev = 2",
             "rejected = attempts = 0",
             "err_prev = 1.0",
             "just_rejected = False",
             "bounded = _isfinite(t_end)"]
    stopped = f" or y_{stop} >= target" if stop is not None else ""
    body += [f"if t >= t_end{stopped}:",
             "    return rejected, nfev"]
    loop = ["attempts += 1",
            "if attempts > max_steps:",
            "    raise _StepLimit(f'no convergence within {max_steps} steps "
            "(t = {t!r})')",
            "clipped = False",
            "if bounded and t + h >= t_end:",
            "    h = t_end - t",
            "    clipped = True",
            "_at = abs(t)",
            "if h <= 1e-14 * (_at if _at > 1.0 else 1.0):",
            "    raise _BlowUp(f'step size underflow at t = {t!r}')"]
    for i in range(2, 13):
        loop += _stage(i, size, takes_t, reject(i - 1), k(i))
    # the FSAL stage, whose input the attempt accepts, with the aux outputs
    loop += _stage(13, size, takes_t, reject(12), k(13) + aux,
                   ("fa", "explain_a") if n_aux else ("fn", "explain"))
    # Hairer's norm of the 5th order estimate corrected by the 3rd order one
    for j in J:
        loop += [f"_b{j} = abs(s13_{j})",
                 f"_w{j} = atol + rtol * (_a{j} if _a{j} > _b{j} else _b{j})",
                 f"e{j} = ({_combo(_E5, j)}) / _w{j}",
                 f"g{j} = ({_combo(_E3, j)}) / _w{j}"]
    loop += [f"_e5 = {' + '.join(f'e{j} * e{j}' for j in J)}",
             f"_dn = _e5 + 0.01 * ({' + '.join(f'g{j} * g{j}' for j in J)})",
             f"err = h * _e5 / _sqrt({size} * (_dn if _dn > 0.0 else 1.0))",
             f"if err - err != 0.0: {reject(12)}",
             "nfev += 12",
             "if err > 1.0:",
             "    rejected += 1",
             "    just_rejected = True",
             f"    h = h * max({_MIN_FACTOR!r}, {_SAFETY!r} * err ** "
             f"{-_ORDER_EXP!r})",
             "    continue"]
    # accepted: what the dense output reads, then the new sample
    kept = ", ".join(v for i in _KEPT for v in k(i))
    loop += [f"_de((h, {kept},))",
             "t = t_end if clipped else t + h",
             f"{', '.join(y)}, = {', '.join(f's13_{j}' for j in J)},",
             f"{', '.join(k(1))}, = {', '.join(k(13))},",
             f"{', '.join(f'_a{j}' for j in J)}, = "
             f"{', '.join(f'_b{j}' for j in J)},",
             "_ta(t)",
             f"_ye(({', '.join(y)},))",
             *[f"_xa{a}(_x{a})" for a in range(n_aux)],
             f"if {' or '.join(f'_b{j} > {_BLOWUP_NORM!r}' for j in J)}:",
             f"    raise _BlowUp(f'state norm exceeded {_BLOWUP_NORM:g} "
             "at t = {t!r}')",
             "if err == 0.0:",
             f"    factor = {_MAX_FACTOR!r}",
             "else:",
             f"    factor = min({_MAX_FACTOR!r}, {_SAFETY!r} * err ** "
             f"{-_PI_ALPHA!r} * err_prev ** {_PI_BETA!r})",
             "if just_rejected:",
             "    factor = min(1.0, factor)",
             "just_rejected = False",
             "err_prev = max(err, 1e-4)",
             "h = h * factor",
             f"if bounded and t >= t_end{stopped}:",
             "    break"]
    body += ["while True:"] + [f"    {line}" for line in loop]
    body.append("return rejected, nfev")
    params = (["fn", "explain", "t", "t_end", "y", "k", "cfg", "ts", "ys", "ds"]
              + (["fa", "explain_a"] if n_aux else [])
              + [f"xs_{a}" for a in range(n_aux)]
              + (["target"] if stop is not None else []))
    return define_function(
        "_loop", params, body,
        f"dop853 {size}{' t' if takes_t else ''} aux{n_aux} stop{stop}",
        {"_sqrt": math.sqrt, "_isfinite": math.isfinite,
         "_BlowUp": BlowUpError, "_StepLimit": StepLimitExceededError})


@functools.cache
def _dense_rows(size: int, takes_t: bool):
    """The rows of one accepted step's dense polynomial, as one function
    generated on first use:

        rows(fn, explain, t, h, y0, y1, ks)

    t and h are the step's start and size, y0 and y1 its end states and
    ks the stage derivatives the loop kept for it (_KEPT, `size` floats
    each).  It makes the 3 dense stages 14..16 through the loop's fn
    (the right-hand side without auxiliary outputs) and explain, as the
    loop calls them, and returns the 7 rows (r0, ..., r6), tuples of
    `size` floats; None where fn declines a dense stage's input as not
    finite.
    """
    J = range(size)
    body = [f"{', '.join(f'y_{j}' for j in J)}, = y0",
            f"{', '.join(f's13_{j}' for j in J)}, = y1",
            f"{', '.join(v for i in _KEPT for v in _k(i, size))}, = ks"]
    for i in range(14, 17):
        body += _stage(i, size, takes_t, "return None", _k(i, size))
    for j in J:
        body += [f"r0_{j} = s13_{j} - y_{j}",
                 f"r1_{j} = h * k1_{j} - r0_{j}",
                 f"r2_{j} = 2.0 * r0_{j} - h * (k13_{j} + k1_{j})",
                 *[f"r{3 + r}_{j} = h * ({_combo(row, j)})"
                   for r, row in enumerate(_D)]]
    body.append("return " + " ".join(
        f"({', '.join(f'r{r}_{j}' for j in J)},)," for r in range(7)))
    return define_function(
        "_rows", ["fn", "explain", "t", "h", "y0", "y1", "ks"], body,
        f"dop853 rows {size}{' t' if takes_t else ''}", {})


class Trajectory:
    """Accepted samples of one adaptive integration.

    Stores parameter values and states per accepted sample, and per step
    what its dense output reads (`steps`, flat: the step size and the
    stage derivatives the loop kept, _stepper).  Evaluation between
    samples uses DOP853's 7th order dense polynomial of the containing
    step (_dense), which returns the step's first sample exactly.  A
    step's 7 rows are built and kept on its first query (_step), by 3
    calls of the right-hand side `fn` (_dense_rows); `dense`, shape
    (steps, 7, size), builds every step.  The query raises NonFiniteError
    naming the pipeline (`label`) and the step where a dense stage is not
    finite, and the error of `explain` where fn declines a call.

    Counters: `rejected` steps and `nfev` right-hand side calls, the
    integration's (the initial-step probe included) and 3 per step built.

    `memo` keeps what several checks read off the trajectory, such as
    the u- and w-equation residuals and a charge series, for the
    trajectory's life.
    """

    def __init__(self, t, y, steps, kind: str, n: int, rejected: int,
                 diagnostics: Optional[dict] = None, nfev: int = 0,
                 fn=None, explain=None, label: str = ""):
        self.t = np.asarray(t)
        self._t = self.t.tolist()       # the grid _bracket bisects
        self.y = np.asarray(y)
        self.kind = kind
        self.n = n
        self.rejected = rejected
        self.nfev = nfev
        self.diagnostics = diagnostics or {}
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory parameter must increase strictly")
        self._steps = steps
        self._built = [None] * (len(self._t) - 1)
        self._fn, self._explain, self._label = fn, explain, label
        self._memo = {}

    def __len__(self):
        return len(self.t)

    @property
    def step_sizes(self) -> np.ndarray:
        return np.diff(self.t)

    def _locate(self, tq: float) -> int:
        return _bracket(self._t, tq, "parameter {!r} outside trajectory")

    def eval(self, tq: float) -> np.ndarray:
        """Dense evaluation of the state at parameter tq."""
        step = self._step(self._locate(tq))
        return np.array(self._dense(step, tq, range(self.y.shape[1])))

    def _step(self, k: int) -> tuple:
        """Step k, [t[k], t[k + 1]], as floats: (t0, t1, y0, rows), its
        ends, the state at t0 and its dense polynomial's rows, built on
        the step's first query."""
        step = self._built[k]
        if step is None:
            size = self.y.shape[1]
            width = len(_KEPT) * size
            at = k * (1 + width)
            t0 = self._t[k]
            y0, y1 = self.y[k:k + 2].tolist()
            # the reduced right-hand side takes the parameter u
            rows = _dense_rows(size, self.kind == "reduced")(
                self._fn, self._explain, t0, self._steps[at], y0, y1,
                self._steps[at + 1:at + 1 + width])
            if rows is None:
                raise NonFiniteError(f"{self._label}: the dense output of "
                                     f"the step at {t0!r} is not finite")
            self.nfev += 3
            step = self._built[k] = (t0, self._t[k + 1], y0, rows)
        return step

    def memo(self, key, make):
        """make() on the first request for `key`, kept unless it raises."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The rows of every step's dense polynomial, shape (steps, 7,
        size); builds the steps no query has built."""
        return np.array([self._step(k)[3] for k in range(len(self._built))],
                        dtype=float).reshape(len(self._built), 7,
                                              self.y.shape[1])

    @staticmethod
    def _dense(step: tuple, tq: float, cols) -> list:
        """The state entries `cols` at parameter tq by the dense
        polynomial of a step (_step), as floats: with x = (tq - t0) / h,
        y0 + x (r0 + (1 - x) (r1 + x (r2 + (1 - x) (r3 + ...)))), Horner
        from the last row."""
        t0, t1, y0, (r0, r1, r2, r3, r4, r5, r6) = step
        x = (float(tq) - t0) / (t1 - t0)
        x1 = 1.0 - x
        return [((((((r6[c] * x + r5[c]) * x1 + r4[c]) * x + r3[c]) * x1
                   + r2[c]) * x + r1[c]) * x1 + r0[c]) * x + y0[c]
                for c in cols]


def _bracket(grid: list, q: float, outside: str) -> int:
    """The step k of a strictly increasing sample grid of floats,
    [grid[k], grid[k + 1]], that holds q, the first or last step for a q
    past an end by at most 1e-9 (relative); further out, or nan, a
    ValueError whose message begins with `outside` formatted with q."""
    # on a list, not the ndarray: each probe of an ndarray builds a
    # numpy scalar
    k = bisect.bisect_right(grid, q) - 1
    if 0 <= k < len(grid) - 1:      # grid[0] <= q < grid[-1]
        return k
    first, last = grid[0], grid[-1]
    pad = 1e-9 * max(1.0, abs(first), abs(last))
    if not (first - pad <= q <= last + pad):      # nan included
        raise ValueError(f"{outside.format(q)} range [{first!r}, {last!r}]")
    return min(max(k, 0), len(grid) - 2)


def _samples(ts: array, ys: array) -> tuple:
    """An integration's flat sample buffers as arrays (t, y)."""
    t = np.frombuffer(ts)
    return t, np.frombuffer(ys).reshape(len(t), -1)


# ---------------------------------------------------------------------
# geodesic pipeline

def _rhs_steps(system: HerglotzSystem, x, u: float, w: float) -> None:
    """The steps of a right-hand side (geodesic or reduced) that can be
    at fault: the field pass at (x, u, w), then the solve with h."""
    solve_kinetic(system.eval_bundle(Point(x, u, w)).h, None, system.name)


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
    passes = metric.system._passes

    def explainer(kind):
        return lambda y: passes.explain(kind, y, _rhs_steps, metric.system,
                                        y[:n], y[n], y[n + 1])

    # the null residual only at accepted states: the first and each FSAL
    # stage's; every other call runs the right-hand side without it
    fa, explain_a = metric.geodesic_function(), explainer("geodesic")
    fn = metric.geodesic_function(null=False)
    explain = explainer("geodesic-flow")
    out = fa(*y0)
    if out is None:
        explain_a(y0)
    ts, ys, ds = array("d", (s0,)), array("d", y0), array("d")
    nulls = array("d", out[-1:])
    target = math.inf if stop_at_u is None else float(stop_at_u)
    rej, nfev = _stepper(len(y0), False, 1, n)(
        fn, explain, s0, s1, y0, out[:-1], cfg, ts, ys, ds, fa, explain_a,
        nulls, target)
    return Trajectory(*_samples(ts, ys), ds, kind="geodesic", n=n,
                      rejected=rej, nfev=nfev,
                      diagnostics={"null_residual": np.frombuffer(nulls)},
                      fn=fn, explain=explain,
                      label=passes.label("geodesic-flow"))


class ReducedTrajectory:
    """Reduced samples (x, x', w) against u, with dense evaluation.

    A view of a trajectory of either pipeline, read from its kind: a
    reduced integration (parameter is u) or a geodesic trajectory
    reparametrized through u(sigma).  In the latter case evaluation
    root-finds sigma for the requested u with a bisection-guarded Newton
    iteration, to 1e-13 in sigma, and raises SigmaInversionError when 100
    iterations do not get there.
    """

    _SIGMA_TOL = 1e-13
    _SIGMA_ITERS = 100

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.n = n = traj.n
        if traj.kind == "reduced":
            self.u, self._u = traj.t, traj._t
        elif traj.kind == "geodesic":
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
            self._u = self.u.tolist()
            # the state entries the dense output reads: u and udot for
            # sigma_at; x, xdot, udot and w for _state
            self._cols = (n, m + n), (*range(n), *range(m, m + n + 1), n + 1)
        else:
            raise ValueError(f"unknown trajectory kind {traj.kind!r}")

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
        if self.traj.kind == "reduced":
            return ReducedState(y[:n].copy(), y[n:2 * n].copy(),
                                float(self.traj.t[k]), float(y[2 * n]))
        m = n + 2
        ud = y[m + n]
        return ReducedState(y[:n].copy(), y[m:m + n] / ud,
                            float(y[n]), float(y[n + 1]))

    def sigma_at(self, u_target: float) -> float:
        """Invert u(sigma) on the geodesic samples (geodesic kind only)."""
        if self.traj.kind != "geodesic":
            raise ValueError("sigma_at applies to geodesic-backed trajectories")
        return self._sigma_in(
            _bracket(self._u, u_target, "u = {!r} outside covered"), u_target)

    def _sigma_in(self, k: int, u_target: float) -> float:
        """sigma_at(u_target) on step k, which holds u_target."""
        traj = self.traj
        dense, cols, tol = traj._dense, self._cols[0], self._SIGMA_TOL
        # _state interpolates the rest of the state on the same step
        bracket = self._last_step = traj._step(k)
        lo, hi = bracket[:2]
        u0, u1 = self._u[k:k + 2]
        target = float(u_target)
        # linear seed inside the bracket
        du = u1 - u0
        s = lo + (hi - lo) * ((target - u0) / du if du > 0 else 0.5)
        if not lo <= s <= hi:
            traj._locate(s)     # raises outside the samples, as eval would
        for _ in range(self._SIGMA_ITERS):
            u, udot = dense(bracket, s, cols)
            fval = u - target
            if fval > 0:
                hi = min(hi, s)
            elif fval < 0:
                lo = max(lo, s)
            else:
                return s
            step = fval / udot if udot > 0 else None
            s_new = s - step if step is not None else 0.5 * (lo + hi)
            if not (lo <= s_new <= hi):
                s_new = 0.5 * (lo + hi)
            if abs(s_new - s) <= tol:
                return s_new
            s = s_new
        raise SigmaInversionError(
            f"sigma for u = {u_target!r} not found to {self._SIGMA_TOL:g} in "
            f"{self._SIGMA_ITERS} iterations (last sigma = {s!r})")

    def state_at(self, u_target: float) -> ReducedState:
        x, xp, w = self._state(u_target)
        return ReducedState(x, xp, float(u_target), w)

    def _state(self, u_target: float, k: Optional[int] = None) -> tuple:
        """(x, x', w) at u_target as float lists and a float, by the dense
        output: of the reduced trajectory (Trajectory.eval), or of the
        geodesic step that sigma_at finds.  Given the step k that holds
        u_target, as _bracket assigns steps, the same floats come off it
        without bracketing; a u_target outside it is bracketed."""
        n = self.n
        traj = self.traj
        if k is not None and not self._u[k] <= u_target < self._u[k + 1]:
            k = None
        if traj.kind == "reduced":
            y = (traj.eval(u_target).tolist() if k is None else
                 traj._dense(traj._step(k), u_target, range(2 * n + 1)))
            return y[:n], y[n:2 * n], y[2 * n]
        s = (self.sigma_at(u_target) if k is None
             else self._sigma_in(k, u_target))
        v = traj._dense(self._last_step, s, self._cols[1])
        ud = v[2 * n]
        if ud <= 0.0:
            raise MonotonicityViolationError("du/dsigma is not positive", s)
        return v[:n], [xd / ud for xd in v[n:2 * n]], v[-1]

    def x_at(self, u_target: float) -> np.ndarray:
        return self.state_at(u_target).x


def reduce_trajectory(traj: Trajectory) -> ReducedTrajectory:
    """Reparametrize a geodesic trajectory by u.

    Requires du/dsigma > 0 at every accepted sample; violation raises
    MonotonicityViolationError carrying the first offending sigma.
    """
    if traj.kind != "geodesic":
        raise ValueError("reduce_trajectory expects a geodesic trajectory")
    return ReducedTrajectory(traj)


# ---------------------------------------------------------------------
# reduced pipeline

def herglotz_rhs(system: HerglotzSystem, rs: ReducedState):
    """(x'', dw/du) of the reduced dynamics at a reduced state.

    x'' solves  h_kj x''^j = -( G_k + d_k V + F_ik x'^i
        + d_u(h_ik x'^i + A_k) + d_w(h_ik x'^i + A_k) L
        - (h_ik x'^i + A_k) d_w L )
    with G_k the kinetic quadratic term built from x-partials of h,
    F_ik = d_i A_k - d_k A_i, and L the reduced Lagrangian; dw/du = L.
    Everything comes from first derivatives of (h, A, V) at the point.

    The system's compiled reduced function evaluates the formula; where
    it declines, FieldPasses.explain raises the state's error.
    """
    n = system.n
    args = (float(rs.u), *rs.x.tolist(), *rs.xp.tolist(), float(rs.w))
    out = system._passes.call("reduced", _reduced_tail, args, _rhs_steps,
                              system, rs.x, rs.u, rs.w)
    return np.array(out[n:2 * n]), out[2 * n]


def reduced_function(system: HerglotzSystem):
    """The compiled reduced right-hand side of z = (x, x', w):
    f(u, z_0, ..., z_2n) returns (zdot_0, ..., zdot_2n) = (x', x'', L),
    herglotz_rhs's formula, or None where the field pass or the kinetic
    solve declines or an output is not finite.  Built on first use and
    cached with the system's field passes."""
    return system._passes.pipeline("reduced", _reduced_tail)


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
    function; a call it declines ends the integration with its error.
    """
    cfg = config or IntegratorConfig()
    n = system.n
    u0 = float(u_span[0])
    xp0 = rs0.xp.tolist()
    z0 = (*rs0.x.tolist(), *xp0, float(rs0.w))
    xpp0, lag0 = herglotz_rhs(system, ReducedState(rs0.x, rs0.xp, u0, rs0.w))
    k0 = (*xp0, *xpp0.tolist(), float(lag0))
    ts, ys, ds = array("d", (u0,)), array("d", z0), array("d")

    def explain(u, z):
        system._passes.explain("reduced", (u, *z), _rhs_steps, system,
                               z[:n], u, z[2 * n])

    fn = reduced_function(system)
    rej, nfev = _stepper(len(z0), True, 0, None)(
        fn, explain, u0, float(u_span[1]), z0, k0, cfg, ts, ys, ds)
    traj = Trajectory(*_samples(ts, ys), ds, kind="reduced", n=n,
                      rejected=rej, nfev=nfev, fn=fn, explain=explain,
                      label=system._passes.label("reduced"))
    return ReducedTrajectory(traj)


# ---------------------------------------------------------------------
# consistency residuals along geodesic trajectories

def _equation_residuals(metric: BrinkmannMetric, traj: Trajectory) -> tuple:
    """(u_equation_residual, w_equation_residual) of a geodesic
    trajectory, made in one pass over its accepted samples, once per
    metric for the trajectory's life (Trajectory.memo): the field pass,
    Christoffel accelerations and Lagrangian at x' of a block of samples
    serve both.  ZeroUdotError where du/dsigma vanishes."""
    return traj.memo(("residuals", metric),
                     lambda: _residual_pass(metric, traj))


def _residual_pass(metric: BrinkmannMetric, traj: Trajectory) -> tuple:
    """Both residuals over the samples before the first with udot = 0,
    then ZeroUdotError at that sample if there is one.  Each numpy pass
    takes a block of _RESIDUAL_BLOCK samples: its field passes run before
    its kinetic solves, so a singular h raises after the field error of a
    later sample of its block."""
    n = traj.n
    m = n + 2
    zero = np.flatnonzero(traj.y[:, m + n] == 0.0)
    stop = zero[0] if len(zero) else len(traj)
    worst_u = worst_w = 0.0
    for k in range(0, stop, _RESIDUAL_BLOCK):
        y = traj.y[k:min(k + _RESIDUAL_BLOCK, stop)]
        v = y[:, m:]
        xd, ud, wd = v[:, :n], v[:, n], v[:, n + 1]
        point = Point(y[:, :n], y[:, n], y[:, n + 1])
        b = metric.system.eval_bundle(point)
        acc = metric.accelerations(point, v, b)
        xp = xd / ud[:, None]
        lag, dL = b.lagrangian(xp)
        uddot = acc[:, n] / (ud * ud)
        p_vel = _mv(b.h, xp) + b.A
        dxp = acc[:, :n] / ud[:, None] - xd * uddot[:, None]
        dL_dsigma = (_dot(dL[:, :n], xd) + dL[:, n] * ud + dL[:, n + 1] * wd
                     + _dot(p_vel, dxp))
        wddot_null = acc[:, n] * lag + ud * dL_dsigma
        # fmax, like a running max(), passes over a nan residual
        worst_u = float(np.fmax.reduce(np.abs(uddot + dL[:, n + 1]),
                                       initial=worst_u))
        worst_w = float(np.fmax.reduce(np.abs(wddot_null - acc[:, n + 1]),
                                       initial=worst_w))
    if stop < len(traj):
        raise ZeroUdotError(f"du/dsigma vanished at sigma = {traj.t[stop]!r}")
    return worst_u, worst_w


def u_equation_residual(metric: BrinkmannMetric, traj: Trajectory) -> float:
    """max_k | uddot / udot^2 + d_w L | over the accepted samples.

    uddot comes from the Christoffel route, d_w L from direct field
    derivatives at the reduced velocities; agreement certifies that the
    u-geodesic equation is the w-slope equation of the reduced system.
    """
    return _equation_residuals(metric, traj)[0]


def w_equation_residual(metric: BrinkmannMetric, traj: Trajectory) -> float:
    """max_k | d/dsigma(udot L) - wddot | over the accepted samples.

    wddot is the w-acceleration demanded by the geodesic equations; the
    other term is the w-acceleration implied by differentiating the null
    relation wdot = udot L along the flow.  On the null cone the two
    agree identically, so the w-equation never needs to be imposed; off
    the cone the gap is |2 L_residual / udot| * |uddot / udot^2| scaled,
    which is what the negative control exercises.
    """
    return _equation_residuals(metric, traj)[1]


def homogeneity_residual(system: HerglotzSystem, rs: ReducedState,
                         udot: float) -> float:
    """Euler degree-1 defect of Ltilde = (1/2) h xd xd / ud + A xd - V ud.

    The velocity partials are closed forms, dLtilde/dxd = h xd / ud + A
    and dLtilde/dud = -(1/2) h xd xd / ud^2 - V; the residual
    |xd . dLtilde/dxd + ud dLtilde/dud - Ltilde| vanishes for any
    first-degree homogeneous function.

    The system's compiled homogeneity function, a tail over its values
    pass, evaluates it; where that declines, FieldPasses.explain raises
    the state's error.
    """
    if udot == 0.0:
        raise ZeroUdotError("homogeneity check needs a nonzero udot")
    ud = float(udot)
    args = (*rs.x.tolist(), float(rs.u), float(rs.w),
            *[v * ud for v in rs.xp.tolist()], ud)
    return system._passes.call("homogeneity", _homogeneity_tail, args,
                               _homogeneity_steps, system, rs, args,
                               derivatives=False)[0]


def _homogeneity_steps(system: HerglotzSystem, rs: ReducedState,
                       args: tuple) -> None:
    """The homogeneity check's steps that can be at fault: the values
    pass at the state, then its own check of the velocities in args."""
    system.eval_values(rs.point())
    require_finite_velocities("homogeneity check", args[system.n + 2:])


def _homogeneity_tail(em, nodes):
    """homogeneity_residual's formula as a pipeline tail over the values
    pass (expr.compile_forward): (x1..xn, u, w, xd1..xdn, ud) -> the
    residual, with Ltilde = (1/2) h xd xd / ud + A xd - V ud and its
    closed-form velocity partials.  The pass checks only the coordinates, so the tail checks
    the velocities finite itself."""
    n = em.m - 2
    v = [f"_v{c}" for c in range(n + 1)]
    xd, ud = v[:n], v[n]
    h, _, A, _, V, _ = tail_bundle(nodes, n)
    em.guard_finite(v)
    hx = [em.dot(row, xd) for row in h]
    quad = em.dot(xd, hx)
    lt = em.sub(em.add(em.div(em.mul(0.5, quad), ud), em.dot(A, xd)),
                em.mul(V, ud))
    d_xd = [em.add(em.div(hx[i], ud), A[i]) for i in range(n)]
    d_ud = em.sub(em.div(em.mul(-0.5, quad), em.mul(ud, ud)), V)
    euler = em.add(em.dot(xd, d_xd), em.mul(ud, d_ud))
    return [*em.coords, *v], [em.max_abs([em.sub(euler, lt)])]
