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
7th order dense output, whose polynomial is stored per accepted step.
It is deliberately hand-rolled: every accepted step records the
diagnostics the equivalence checks need, and reruns are bit-for-bit
deterministic.  A whole integration is one generated function per
pipeline shape (_stepper): stages, error norm, PI control, dense rows
and sample buffers are float locals of one loop, which calls the
compiled right-hand side directly; a call it declines ends the
integration with that call's error (geometry.explain_decline).  An
array-form oracle of the same stepper reproduces its samples and dense
rows bit for bit.
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
from .geometry import (BrinkmannMetric, HerglotzSystem, Point,
                       emit_kinetic_solve, explain_decline, solve_kinetic,
                       tail_bundle)

__all__ = [
    "GeodesicState", "ReducedState", "IntegratorConfig", "Trajectory",
    "ReducedTrajectory", "reduced_lagrangian", "lagrangian_w_slope",
    "lift_state", "null_residual", "integrate_geodesic",
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget of an integration.  rtol and atol are
    finite, not negative and not both zero, and max_steps is at least 1;
    other values raise ValueError."""

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


@functools.cache
def _stepper(size: int, takes_t: bool, n_aux: int, stop: Optional[int]):
    """The whole adaptive integration of one pipeline shape, as one
    function generated on first use:

        loop(fn, explain, t, t_end, y, k, cfg, ts, ys, ds, xs_0.., [target])

    y is the initial state, a tuple of `size` floats, and k its derivative.
    fn is the compiled right-hand side: fn([t,] y_0, ...) returns the
    derivative followed by `n_aux` auxiliary outputs, or None where it
    declines; explain([t,] y) raises the error of a declined call, which
    ends the integration.  The loop makes the initial-step
    probe and then DOP853 attempts until t reaches t_end (or, with a
    `stop` index, y[stop] reaches `target`).  An attempt makes 12 calls
    (11 stages and the FSAL stage at the new state); an accepted one 3
    more, for the dense output.  Each accepted step appends its sample to
    the buffers ts and ys, the 7 rows of its dense polynomial (_dense) to
    ds, and the auxiliary outputs of its FSAL stage, whose input is the
    accepted state, to xs_a; the caller has appended the initial sample.
    An attempt whose stage input, error norm or last dense stage is not
    finite is rejected and its step quartered; nfev counts only the calls
    it made.  Returns (rejected, nfev), nfev including the caller's call
    at the initial state.
    """
    J = range(size)
    y = [f"y_{j}" for j in J]

    def k(i):
        return [f"k{i}_{j}" for j in J]

    def call(tc: str, state: list, out: list) -> list:
        tc = f"{tc}, " if takes_t else ""
        args = ", ".join(state)
        return [f"_o = fn({tc}{args})",
                "if _o is None:",
                f"    explain({tc}({args},))",
                f"{', '.join(out)}, = _o"]

    def combo(row, j):
        return " + ".join(f"{a!r} * k{c + 1}_{j}" for c, a in row.items())

    def stage(i: int, calls: int, aux: list) -> list:
        """Stage i's input, its finite check (a rejection after `calls`
        calls of this attempt) and its call."""
        s = [f"s{i}_{j}" for j in J]
        c = _C[i - 1]
        tc = "t + h" if c == 1.0 else f"t + {c!r} * h"
        return ([f"{s[j]} = y_{j} + h * ({combo(_A[i - 1], j)})" for j in J]
                + _finite_check(s, reject(calls)) + call(tc, s, k(i) + aux))

    def rms(terms):
        return f"_sqrt(({' + '.join(terms)}) / {size})"

    def reject(calls: int) -> str:
        return (f"{f'nfev += {calls}; ' if calls else ''}rejected += 1; "
                "just_rejected = True; h *= 0.25; continue")

    sq = lambda a: f"({a}) * ({a})"
    aux = [f"_x{a}" for a in range(n_aux)]
    spare = [f"_z{a}" for a in range(n_aux)]    # other stages' aux outputs
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
    body += call("t + h0", [f"y_{j} + h0 * k1_{j}" for j in J], k("p") + spare)
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
    for i in range(2, 14):
        loop += stage(i, i - 2, aux if i == 13 else spare)
    # Hairer's norm of the 5th order estimate corrected by the 3rd order one
    for j in J:
        loop += [f"_b{j} = abs(s13_{j})",
                 f"_w{j} = atol + rtol * (_a{j} if _a{j} > _b{j} else _b{j})",
                 f"e{j} = ({combo(_E5, j)}) / _w{j}",
                 f"g{j} = ({combo(_E3, j)}) / _w{j}"]
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
    # accepted: the dense stages, then the polynomial's rows
    for i in range(14, 17):
        loop += stage(i, i - 14, spare)
    loop += _finite_check(k(16), reject(3))
    loop += ["nfev += 3"]
    for j in J:
        loop += [f"r0_{j} = s13_{j} - y_{j}",
                 f"r1_{j} = h * k1_{j} - r0_{j}",
                 f"r2_{j} = 2.0 * r0_{j} - h * (k13_{j} + k1_{j})",
                 *[f"r{3 + r}_{j} = h * ({combo(row, j)})"
                   for r, row in enumerate(_D)]]
    loop += ["t = t_end if clipped else t + h",
             f"{', '.join(y)}, = {', '.join(f's13_{j}' for j in J)},",
             f"{', '.join(k(1))}, = {', '.join(k(13))},",
             f"{', '.join(f'_a{j}' for j in J)}, = "
             f"{', '.join(f'_b{j}' for j in J)},",
             "_ta(t)",
             f"_ye(({', '.join(y)},))",
             f"_de(({', '.join(f'r{r}_{j}' for r in range(7) for j in J)},))",
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
              + [f"xs_{a}" for a in range(n_aux)]
              + (["target"] if stop is not None else []))
    return define_function(
        "_loop", params, body,
        f"dop853 {size}{' t' if takes_t else ''} aux{n_aux} stop{stop}",
        {"_sqrt": math.sqrt, "_isfinite": math.isfinite,
         "_BlowUp": BlowUpError, "_StepLimit": StepLimitExceededError})


class Trajectory:
    """Accepted samples of one adaptive integration.

    Stores parameter values and states per accepted sample, and per step
    the 7 rows of DOP853's dense polynomial (`dense`, shape (steps, 7,
    size)); evaluation between samples uses the polynomial of the
    containing step (_dense), which is 7th order accurate and returns the
    step's first sample exactly.

    Counters: `rejected` steps and `nfev` right-hand side calls (the
    initial-step probe included).
    """

    def __init__(self, t, y, dense, kind: str, n: int, rejected: int,
                 diagnostics: Optional[dict] = None, nfev: int = 0):
        self.t = np.asarray(t)
        self._t = self.t.tolist()       # the grid _bracket bisects
        self.y = np.asarray(y)
        self.dense = np.asarray(dense)
        self.kind = kind
        self.n = n
        self.rejected = rejected
        self.nfev = nfev
        self.diagnostics = diagnostics or {}
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory parameter must increase strictly")

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
        ends, the state at t0 and its dense polynomial's rows."""
        return (*self._t[k:k + 2], self.y[k].tolist(),
                self.dense[k].tolist())

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


def _samples(ts: array, ys: array, ds: array) -> tuple:
    """An integration's flat sample buffers as arrays (t, y, dense)."""
    t = np.frombuffer(ts)
    y = np.frombuffer(ys).reshape(len(t), -1)
    return t, y, np.frombuffer(ds).reshape(len(t) - 1, 7, y.shape[1])


# ---------------------------------------------------------------------
# geodesic pipeline

def _declined(system: HerglotzSystem, kind: str, args, point: Point) -> None:
    """Raise the error of a call with arguments `args` that the compiled
    right-hand side `kind` (geodesic or reduced) declined at the point:
    its formula reads the field pass and then solves with h."""
    with explain_decline(f"{system.name} {kind}", args):
        solve_kinetic(system.eval_bundle(point).h, None, system.name)


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
    fn = metric.geodesic_function()

    def explain(y):
        _declined(metric.system, "geodesic", y, Point(y[:n], y[n], y[n + 1]))

    out = fn(*y0)
    if out is None:
        explain(y0)
    ts, ys, ds = array("d", (s0,)), array("d", y0), array("d")
    nulls = array("d", out[-1:])
    target = math.inf if stop_at_u is None else float(stop_at_u)
    rej, nfev = _stepper(len(y0), False, 1, n)(
        fn, explain, s0, s1, y0, out[:-1], cfg, ts, ys, ds, nulls, target)
    return Trajectory(*_samples(ts, ys, ds), kind="geodesic", n=n,
                      rejected=rej, nfev=nfev,
                      diagnostics={"null_residual": np.frombuffer(nulls)})


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
        traj = self.traj
        cols = (self.n, 2 * self.n + 2)     # u and udot
        k = _bracket(self._u, u_target, "u = {!r} outside covered")
        # state_at interpolates the rest of the state on the same step
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
            u, udot = traj._dense(bracket, s, cols)
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
            if abs(s_new - s) <= self._SIGMA_TOL:
                return s_new
            s = s_new
        raise SigmaInversionError(
            f"sigma for u = {u_target!r} not found to {self._SIGMA_TOL:g} in "
            f"{self._SIGMA_ITERS} iterations (last sigma = {s!r})")

    def state_at(self, u_target: float) -> ReducedState:
        n = self.n
        if self.traj.kind == "reduced":
            y = self.traj.eval(u_target)
            return ReducedState(y[:n], y[n:2 * n], float(u_target),
                                float(y[2 * n]))
        m = n + 2
        s = self.sigma_at(u_target)
        # x, xdot, udot and w
        v = self.traj._dense(self._last_step, s,
                             (*range(n), *range(m, m + n + 1), n + 1))
        ud = v[2 * n]
        if ud <= 0.0:
            raise MonotonicityViolationError("du/dsigma is not positive", s)
        return ReducedState(v[:n], [xd / ud for xd in v[n:2 * n]],
                            float(u_target), v[-1])

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
    it declines, explain_decline raises the state's error.
    """
    n = system.n
    args = (float(rs.u), *rs.x.tolist(), *rs.xp.tolist(), float(rs.w))
    out = reduced_function(system)(*args)
    if out is None:
        _declined(system, "reduced", args, rs.point())
    return np.array(out[n:2 * n]), out[2 * n]


def reduced_function(system: HerglotzSystem):
    """The compiled reduced right-hand side of z = (x, x', w):
    f(u, z_0, ..., z_2n) returns (zdot_0, ..., zdot_2n) = (x', x'', L),
    herglotz_rhs's formula, or None where the field pass or the kinetic
    solve declines or an output is not finite.  Built on first use and
    cached with the system's field passes."""
    return system.pipeline("reduced", _reduced_tail)


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
        _declined(system, "reduced", (u, *z), Point(z[:n], u, z[2 * n]))

    rej, nfev = _stepper(len(z0), True, 0, None)(
        reduced_function(system), explain, u0, float(u_span[1]), z0, k0, cfg,
        ts, ys, ds)
    traj = Trajectory(*_samples(ts, ys, ds), kind="reduced", n=n,
                      rejected=rej, nfev=nfev)
    return ReducedTrajectory(traj)


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

    The system's compiled homogeneity function, a tail over its values
    pass, evaluates it; where that declines, explain_decline raises the
    state's error.
    """
    if udot == 0.0:
        raise ZeroUdotError("homogeneity check needs a nonzero udot")
    ud = float(udot)
    args = (*rs.x.tolist(), float(rs.u), float(rs.w),
            *[v * ud for v in rs.xp.tolist()], ud)
    out = system.pipeline("homogeneity", _homogeneity_tail, False)(*args)
    if out is None:
        with explain_decline(f"{system.name} homogeneity", args):
            system.eval_values(rs.point())
            for v in args[system.n + 2:]:
                if not math.isfinite(v):
                    raise NonFiniteError(f"homogeneity check needs finite "
                                         f"velocities, got {v!r}")
    return out[0]


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
