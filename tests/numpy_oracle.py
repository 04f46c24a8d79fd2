"""The numpy formulas of hlift's compiled checks, reduced right-hand side
and w-slope: the test oracles the compiled pipelines are held against;
and the scalar radical inverse that cloud.halton vectorizes.

Each function computes one of them from the public
field passes (eval_bundle, eval_values, components_at,
value_and_jacobian) with numpy arithmetic, and raises or warns as its
own steps do: a field pass raises the error of a point it declines,
solve_kinetic warns NearlySingularKineticWarning and raises
SingularMetricError.  hlift computes each of them only by its compiled
pipeline; where that declines a call, geometry.FieldPasses.explain
raises the call's error, which the tests compare with these functions'
(assert_like_the_oracle).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from hlift.dynamics import ReducedState, ReducedTrajectory, reduced_lagrangian
from hlift.errors import (HliftError, NonFiniteError, SingularJacobianError,
                          ZeroUdotError)
from hlift.geometry import (BrinkmannMetric, CoordinateMap, FieldBundle,
                            HerglotzSystem, Point, solve_kinetic)
from hlift.symmetry import _GAUSS3, charge_series


def assert_like_the_oracle(got, want, *context) -> bool:
    """Assert that the compiled route's outcome `got` is the one that the
    oracle's outcome `want` calls for (each numbers, or an error as
    (class, message)): the oracle's HliftError or warning, with its
    message; NonFiniteError where the oracle's numbers are not finite or
    another error stops it (a numpy RuntimeWarning, a float division by
    zero); numbers where the oracle's are finite.  Returns whether both
    are numbers, which the caller compares within its bound."""
    if isinstance(want, tuple) and issubclass(want[0], (HliftError,
                                                        UserWarning)):
        assert got == want, context
        return False
    if isinstance(want, tuple) or not np.all(np.isfinite(want)):
        assert isinstance(got, tuple) and got[0] is NonFiniteError, \
            (context, got, want)
        return False
    assert not isinstance(got, tuple), (context, got, want)
    return True


def herglotz_rhs_numpy(system: HerglotzSystem, rs: ReducedState):
    """herglotz_rhs by numpy from eval_bundle: (x'', L)."""
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


def equation_residuals_numpy(metric: BrinkmannMetric, traj) -> tuple:
    """(u_equation_residual, w_equation_residual) of a geodesic trajectory
    by single-point calls, one accepted sample after another, each step
    raising and warning at its own sample: first its velocities, which
    must be finite, and udot, which must not be zero."""
    n = traj.n
    m = n + 2
    worst_u = worst_w = 0.0
    for k, y in enumerate(traj.y):
        v = y[m:]
        xd, ud, wd = v[:n], v[n], v[n + 1]
        for vel in v.tolist():
            if not math.isfinite(vel):
                raise NonFiniteError(
                    f"u/w-equation residual at sigma = {float(traj.t[k])!r} "
                    f"needs finite velocities, got {vel!r}")
        if ud == 0.0:
            raise ZeroUdotError(
                f"du/dsigma vanished at sigma = {float(traj.t[k])!r}")
        point = Point(y[:n], y[n], y[n + 1])
        b = metric.system.eval_bundle(point)
        acc = metric.accelerations(point, v, b)
        xp = xd / ud
        lag, dL = b.lagrangian(xp)
        worst_u = max(worst_u, abs(acc[n] / (ud * ud) + dL[n + 1]))
        p_vel = b.h @ xp + b.A
        dxp = acc[:n] / ud - xd * (acc[n] / (ud * ud))
        dL_dsigma = float(dL[:n] @ xd + dL[n] * ud + dL[n + 1] * wd
                          + p_vel @ dxp)
        worst_w = max(worst_w, abs(acc[n] * lag + ud * dL_dsigma - acc[n + 1]))
    return worst_u, worst_w


def homogeneity_numpy(system: HerglotzSystem, rs: ReducedState,
                      udot: float) -> float:
    """homogeneity_residual by numpy."""
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


def lagrangian_w_slope_numpy(system: HerglotzSystem,
                             rs: ReducedState) -> float:
    """lagrangian_w_slope by numpy: the w entry of the partials of
    FieldBundle.lagrangian."""
    b = system.eval_bundle(rs.point())
    for v in rs.xp.tolist():
        if not math.isfinite(v):
            raise NonFiniteError(f"w-slope needs finite velocities, got {v!r}")
    _, dL = b.lagrangian(rs.xp)
    return float(dL[system.n + 1])


def noether_charge_numpy(system: HerglotzSystem, gen,
                         rs: ReducedState) -> float:
    """noether_charge at one state by numpy, the field passes first:
    (h x' + A) . dx - ((1/2) h x' x' + V) du - dw."""
    h, A, V = system.eval_values(rs.point())
    n = len(A)
    K, _ = gen.components_at(rs.point())
    for v in rs.xp.tolist():
        if not math.isfinite(v):
            raise NonFiniteError(f"Noether charge needs finite velocities, "
                                 f"got {v!r}")
    p = h @ rs.xp + A
    energy = float(0.5 * rs.xp @ h @ rs.xp + V)
    return float(p @ K[:n] - energy * K[n] - K[n + 1])


def nonlocal_charge_numpy(system: HerglotzSystem, gen,
                          rt: ReducedTrajectory):
    """nonlocal_charge from state_at and lagrangian_w_slope_numpy at the
    same Gauss-Legendre nodes, summed in the same order."""
    u, qs = charge_series(system, gen, rt)
    integral = [0.0]
    for u0, u1 in zip(u.tolist(), u[1:].tolist()):
        du = u1 - u0
        integral.append(integral[-1] + du * sum(
            wt * lagrangian_w_slope_numpy(system, rt.state_at(u0 + a * du))
            for a, wt in _GAUSS3))
    return u, np.exp(-np.array(integral)) * qs


def lie_derivative_numpy(metric: BrinkmannMetric, gen, point: Point,
                         bundle: Optional[FieldBundle] = None) -> np.ndarray:
    """covariant_sym_grad by numpy from the field pass and the generator's
    components.  `bundle` is the field pass at the point, evaluated here
    when not given."""
    m = metric.dim
    g, dg = metric.eval_with_derivatives(point, bundle)
    K, dK = gen.components_at(point)
    M = dK @ g                  # M[mu, nu] = d_mu K^c g_{c nu}
    return (K @ dg.reshape(m, m * m)).reshape(m, m) + M + M.T


def conformal_split(metric: BrinkmannMetric, gen, point: Point):
    """(S, lambda, g) at the point from one field pass: S of
    covariant_sym_grad, its trace part lambda = g^{mu nu} S_{mu nu} / (n + 2),
    and the metric g, by numpy (conformal_killing_residual's formula)."""
    b = metric.system.eval_bundle(point)
    S = lie_derivative_numpy(metric, gen, point, b)
    lam = float(np.tensordot(metric.inverse(point, b), S, axes=2)) / metric.dim
    return S, lam, metric._assemble(b.h, b.A, b.V)


def pullback_numpy(metric_a: BrinkmannMetric, metric_b: BrinkmannMetric,
                   cmap: CoordinateMap, point: Point, omega_f) -> float:
    """conformal_pullback_check by numpy."""
    vals, J = cmap.value_and_jacobian(point)
    g_b = metric_b.eval(Point.from_coords(vals, metric_b.system.n))
    g_a = metric_a.eval(point)
    om = omega_f(point.x.tolist(), float(point.u), float(point.w))
    return float(np.max(np.abs(J.T @ g_b @ J - om * g_a)))


def symmetry_condition_numpy(system: HerglotzSystem, gen,
                             rs: ReducedState) -> float:
    """symmetry_condition_residual by numpy."""
    n = system.n
    b = system.eval_bundle(rs.point())
    xp = rs.xp
    lag, dL = b.lagrangian(xp)
    K, dK = gen.components_at(rs.point())
    # total u-derivatives of the components along the motion
    D = xp @ dK[:n] + dK[n] + dK[n + 1] * lag
    ddx, ddu, ddw = D[:n], D[n], D[n + 1]
    p = b.h @ xp + b.A
    res = dL @ K + p @ (ddx - xp * ddu) + lag * ddu - ddw
    return abs(float(res))


def conformal_factor_closed_form(system: HerglotzSystem, gen,
                                 point: Point) -> float:
    """d_u(du) + d_w(dw) - A_i d_w(dx^i), the closed form that
    symmetry.conformal_factor's trace reproduces whenever the generator
    satisfies the symmetry identities."""
    n = system.n
    _, A, _ = system.eval_values(point)
    _, dK = gen.components_at(point)
    return float(dK[n, n] + dK[n + 1, n + 1] - A @ dK[n + 1, :n])


def transform_rule_numpy(system_a: HerglotzSystem, system_b: HerglotzSystem,
                         cmap: CoordinateMap, rs: ReducedState) -> float:
    """transform_rule_check by numpy."""
    n = system_a.n
    lag_a = reduced_lagrangian(system_a, rs)
    vals, J = cmap.value_and_jacobian(rs.point())
    # chain rule along the motion: d/du = x'^l d_l + d_u + L d_w
    tang = np.concatenate([rs.xp, [1.0, lag_a]])
    rates = J @ tang
    dxp_du = rates[:n]
    dup_du = rates[n]
    dwp_du = rates[n + 1]
    if abs(dup_du) < 1e-12:
        raise SingularJacobianError(
            f"{cmap.name}: du'/du = {float(dup_du)!r} is not invertible at "
            "the state")
    image = ReducedState(vals[:n], dxp_du / dup_du, float(vals[n]),
                         float(vals[n + 1]))
    lag_b = reduced_lagrangian(system_b, image)
    return abs(float(lag_b * dup_du - dwp_du))


def radical_inverse(i: int, base: int) -> float:
    """The radical inverse of i in `base` on Python numbers, digit by
    digit from the lowest: column c of cloud.halton at index i, for base
    the c-th prime, bit for bit."""
    out = 0.0
    f = 1.0 / base
    while i > 0:
        out += f * (i % base)
        i //= base
        f /= base
    return out
