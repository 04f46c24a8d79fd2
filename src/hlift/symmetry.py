"""Symmetry generators, invariance residuals and conserved charges.

A generator is a vector field K = (dx^1..dx^n, du, dw) over the lifted
space.  The same object is checked at three levels:

  * metric level: Killing residual max|L_K g| (the Lie derivative,
    equal to nabla K + (nabla K)^T) and its conformal variant with the
    trace part removed;
  * velocity level: the invariance condition of the reduced variational
    problem, evaluated at a reduced state with dw/du replaced by L;
  * coefficient level: the invariance condition is polynomial in the
    reduced velocities, and each coefficient must vanish separately.
    degreewise_identities returns those coefficient tensors.

Charges: the usual momentum-type charge of a generator, its full-space
affine counterpart g(K, xdot), and the nonlocally rescaled charge that
stays exactly constant for action-dependent dynamics (the rescaling
integrates dL/dw along the trajectory).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .dynamics import (ReducedState, ReducedTrajectory, lagrangian_w_slope,
                       reduced_lagrangian)
from .errors import SingularJacobianError
from .expr import as_field
from .geometry import (BrinkmannMetric, CoordinateMap, FieldPasses,
                       HerglotzSystem, Point, conformal_split,
                       covariant_sym_grad, eval_vector_fields)

__all__ = [
    "SymmetryGenerator", "killing_residual", "conformal_killing_residual",
    "symmetry_condition_residual", "degreewise_identities",
    "degreewise_max_residual", "noether_charge", "affine_charge",
    "charge_series", "nonlocal_charge", "transform_rule_check",
]


class SymmetryGenerator:
    """Vector field (dx, du, dw) over (x1..xn, u, w).

    Components accept the same sources as system fields: expression
    strings, numbers or Field objects.  components_at evaluates them all
    by one compiled pass with derivatives, built on first use.
    """

    def __init__(self, n: int, dx, du, dw, params=None, name: str = "generator"):
        self.n = int(n)
        self.name = name
        dx = list(dx)
        if len(dx) != n:
            raise ValueError(f"dx must have length {n}")
        self.dx = [as_field(s, n, params, f"{name}.dx{i + 1}")
                   for i, s in enumerate(dx)]
        self.du = as_field(du, n, params, f"{name}.du")
        self.dw = as_field(dw, n, params, f"{name}.dw")
        self._passes = FieldPasses(self.component_fields(), self.n, name)

    def component_fields(self):
        return [*self.dx, self.du, self.dw]

    def components_at(self, point: Point):
        """(values, grads) with grads[c, k] the c-th partial of component k."""
        return eval_vector_fields(self._passes, point)


# ---------------------------------------------------------------------
# metric-level residuals

def killing_residual(metric: BrinkmannMetric, gen: SymmetryGenerator,
                     point: Point) -> float:
    """max entry of L_K g = nabla K + (nabla K)^T at the point."""
    S = covariant_sym_grad(metric, gen, point)
    return float(np.max(np.abs(S)))


def conformal_killing_residual(metric: BrinkmannMetric, gen: SymmetryGenerator,
                               point: Point) -> Tuple[float, float]:
    """(max |S - lambda g|, lambda) with lambda the trace part of S.

    Zero residual means K generates a conformal isometry with factor
    lambda at this point.
    """
    S, lam, g = conformal_split(metric, gen, point)
    return float(np.max(np.abs(S - lam * g))), lam


# ---------------------------------------------------------------------
# velocity-level residual

def symmetry_condition_residual(system: HerglotzSystem, gen: SymmetryGenerator,
                                rs: ReducedState) -> float:
    """Invariance defect of the reduced problem at one reduced state.

    The condition sums the field variation of L, the momentum response
    to the velocity variation, and the action-slope terms; along the
    flow every total derivative d/du is expanded with dw/du -> L, so the
    residual is a pointwise function of (x, x', u, w).  Zero for all
    states means the generator maps solutions to solutions.
    """
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


# ---------------------------------------------------------------------
# degreewise coefficient tensors

def degreewise_identities(system: HerglotzSystem, gen: SymmetryGenerator,
                          point: Point) -> dict:
    """Velocity-degree coefficients of the invariance condition.

    The condition of symmetry_condition_residual is a polynomial of
    degree four in x'; it vanishes identically in x' iff the returned
    tensors vanish:

      quartic   scalar   d_w(du)
      cubic     (n,)     h_kl d_w(dx^l) - d_k(du)
      quadratic (n, n)   Lie-drag of h plus trace corrections
      linear    (n,)     Lie-drag of A plus potential and dw gradients
      constant  scalar   drag of V plus u-slopes of du, dw

    The quadratic and linear tensors are written with d_k(du) in place
    of h_kl d_w(dx^l); the two agree whenever the cubic one vanishes.
    """
    n = system.n
    b = system.eval_bundle(point)
    K, dK = gen.components_at(point)
    du_val, dw_val = K[n], K[n + 1]
    cx = dK[:n, :n]          # cx[l, m] = d_l dx^m
    cu = dK[n, :n]           # d_u dx^m
    cw = dK[n + 1, :n]       # d_w dx^m
    a = dK[:, n]             # partials of du
    bb = dK[:, n + 1]        # partials of dw

    quartic = float(a[n + 1])
    cubic = b.h @ cw - a[:n]
    drag_h = np.einsum("c,cij->ij", K, b.dh)
    M = b.h @ cx.T           # M[i, j] = h_im d_j dx^m
    quadratic = (drag_h + M + M.T
                 + np.outer(b.A, a[:n]) + np.outer(a[:n], b.A)
                 + (b.A @ cw) * b.h - (a[n] + bb[n + 1]) * b.h)
    drag_A = np.einsum("c,ci->i", K, b.dA)
    linear = (drag_A + b.h @ cu + cx @ b.A + (b.A @ cw) * b.A
              - 2.0 * b.V * a[:n] - bb[:n] - bb[n + 1] * b.A)
    constant = float(-K @ b.dV + b.A @ cu - (b.A @ cw) * b.V
                     - b.V * a[n] - bb[n] + b.V * bb[n + 1])
    return {"quartic": quartic, "cubic": cubic, "quadratic": quadratic,
            "linear": linear, "constant": constant}


def degreewise_max_residual(system: HerglotzSystem, gen: SymmetryGenerator,
                            point: Point) -> float:
    """Largest entry across all degreewise coefficient tensors."""
    iden = degreewise_identities(system, gen, point)
    return max(abs(iden["quartic"]),
               float(np.max(np.abs(iden["cubic"]))) if system.n else 0.0,
               float(np.max(np.abs(iden["quadratic"]))),
               float(np.max(np.abs(iden["linear"]))),
               abs(iden["constant"]))


# ---------------------------------------------------------------------
# charges

def noether_charge(system: HerglotzSystem, gen: SymmetryGenerator,
                   rs: ReducedState) -> float:
    """(h x' + A) . dx - ((1/2) h x' x' + V) du - dw at the state."""
    return _charge(gen, rs, *system.eval_values(rs.point()))


def _charge(gen: SymmetryGenerator, rs: ReducedState, h, A, V) -> float:
    """noether_charge's formula, given the field values at the state."""
    n = len(A)
    K, _ = gen.components_at(rs.point())
    xp = rs.xp
    p = h @ xp + A
    energy = float(0.5 * xp @ h @ xp + V)
    return float(p @ K[:n] - energy * K[n] - K[n + 1])


def affine_charge(metric: BrinkmannMetric, gen: SymmetryGenerator, gs) -> float:
    """g_{mu nu} K^mu xdot^nu along the full-space flow.

    For null initial data this equals udot times the reduced charge of
    the same generator.
    """
    g = metric.eval(gs.point)
    K, _ = gen.components_at(gs.point)
    return float(K @ g @ gs.velocity)


def charge_series(system: HerglotzSystem, gen: SymmetryGenerator,
                  rt: ReducedTrajectory):
    """(u grid, reduced charge at each accepted sample)."""
    qs = np.array([noether_charge(system, gen, rt.sample_state(k))
                   for k in range(len(rt))])
    return rt.u.copy(), qs


def nonlocal_charge(system: HerglotzSystem, gen: SymmetryGenerator,
                    rt: ReducedTrajectory):
    """(u grid, exp(-int dL/dw du) times the reduced charge).

    The integral runs from the first sample; each step contributes a
    Simpson evaluation with the midpoint taken from dense output, so the
    quadrature error is O(h^4) against the O(h^5) flow accuracy.
    """
    u = rt.u
    m = len(u)
    slope = np.empty(m)
    qs = np.empty(m)
    for k in range(m):
        # one derivative pass gives both the w-slope and the charge
        rs = rt.sample_state(k)
        b = system.eval_bundle(rs.point())
        slope[k] = b.lagrangian(rs.xp)[1][system.n + 1]
        qs[k] = _charge(gen, rs, b.h, b.A, b.V)
    integral = np.empty(m)
    integral[0] = 0.0
    acc = 0.0
    for k in range(m - 1):
        du = u[k + 1] - u[k]
        mid = rt.state_at(0.5 * (u[k] + u[k + 1]))
        acc += du / 6.0 * (slope[k] + 4.0 * lagrangian_w_slope(system, mid)
                           + slope[k + 1])
        integral[k + 1] = acc
    return u.copy(), np.exp(-integral) * qs


# ---------------------------------------------------------------------
# transform rule for the reduced scalar

def transform_rule_check(system_a: HerglotzSystem, system_b: HerglotzSystem,
                         cmap: CoordinateMap, rs: ReducedState) -> float:
    """Defect of the change-of-variables rule between two reduced problems.

    cmap sends (x, u, w) to (x', u', w').  Along a motion of system_a
    (so dw/du = L_a), the images must satisfy dw'/du' = L_b at the image
    state.  The residual is |L_b * (du'/du) - dw'/du|, with du'/du and
    dx'/du taken by the chain rule.  A vanishing or negative du'/du
    means the map does not define a time reparametrization there.
    """
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
            f"{cmap.name}: du'/du = {dup_du!r} is not invertible at the state")
    image = ReducedState(vals[:n], dxp_du / dup_du, float(vals[n]),
                         float(vals[n + 1]))
    lag_b = reduced_lagrangian(system_b, image)
    return abs(float(lag_b * dup_du - dwp_du))
