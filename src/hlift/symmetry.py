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
                       covariant_sym_grad, emit_kinetic_solve,
                       eval_vector_fields, lie_entries, tail_bundle,
                       tail_vector)

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
    by one compiled pass with derivatives, built on first use.  The
    generator checks run compiled pipelines over a joint pass of a
    system's fields and these components (`pipeline`).
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
        self._joint = {}

    def component_fields(self):
        return [*self.dx, self.du, self.dw]

    def components_at(self, point: Point):
        """(values, grads) with grads[c, k] the c-th partial of component k."""
        return eval_vector_fields(self._passes, point)

    def pipeline(self, system: HerglotzSystem, kind: str, tail):
        """The compiled pipeline function `kind` (FieldPasses.pipeline)
        over the joint pass of the system's entries (h pairs, A, V)
        followed by this generator's (dx, du, dw); the joint pass is
        built on first use and cached per system."""
        passes = self._joint.get(system)
        if passes is None:
            if system.n != self.n:
                raise ValueError(f"{self.name} has dimension {self.n}, "
                                 f"{system.name} has {system.n}")
            passes = self._joint[system] = FieldPasses(
                system._passes.entries + self._passes.entries, self.n,
                f"{system.name} {self.name}")
        return passes.pipeline(kind, tail)


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
    lambda at this point.  The compiled check evaluates it; where that
    declines, conformal_split runs instead and raises or warns as its own.
    """
    out = gen.pipeline(metric.system, "conformal-killing",
                       _conformal_killing_tail)(
        *point.x.tolist(), float(point.u), float(point.w))
    if out is not None:
        return out
    S, lam, g = conformal_split(metric, gen, point)
    return float(np.max(np.abs(S - lam * g))), lam


def _conformal_killing_tail(em, nodes):
    """conformal_split's lambda = g^{mu nu} S_{mu nu} / (n + 2) and the
    residual max |S - lambda g| as a pipeline tail over the joint pass
    (expr.compile_forward), with g^{-1} from the kinetic solve of the
    unit columns and A (BrinkmannMetric._inverse_from)."""
    m = em.m
    n = m - 2
    h, _, A, _, V, _ = tail_bundle(nodes, n)
    g, S = lie_entries(em, nodes)
    units = [[1.0 if j == k else None for j in range(n)] for k in range(n)]
    *hinv, hiA = emit_kinetic_solve(em, h, units + [A])
    gww = em.add(em.mul(2.0, V), em.dot(A, hiA))
    em.guard_finite(hiA + [gww])        # the rest of g^{-1}, as numpy has it
    ginv = ([[hinv[j][i] for j in range(n)] + [None, hiA[i]] for i in range(n)]
            + [[None] * (n + 1) + [-1.0], list(hiA) + [-1.0, gww]])
    trace = em.total([em.mul(ginv[a][b], S[a][b])
                      for a in range(m) for b in range(m)])
    lam = em.div(trace, float(m))
    res = em.max_abs([em.sub(S[a][b], em.mul(lam, g[a][b]))
                      for a in range(m) for b in range(m)])
    return em.coords, [res, lam]


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

    The compiled check evaluates it; where that declines, the numpy
    path (_symmetry_condition_numpy) runs instead and raises as its own.
    """
    out = gen.pipeline(system, "symmetry", _symmetry_tail)(
        *rs.x.tolist(), *rs.xp.tolist(), float(rs.u), float(rs.w))
    if out is not None:
        return out[0]
    return _symmetry_condition_numpy(system, gen, rs)


def _symmetry_condition_numpy(system: HerglotzSystem, gen: SymmetryGenerator,
                              rs: ReducedState) -> float:
    """symmetry_condition_residual by numpy: the error path and oracle."""
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


def _symmetry_tail(em, nodes):
    """_symmetry_condition_numpy's formula as a pipeline tail over the
    joint pass (expr.compile_forward): (x1..xn, x'1..x'n, u, w) -> the
    residual.  Every value that multiplies another is checked finite, so
    that a product dropped as a structural zero hides no nan numpy has."""
    m = em.m
    n = m - 2
    xp = [f"_p{i}" for i in range(n)]
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    K, dK = tail_vector(nodes, n)
    # FieldBundle.lagrangian: (0.5 x') h x' + A x' - V and its partials
    # (h and dh[c] are symmetric: their rows are their columns)
    half = [em.mul(0.5, x) for x in xp]
    lag = em.sub(em.add(em.dot([em.dot(half, row) for row in h], xp),
                        em.dot(A, xp)), V)
    dL = [em.sub(em.add(em.dot([em.dot(half, row) for row in dh[c]], xp),
                        em.dot(dA[c], xp)), dV[c]) for c in range(m)]
    D = [em.add(em.add(em.dot(xp, [dK[l][k] for l in range(n)]), dK[n][k]),
                em.mul(dK[n + 1][k], lag)) for k in range(m)]
    ddu = D[n]
    p = [em.add(em.dot(row, xp), A[k]) for k, row in enumerate(h)]
    v = [em.sub(D[k], em.mul(xp[k], ddu)) for k in range(n)]
    em.guard_finite(xp + [lag, ddu] + dL + p + v)
    res = em.sub(em.add(em.add(em.dot(dL, K), em.dot(p, v)),
                        em.mul(lag, ddu)), D[n + 1])
    return [*em.coords[:n], *xp, "u", "w"], [em.max_abs([res])]


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
    """Largest entry across all degreewise coefficient tensors.

    The compiled check evaluates it; where that declines,
    degreewise_identities runs instead and raises as its own.
    """
    out = gen.pipeline(system, "degreewise", _degreewise_tail)(
        *point.x.tolist(), float(point.u), float(point.w))
    if out is not None:
        return out[0]
    iden = degreewise_identities(system, gen, point)
    return max(abs(iden["quartic"]),
               float(np.max(np.abs(iden["cubic"]))) if system.n else 0.0,
               float(np.max(np.abs(iden["quadratic"]))),
               float(np.max(np.abs(iden["linear"]))),
               abs(iden["constant"]))


def _degreewise_tail(em, nodes):
    """degreewise_identities' tensors as a pipeline tail over the joint
    pass (expr.compile_forward), entry by entry, and the largest |entry|.
    The values that multiply others are checked finite, as in
    _symmetry_tail."""
    m = em.m
    n = m - 2
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    K, dK = tail_vector(nodes, n)
    a = [dK[c][n] for c in range(m)]            # partials of du
    bb = [dK[c][n + 1] for c in range(m)]       # partials of dw
    cu, cw = dK[n][:n], dK[n + 1][:n]           # d_u dx^m, d_w dx^m
    s = em.dot(A, cw)                           # A_l d_w dx^l
    t = em.add(a[n], bb[n + 1])                 # d_u du + d_w dw
    v2 = em.mul(2.0, V)
    em.guard_finite([s, t, v2])
    cubic = [em.sub(em.dot(h[k], cw), a[k]) for k in range(n)]
    # M[i][j] = h_im d_j dx^m
    M = [[em.dot(h[i], dK[j][:n]) for j in range(n)] for i in range(n)]
    quadratic = [em.sub(em.total([em.dot(K, [dh[c][i][j] for c in range(m)]),
                                  M[i][j], M[j][i], em.mul(A[i], a[j]),
                                  em.mul(a[i], A[j]), em.mul(s, h[i][j])]),
                        em.mul(t, h[i][j]))
                 for i in range(n) for j in range(n)]
    linear = [em.sub(em.sub(em.sub(
        em.total([em.dot(K, [dA[c][i] for c in range(m)]), em.dot(h[i], cu),
                  em.dot(dK[i][:n], A), em.mul(s, A[i])]),
        em.mul(v2, a[i])), bb[i]), em.mul(bb[n + 1], A[i])) for i in range(n)]
    constant = em.add(em.sub(em.sub(em.sub(
        em.add(em.sub(None, em.dot(K, dV)), em.dot(A, cu)),
        em.mul(s, V)), em.mul(V, a[n])), bb[n]), em.mul(V, bb[n + 1]))
    return em.coords, [em.max_abs([a[n + 1], *cubic, *quadratic, *linear,
                                   constant])]


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
