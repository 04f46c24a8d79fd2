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

Each check is one compiled pipeline over a joint pass of a system's
fields and a generator's components, or over a coordinate map's pass;
where it declines a call, geometry.explain_decline raises that call's
error.

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
                       HerglotzSystem, Point, covariant_sym_grad,
                       emit_kinetic_solve, eval_vector_fields,
                       explain_decline, lie_entries, solve_kinetic,
                       tail_bundle, tail_lagrangian, tail_values, tail_vector)

__all__ = [
    "SymmetryGenerator", "killing_residual", "conformal_killing_residual",
    "conformal_factor",
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
    """max entry of L_K g = nabla K + (nabla K)^T at the point.

    The maximum of |S| is exact, so it is taken on Python floats; a
    non-finite entry, or finite entries whose sum overflows, make the
    sum non-finite, and numpy's reduction answers instead (nan for a
    nan entry)."""
    S = covariant_sym_grad(metric, gen, point)
    vals = S.ravel().tolist()
    total = sum(vals)
    if total - total != 0.0:
        return float(np.max(np.abs(S)))
    return max(map(abs, vals))


def conformal_killing_residual(metric: BrinkmannMetric, gen: SymmetryGenerator,
                               point: Point) -> Tuple[float, float]:
    """(max |S - lambda g|, lambda) with lambda the trace part of S.

    Zero residual means K generates a conformal isometry with factor
    lambda at this point.  The compiled check evaluates it; where that
    declines, explain_decline raises the point's error.
    """
    args = (*point.x.tolist(), float(point.u), float(point.w))
    out = gen.pipeline(metric.system, "conformal-killing",
                       _conformal_killing_tail)(*args)
    if out is None:
        system = metric.system
        with explain_decline(f"{system.name} {gen.name} conformal-killing",
                             args):
            b = system.eval_bundle(point)
            gen.components_at(point)
            solve_kinetic(b.h, None, system.name)
    return out


def conformal_factor(metric: BrinkmannMetric, gen: SymmetryGenerator,
                     point: Point) -> float:
    """Trace part of the symmetrized covariant gradient:
    lambda = g^{mu nu} S_{mu nu} / (n + 2).

    For a conformal Killing field this is the factor in S = lambda g; for
    anything else it is just the trace projection.
    """
    return conformal_killing_residual(metric, gen, point)[1]


def _conformal_killing_tail(em, nodes):
    """conformal_killing_residual's lambda = g^{mu nu} S_{mu nu} / (n + 2)
    and the residual max |S - lambda g| as a pipeline tail over the joint
    pass (expr.compile_forward), with g^{-1} from the kinetic solve of the
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

    The compiled check evaluates it; where that declines, explain_decline
    raises the state's error.
    """
    args = (*rs.x.tolist(), *rs.xp.tolist(), float(rs.u), float(rs.w))
    out = gen.pipeline(system, "symmetry", _symmetry_tail)(*args)
    if out is None:
        with explain_decline(f"{system.name} {gen.name} symmetry", args):
            system.eval_bundle(rs.point())
            gen.components_at(rs.point())
    return out[0]


def _symmetry_tail(em, nodes):
    """symmetry_condition_residual's formula as a pipeline tail over the
    joint pass (expr.compile_forward): (x1..xn, x'1..x'n, u, w) -> the
    residual, with L and its partials as FieldBundle.lagrangian has them,
    the total u-derivatives of the components D = x'^l d_l K + d_u K
    + L d_w K and the momenta p = h x' + A:
    |dL . K + p . (D_x - x' D_u) + L D_u - D_w|.  Every value that
    multiplies another is checked finite, so that a product dropped as a
    structural zero hides no nan."""
    m = em.m
    n = m - 2
    xp = [f"_p{i}" for i in range(n)]
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    K, dK = tail_vector(nodes, n)
    # FieldBundle.lagrangian: L and its partials (dh[c] is symmetric)
    half = [em.mul(0.5, x) for x in xp]
    lag = tail_lagrangian(em, h, A, V, xp)
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

    The compiled check evaluates it; where that declines, explain_decline
    raises the point's error.
    """
    args = (*point.x.tolist(), float(point.u), float(point.w))
    out = gen.pipeline(system, "degreewise", _degreewise_tail)(*args)
    if out is None:
        with explain_decline(f"{system.name} {gen.name} degreewise", args):
            system.eval_bundle(point)
            gen.components_at(point)
    return out[0]


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
    h, A, V = system.eval_values(rs.point())
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


# 3-point Gauss-Legendre on [0, 1], (node, weight): exact for degree 5
_GAUSS3 = ((0.5 - math.sqrt(15.0) / 10.0, 5.0 / 18.0), (0.5, 8.0 / 18.0),
           (0.5 + math.sqrt(15.0) / 10.0, 5.0 / 18.0))


def nonlocal_charge(system: HerglotzSystem, gen: SymmetryGenerator,
                    rt: ReducedTrajectory):
    """(u grid, exp(-int dL/dw du) times the reduced charge).

    The integral runs from the first sample; each step contributes a
    3-point Gauss-Legendre rule on the dense output, whose error per step,
    O(h^7), stays below the flow's own.
    """
    u, qs = charge_series(system, gen, rt)
    integral = [0.0]
    for u0, u1 in zip(u.tolist(), u[1:].tolist()):
        du = u1 - u0
        integral.append(integral[-1] + du * sum(
            wt * lagrangian_w_slope(system, rt.state_at(u0 + a * du))
            for a, wt in _GAUSS3))
    return u, np.exp(-np.array(integral)) * qs


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

    One compiled pipeline over the map's derivative pass evaluates it
    (CoordinateMap.pipeline); where that declines, explain_decline raises
    the state's error: SingularJacobianError where |du'/du| < 1e-12.
    """
    args = (*rs.x.tolist(), *rs.xp.tolist(), float(rs.u), float(rs.w))
    out = cmap.pipeline(system_a, system_b, "transform-rule",
                        _transform_rule_tail)(*args)
    if out is None:
        n = system_a.n
        label = f"{cmap.name} {system_a.name} {system_b.name} transform-rule"
        with explain_decline(label, args):
            # the formula's inputs in the order it reads them: system_a's
            # values, the map's pass, du'/du and system_b's values at the
            # image
            lag_a = reduced_lagrangian(system_a, rs)
            vals, J = cmap.value_and_jacobian(rs.point())
            dup_du = (J @ np.concatenate([rs.xp, [1.0, lag_a]]))[n]
            if abs(dup_du) < 1e-12:
                raise SingularJacobianError(
                    f"{cmap.name}: du'/du = {dup_du!r} is not invertible at "
                    "the state")
            system_b.eval_values(Point.from_coords(vals, n))
    return out[0]


def _transform_rule_tail(system_a, system_b, em, nodes):
    """transform_rule_check's formula as a pipeline tail over the map's
    derivative pass (CoordinateMap.pipeline): (x1..xn, x'1..x'n, u, w)
    -> the residual, with L_a from system_a's values at the point and L_b
    from system_b's at the image (tail_values).  It declines where
    |du'/du| < 1e-12, and, as _symmetry_tail, unless every value that
    multiplies another is finite."""
    m = em.m
    n = m - 2
    xp = [f"_p{i}" for i in range(n)]
    em.guard_finite(xp)
    lag_a = tail_lagrangian(em, *tail_values(em, system_a), xp)
    em.guard_finite([lag_a])
    # the chain rule along the motion: d/du = x'^l d_l + d_u + L d_w
    tang = xp + [1.0, lag_a]
    rates = [em.dot([None if k[1] is None else k[1][c] for c in range(m)], tang)
             for k in nodes]
    em.guard_finite(rates)
    dup = 0.0 if rates[n] is None else rates[n]
    em.guard(f"abs({em.ref(dup)}) < 1e-12")
    xp_b = [em.div(r, dup) for r in rates[:n]]
    em.guard_finite(xp_b)
    lag_b = tail_lagrangian(
        em, *tail_values(em, system_b, [k[0] for k in nodes]), xp_b)
    return ([*em.coords[:n], *xp, "u", "w"],
            [em.max_abs([em.sub(em.mul(lag_b, dup), rates[n + 1])])])
