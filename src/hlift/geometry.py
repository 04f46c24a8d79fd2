"""Metric geometry of lifted action-dependent systems.

A HerglotzSystem is the data (h_ij, A_i, V) of fields over (x, u, w).
Its lift is the (n+2)-dimensional metric, in coordinates (x1..xn, u, w):

    g = [[ h   A   0 ]
         [ A' -2V  -1 ]
         [ 0  -1   0 ]]

so the line element is h_ij dx^i dx^j + 2 A_i dx^i du - 2 V du^2
- 2 du dw.  The (u, w) corner is fixed: g_uw = -1 and g_ww = 0 pick the
normalization of the lift inside its conformal class.

All derivative quantities (metric derivatives, Christoffel symbols,
Lie derivatives of the metric along vector fields) come from one
forward-mode pass over the coordinates; there is no symbolic
differentiation and no second-order jet anywhere.  `accelerations`
contracts `christoffel`; the Lie derivative needs neither g^{-1} nor
Gamma.  `covariant_sym_grad` compiles it over a joint pass of the
system's fields and a generator's components (SymmetryGenerator.pipeline).
Each check and right-hand side is one compiled pipeline; where it
declines a call, explain_decline raises that call's error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (AsymmetricMetricError, FieldEvalError, NonFiniteError,
                     SingularMetricError)
from .expr import _ASYMMETRY_TOL, as_field, compile_forward, free_names

__all__ = [
    "Point", "HerglotzSystem", "FieldBundle", "BrinkmannMetric",
    "CoordinateMap", "NearlySingularKineticWarning",
    "covariant_sym_grad", "conformal_factor_closed_form",
    "conformal_pullback_check", "eval_vector_fields", "solve_kinetic",
    "explain_decline",
]

_EIGEN_WARN = 1e-8
_THIN = "kinetic block h is nearly singular"
_SYM = "symmetrize"


class NearlySingularKineticWarning(UserWarning):
    """The kinetic block h has an eigenvalue close to zero."""


@dataclass
class Point:
    """A point (x, u, w) of the lifted space.  Treat as immutable."""

    x: np.ndarray
    u: float
    w: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)

    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, [self.u, self.w]])

    @staticmethod
    def from_coords(coords: Sequence[float], n: int) -> "Point":
        coords = np.asarray(coords, dtype=float)
        return Point(coords[:n].copy(), float(coords[n]), float(coords[n + 1]))


@dataclass
class FieldBundle:
    """Values and coordinate gradients of (h, A, V) at one point.

    Index convention for gradients: axis 0 runs over the n+2 coordinates
    (x1..xn, u, w), so dh[c, i, j] is the c-th partial of h_ij.
    """

    h: np.ndarray    # (n, n)
    dh: np.ndarray   # (n+2, n, n)
    A: np.ndarray    # (n,)
    dA: np.ndarray   # (n+2, n)
    V: float
    dV: np.ndarray   # (n+2,)

    def lagrangian(self, xp: np.ndarray):
        """(L, dL) at reduced velocity x': the reduced Lagrangian
        L = (1/2) h_ij x'^i x'^j + A_i x'^i - V and its n+2 coordinate
        partials at fixed x' (dL[n+1] = d L / d w)."""
        L = float(0.5 * xp @ self.h @ xp + self.A @ xp - self.V)
        return L, 0.5 * xp @ self.dh @ xp + self.dA @ xp - self.dV


class FieldPasses:
    """The compiled passes (expr.compile_forward) over a fixed list of
    field entries, and the pipelines that extend them, each built on
    first use: a catalog builds many systems and generators and
    evaluates few of them."""

    def __init__(self, entries: Sequence, n: int, name: str):
        self.entries = list(entries)
        self.n = n
        self.name = name
        self._fns = {}

    def function(self, derivatives: bool):
        """The compiled pass: f(x1..xn, u, w), a flat tuple or None where
        it declines (expr.compile_forward)."""
        fn = self._fns.get(derivatives)
        if fn is None:
            fn = self._fns[derivatives] = compile_forward(
                self.entries, self.n, derivatives, self.name)
        return fn

    def run(self, point: Point, derivatives: bool) -> tuple:
        """The pass's flat tuple at the point.  Where the pass declines,
        raise the error that belongs to the point: NonFiniteError at a
        non-finite coordinate, else the interpreter's, else (it found no
        fault) NonFiniteError for a value or partial that is not finite.
        The interpreter calls the entries' Fields in order, with
        `derivatives`; a pair, at entry i*n + j, is the off-diagonal
        entry h_ij of a system, which raises AsymmetricMetricError where
        its two fields differ by more than 1e-12."""
        out = self.function(derivatives)(*point.x.tolist(), float(point.u),
                                         float(point.w))
        if out is not None:
            return out
        coords = [float(c) for c in point.coords()]
        for c in coords:
            if not math.isfinite(c):
                raise NonFiniteError(f"cannot seed non-finite coordinate {c!r}")
        n = self.n
        x, u, w = coords[:n], coords[n], coords[n + 1]
        for p, e in enumerate(self.entries):
            if not isinstance(e, tuple):
                e(x, u, w, derivatives)
                continue
            a, b = e[0](x, u, w, derivatives), e[1](x, u, w, derivatives)
            if abs(a - b) > _ASYMMETRY_TOL:
                i, j = divmod(p, n)
                raise AsymmetricMetricError(
                    f"{self.name}: h[{i + 1},{j + 1}]={a!r} vs "
                    f"h[{j + 1},{i + 1}]={b!r} at u={u!r}")
        raise NonFiniteError(f"{self.name}: a value or partial is not finite "
                             f"at {coords}")

    def pipeline(self, kind, tail, derivatives: bool = True):
        """The derivative pass, or the values pass, extended by `tail`
        into the pipeline function `kind` (expr.compile_forward), built
        on first use.  `kind` is a name, or (system, ..., name) for a
        pipeline over those systems' fields too: systems of this
        dimension, named in the function's label and passed to
        tail(system, ..., emitter, nodes)."""
        fn = self._fns.get(kind)
        if fn is None:
            label, systems = kind, ()
            if not isinstance(kind, str):
                *systems, name = kind
                for system in systems:
                    if system.n != self.n:
                        raise ValueError(f"{self.name} has dimension {self.n}, "
                                         f"{system.name} has {system.n}")
                label = " ".join([system.name for system in systems] + [name])
            fn = self._fns[kind] = compile_forward(
                self.entries, self.n, derivatives, f"{self.name} {label}",
                functools.partial(tail, *systems))
        return fn


class HerglotzSystem:
    """Field data (h, A, V) of an n-dimensional action-dependent system.

    `h` is an n x n nest of field sources (expression strings, numbers or
    Fields), `A` a length-n list, `V` a single source.  Expression
    sources may reference x1..xn, u, w and any name in `params`.

    h is symmetrized on evaluation; if the two off-diagonal entries ever
    disagree by more than 1e-12 the evaluation raises
    AsymmetricMetricError, since that signals a typo rather than noise.

    eval_values and eval_bundle run one compiled straight-line pass over
    all fields (expr.compile_forward); FieldPasses.run explains a point
    where the pass declines.  `pipeline` extends the pass into a compiled
    right-hand side.
    `w_dependent` is True when some field's expression mentions w.
    """

    def __init__(self, n: int, h, A, V, params=None, name: str = ""):
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        self.n = int(n)
        self.name = name or f"system(n={n})"
        self.params = dict(params or {})
        h = list(h)
        if len(h) != n or any(len(row) != n for row in h):
            raise ValueError(f"h must be {n}x{n}")
        if len(list(A)) != n:
            raise ValueError(f"A must have length {n}")
        self.h = [[as_field(h[i][j], n, self.params, f"h{i + 1}{j + 1}")
                   for j in range(n)] for i in range(n)]
        self.A = [as_field(a, n, self.params, f"A{i + 1}")
                  for i, a in enumerate(A)]
        self.V = as_field(V, n, self.params, "V")
        # the compiled passes cover h (row-major; each off-diagonal entry
        # is the guarded symmetric pair of the upper triangle), A and V
        pairs = {(i, j): (self.h[i][j], self.h[j][i])
                 for i in range(n) for j in range(i + 1, n)}
        entries = [self.h[i][i] if i == j else pairs[min(i, j), max(i, j)]
                   for i in range(n) for j in range(n)]
        self._passes = FieldPasses(entries + self.A + [self.V], n, self.name)
        fields = [f for row in self.h for f in row] + self.A + [self.V]
        self.w_dependent = any("w" in free_names(f.ast) for f in fields)

    def eval_values(self, point: Point):
        """(h, A, V) as plain float arrays at a point."""
        out = self._passes.run(point, False)
        n2 = self.n * self.n
        a = np.array(out)
        return a[:n2].reshape(self.n, self.n), a[n2:-1], out[-1]

    def eval_bundle(self, point: Point) -> FieldBundle:
        """Values plus all first coordinate derivatives, one forward pass
        (FieldPasses.run raises the error of a point it declines)."""
        n = self.n
        out = self._passes.run(point, True)
        n2 = n * n
        k = n2 + n + 1
        a = np.array(out)
        g = a[k:].reshape(n + 2, k)
        return FieldBundle(a[:n2].reshape(n, n), g[:, :n2].reshape(n + 2, n, n),
                           a[n2:k - 1], g[:, n2:k - 1], out[k - 1], g[:, k - 1])

    def pipeline(self, kind: str, tail, derivatives: bool = True):
        """The compiled pipeline function `kind`, which `tail` builds on
        first use (FieldPasses.pipeline); cached with the field passes."""
        return self._passes.pipeline(kind, tail, derivatives)


def _min_abs_eigenvalue(h: np.ndarray) -> float:
    n = h.shape[0]
    if n == 1:
        return abs(h[0, 0])
    if n == 2:
        # closed form avoids a LAPACK call in the stepping hot path
        tr = h[0, 0] + h[1, 1]
        disc = np.sqrt(max((h[0, 0] - h[1, 1]) ** 2 + 4.0 * h[0, 1] * h[1, 0], 0.0))
        return min(abs(0.5 * (tr - disc)), abs(0.5 * (tr + disc)))
    return float(np.min(np.abs(np.linalg.eigvalsh(h))))


def solve_kinetic(h: np.ndarray, rhs: Optional[np.ndarray], context: str
                  ) -> np.ndarray:
    """h^{-1} rhs, or h^{-1} itself when rhs is None: the one guarded
    kinetic solve.

    Warns NearlySingularKineticWarning when min |eig h| < 1e-8 and raises
    SingularMetricError where h cannot be inverted.  For n <= 2 the
    closed-form inverse dodges LAPACK dispatch; emit_kinetic_solve is its
    compiled form.
    """
    if _min_abs_eigenvalue(h) < _EIGEN_WARN:
        warnings.warn(_THIN, NearlySingularKineticWarning, stacklevel=3)
    n = h.shape[0]
    if n == 1:
        a = h[0, 0]
        if a == 0.0:
            raise SingularMetricError(f"{context}: kinetic block is zero")
        inv = np.array([[1.0 / a]])
    elif n == 2:
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if det == 0.0:
            raise SingularMetricError(f"{context}: kinetic block not invertible")
        inv = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]]) / det
    else:
        try:
            return np.linalg.inv(h) if rhs is None else np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError as err:
            raise SingularMetricError(f"{context}: kinetic block not invertible "
                                      f"({err})") from None
    return inv if rhs is None else inv @ rhs


def emit_kinetic_solve(em, h: list, cols: list) -> list:
    """solve_kinetic in a pipeline tail: the solution of h x = c for each
    right side c in `cols`, h and c given as emitter values.

    Where min |eig h| < 1e-8 the code warns NearlySingularKineticWarning
    as solve_kinetic does, once per call, and carries on (emitter.warn).
    It declines (returns None) where solve_kinetic raises (det h == 0;
    for n > 2, where numpy's solve fails) and at an overflow that the
    numpy arithmetic would warn about.
    """
    n = len(h)
    ref = lambda v: em.ref(0.0 if v is None else v)
    if n > 2:
        em.globals.update(_np_array=np.array, _np_solve=np.linalg.solve,
                          _min_abs_eigenvalue=_min_abs_eigenvalue)

        def mat(rows):      # nested tuple literal
            return "(" + ", ".join("(" + ", ".join(map(ref, row)) + ",)"
                                   for row in rows) + ",)"
        hm = em.let(f"_np_array({mat(h)})")
        eig = em.let(f"_min_abs_eigenvalue({hm})")
        sol = em.let(f"_np_solve({hm}, _np_array({mat(zip(*cols))})).tolist()")
        out = [[em.let(f"{sol}[{i}][{k}]") for i in range(n)]
               for k in range(len(cols))]
        em.guard_finite([e for col in out for e in col])
    else:
        if n == 1:
            # the division declines at h == 0, where solve_kinetic raises
            eig = f"abs({ref(h[0][0])})"
            inv = [[em.op(1.0, "/", h[0][0])]]
        else:
            (h00, h01), (h10, h11) = h
            # _min_abs_eigenvalue's closed form, op for op
            tr = em.op(h00, "+", h11)
            d = em.op(h00, "-", h11)
            q = em.op(em.op(d, "*", d), "+",
                      em.op(em.op(4.0, "*", h01), "*", h10))
            em.guard_finite([tr, q])
            tr, q = ref(tr), ref(q)
            disc = em.let(f"_sqrt({q}) if {q} > 0.0 else 0.0")
            eig = em.let(f"min(abs(0.5 * ({tr} - {disc})), "
                         f"abs(0.5 * ({tr} + {disc})))")
            det = em.op(em.op(h00, "*", h11), "-", em.op(h01, "*", h10))
            em.guard_finite([det])
            em.guard(f"{ref(det)} == 0.0")
            inv = [[em.div(h11, det), em.div(em.sub(None, h01), det)],
                   [em.div(em.sub(None, h10), det), em.div(h00, det)]]
        # numpy computes every entry, also those a structural zero multiplies
        em.guard_finite([e for row in inv for e in row])
        out = [[em.total([em.mul(inv[i][j], c[j]) for j in range(n)])
                for i in range(n)] for c in cols]
    em.warn(f"not ({eig} >= {_EIGEN_WARN!r})", NearlySingularKineticWarning,
            _THIN)
    return out


@contextlib.contextmanager
def explain_decline(label: str, args):
    """Explain a call that the compiled pipeline `label` declined with
    the arguments `args`: the block raises its error, and never
    completes.

    The block reruns, in the order the formula reads them, the steps
    that can be at fault: the field passes (FieldPasses.run raises the
    error of a point a pass declines), solve_kinetic on h (which warns
    and raises as its own) and a check's own guard.  Whatever the block
    raises propagates.  numpy arithmetic in it that would warn, and a
    block that raises nothing, raise NonFiniteError: the pipeline
    declines where a value it computes is not finite.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        pass
    raise NonFiniteError(f"{label}: a value is not finite at {list(args)}")


class BrinkmannMetric:
    """The lifted metric of a HerglotzSystem, with derivative machinery."""

    def __init__(self, system: HerglotzSystem):
        self.system = system
        self.dim = system.n + 2

    # -- assembly ------------------------------------------------------

    def eval(self, point: Point) -> np.ndarray:
        h, A, V = self.system.eval_values(point)
        return self._assemble(h, A, V)

    def _assemble(self, h: np.ndarray, A: np.ndarray, V: float) -> np.ndarray:
        n = self.system.n
        g = np.zeros((self.dim, self.dim))
        g[:n, :n] = h
        g[:n, n] = A
        g[n, :n] = A
        g[n, n] = -2.0 * V
        g[n, n + 1] = -1.0
        g[n + 1, n] = -1.0
        return g

    def eval_with_derivatives(self, point: Point, bundle: Optional[FieldBundle] = None):
        """(g, dg) with dg[c, mu, nu] the c-th coordinate partial."""
        n = self.system.n
        b = bundle if bundle is not None else self.system.eval_bundle(point)
        g = self._assemble(b.h, b.A, b.V)
        dg = np.zeros((self.dim, self.dim, self.dim))
        dg[:, :n, :n] = b.dh
        dg[:, :n, n] = b.dA
        dg[:, n, :n] = b.dA
        dg[:, n, n] = -2.0 * b.dV
        return g, dg

    # -- inverse (block closed form) -----------------------------------

    def inverse(self, point: Point, bundle: Optional[FieldBundle] = None) -> np.ndarray:
        if bundle is not None:
            h, A, V = bundle.h, bundle.A, bundle.V
        else:
            h, A, V = self.system.eval_values(point)
        return self._inverse_from(h, A, V)

    def _inverse_from(self, h: np.ndarray, A: np.ndarray, V: float) -> np.ndarray:
        n = self.system.n
        hinv = solve_kinetic(h, None, self.system.name)
        hiA = hinv @ A
        ginv = np.zeros((self.dim, self.dim))
        ginv[:n, :n] = hinv
        ginv[:n, n + 1] = hiA
        ginv[n + 1, :n] = hiA
        ginv[n, n + 1] = -1.0
        ginv[n + 1, n] = -1.0
        ginv[n + 1, n + 1] = 2.0 * V + A @ hiA
        return ginv

    # -- Christoffel symbols -------------------------------------------

    def christoffel(self, point: Point, bundle: Optional[FieldBundle] = None) -> np.ndarray:
        """Gamma[mu, nu, rho] = (1/2) g^{mu s} (d_nu g_{s rho}
        + d_rho g_{s nu} - d_s g_{nu rho}); exactly symmetric in (nu, rho)."""
        b = bundle if bundle is not None else self.system.eval_bundle(point)
        g, dg = self.eval_with_derivatives(point, b)
        ginv = self._inverse_from(b.h, b.A, b.V)
        m = self.dim
        term = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
        return 0.5 * (ginv @ term.reshape(m, m * m)).reshape(m, m, m)

    def accelerations(self, point: Point, velocity: np.ndarray,
                      bundle: Optional[FieldBundle] = None) -> np.ndarray:
        """-Gamma^mu_{nu rho} v^nu v^rho, the contraction of christoffel."""
        return -(self.christoffel(point, bundle) @ velocity) @ velocity

    def geodesic_function(self):
        """The compiled geodesic right-hand side of the first-order system
        y = (x, u, w, xdot, udot, wdot): f(y_0, ..., y_{2m-1}) returns
        (ydot_0, ..., ydot_{2m-1}, null residual), where ydot carries the
        velocities and then the accelerations of `accelerations`, or None
        where the field pass or the kinetic solve declines or an output
        is not finite (emit_kinetic_solve); eval_bundle with
        accelerations is the oracle that the factored contraction is
        tested against.  Built on first use and cached with the system's
        field passes."""
        return self.system.pipeline("geodesic", _geodesic_tail)


def tail_bundle(nodes, n: int):
    """A HerglotzSystem pass's nodes, as a pipeline tail sees them: its
    emitter values laid out like FieldBundle's (h, dh, A, dA, V, dV),
    nested lists indexed as its arrays are (None: a structural zero)."""
    def d(node, c):
        return None if node[1] is None else node[1][c]

    h = [[nodes[i * n + j] for j in range(n)] for i in range(n)]
    A = nodes[n * n:n * n + n]
    V = nodes[n * n + n]
    cs = range(n + 2)
    return ([[e[0] for e in row] for row in h],
            [[[d(e, c) for e in row] for row in h] for c in cs],
            [a[0] for a in A], [[d(a, c) for a in A] for c in cs],
            V[0], [d(V, c) for c in cs])


def tail_values(em, system: HerglotzSystem, coords=None):
    """A system's (h, A, V) in a pipeline tail, laid out like eval_values'
    arrays, by its values pass inline at `coords` (emitter.values).  The
    tail declines where one is not finite: a structural zero downstream
    must not drop it."""
    n = system.n
    vals = em.values(system._passes.entries, coords)
    em.guard_finite(vals)
    return [vals[i * n:(i + 1) * n] for i in range(n)], vals[n * n:-1], vals[-1]


def tail_lagrangian(em, h, A, V, xp):
    """FieldBundle.lagrangian's L = (0.5 x') h x' + A x' - V over emitter
    values (h symmetric: its rows are its columns)."""
    half = [em.mul(0.5, x) for x in xp]
    return em.sub(em.add(em.dot([em.dot(half, row) for row in h], xp),
                         em.dot(A, xp)), V)


def _geodesic_tail(em, nodes):
    """accelerations' -Gamma v v, factored as -g^{mu s} [ (v . d) g_{s rho}
    v^rho - (1/2) d_s (g v v) ] = -g^{-1}(M v - q/2) over the Brinkmann
    blocks of g and dg, plus the null residual term for term as
    dynamics.null_residual computes it (a pipeline tail, see
    expr.compile_forward)."""
    m = em.m
    n = m - 2
    v = [f"_v{c}" for c in range(m)]
    xd, ud, wd = v[:n], v[n], v[n + 1]
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    # P[c] = dg_c v, whose w entry is zero
    P = [[em.add(em.dot(dh[c][s], xd), em.mul(dA[c][s], ud)) for s in range(n)]
         + [em.sub(em.dot(dA[c], xd), em.mul(em.mul(2.0, dV[c]), ud))]
         for c in range(m)]
    # r = M v - q/2, with (M v)_s = v^c P[c]_s and q_c = v^s P[c]_s
    Mv = [em.dot(v, [P[c][s] for c in range(m)]) for s in range(n + 1)]
    r = [em.sub(Mv[s] if s <= n else None, em.mul(0.5, em.dot(v, P[s])))
         for s in range(m)]
    s_x, hiA = emit_kinetic_solve(em, h, [r[:n], A])
    gww = em.add(em.mul(2.0, V), em.dot(A, hiA))
    em.guard_finite(hiA + [gww])        # the rest of g^{-1}, as numpy has it
    # rows of -g^{-1}: x from (h^{-1}, h^{-1}A), u from g^{uw} = -1,
    # w from (h^{-1}A, -1, 2V + A.h^{-1}A)
    acc = [em.sub(None, em.add(s_x[i], em.mul(hiA[i], r[n + 1])))
           for i in range(n)]
    acc.append(r[n + 1])
    acc.append(em.sub(None, em.add(em.sub(em.dot(hiA, r), r[n]),
                                   em.mul(gww, r[n + 1]))))
    # (1/2) g(v, v), in dynamics.null_residual's order
    quad = em.dot([em.dot(row, xd) for row in h], xd)
    null = em.sub(em.sub(em.add(em.mul(0.5, quad), em.mul(em.dot(A, xd), ud)),
                         em.mul(em.mul(V, ud), ud)), em.mul(ud, wd))
    return em.coords + v, v + acc + [null]


# -- vector fields over the lifted space -------------------------------

def eval_vector_fields(passes: FieldPasses, point: Point):
    """Values and coordinate gradients of the fields of a FieldPasses
    over (x, u, w), by its compiled derivative pass.  Returns
    (vals, grads) with grads[c, k] the c-th partial of field k."""
    out = passes.run(point, True)
    k = len(passes.entries)
    a = np.array(out)
    return a[:k], a[k:].reshape(passes.n + 2, k)


def covariant_sym_grad(metric: BrinkmannMetric, gen, point: Point) -> np.ndarray:
    """S_{mu nu} = nabla_mu K_nu + nabla_nu K_mu for the vector field K
    with components (gen.dx, gen.du, gen.dw), as the Lie derivative
    (L_K g)_{mu nu} = K^c d_c g_{mu nu} + g_{c nu} d_mu K^c
    + g_{mu c} d_nu K^c, which needs first derivatives only.

    One compiled pipeline over the joint pass of the system's fields and
    the generator's components (SymmetryGenerator.pipeline) evaluates
    it; where that declines, explain_decline raises the point's error."""
    args = (*point.x.tolist(), float(point.u), float(point.w))
    out = gen.pipeline(metric.system, "lie-derivative", _lie_tail)(*args)
    if out is None:
        with explain_decline(f"{metric.system.name} {gen.name} lie-derivative",
                             args):
            metric.system.eval_bundle(point)
            gen.components_at(point)
    m = metric.dim
    return np.array(out, dtype=float).reshape(m, m)


def tail_vector(nodes, n: int):
    """The generator nodes of a joint pass (the n+2 entries after the
    system's), as a pipeline tail sees them: (K, dK) laid out like
    components_at's arrays, dK[c][k] the c-th partial of component k
    (None: a structural zero)."""
    comps = nodes[n * n + n + 1:]
    return ([k[0] for k in comps],
            [[None if k[1] is None else k[1][c] for k in comps]
             for c in range(n + 2)])


def _tail_metric(h, A, uu, uw):
    """g's layout (BrinkmannMetric._assemble) over emitter values: the h
    block, the A column and row, g_uu and g_uw."""
    n = len(A)
    return ([list(h[i]) + [A[i], None] for i in range(n)]
            + [list(A) + [uu, uw], [None] * n + [uw, None]])


def lie_entries(em, nodes):
    """(g, S): the metric and the Lie derivative S = K . dg + M + M^T,
    M = dK g, entry by entry."""
    m = em.m
    n = m - 2
    h, dh, A, dA, V, dV = tail_bundle(nodes, n)
    K, dK = tail_vector(nodes, n)
    g = _tail_metric(h, A, em.mul(-2.0, V), -1.0)
    dg = [_tail_metric(dh[c], dA[c], em.mul(-2.0, dV[c]), None)
          for c in range(m)]
    # M[mu][nu] = d_mu K^c g_{c nu}, over the rows of the symmetric g
    M = [[em.dot(dK[mu], g[nu]) for nu in range(m)] for mu in range(m)]
    S = [[em.add(em.add(em.dot(K, [dg[c][mu][nu] for c in range(m)]),
                        M[mu][nu]), M[nu][mu])
          for nu in range(m)] for mu in range(m)]
    return g, S


def _lie_tail(em, nodes):
    """covariant_sym_grad's S, row-major (a pipeline tail, see
    expr.compile_forward)."""
    _, S = lie_entries(em, nodes)
    return em.coords, [e for row in S for e in row]


def conformal_factor_closed_form(system: HerglotzSystem, gen, point: Point) -> float:
    """d_u(du) + d_w(dw) - A_i d_w(dx^i), the closed form the trace
    reproduces whenever the generator actually satisfies the symmetry
    identities.  Compared against symmetry.conformal_factor only in
    tests."""
    n = system.n
    _, A, _ = system.eval_values(point)
    _, dK = gen.components_at(point)
    return float(dK[n, n] + dK[n + 1, n + 1] - A @ dK[n + 1, :n])


# -- coordinate maps and conformal pullback ----------------------------

class CoordinateMap:
    """A smooth map of the lifted space, one field per output coordinate.

    Components are field sources over (x1..xn, u, w); the output has the
    same dimension n+2.  They are evaluated by one compiled pass, with
    derivatives for the Jacobian and without for the image alone.  The
    checks that relate two systems through the map extend its derivative
    pass into pipelines (`pipeline`).
    """

    def __init__(self, n: int, components, params=None, name: str = "map"):
        self.n = n
        self.dim = n + 2
        if len(components) != self.dim:
            raise ValueError(f"need {self.dim} components, got {len(components)}")
        self.components = [as_field(c, n, params, f"{name}[{k}]")
                           for k, c in enumerate(components)]
        self.name = name
        self._passes = FieldPasses(self.components, n, name)

    def __call__(self, point: Point) -> Point:
        return Point.from_coords(self._passes.run(point, False), self.n)

    def value_and_jacobian(self, point: Point):
        """(image coords, J) with J[out, in] = d out / d in."""
        vals, grads = eval_vector_fields(self._passes, point)
        return vals, grads.T

    def pipeline(self, system_a: HerglotzSystem, system_b: HerglotzSystem,
                 kind: str, tail):
        """The compiled pipeline function `kind` over the map's derivative
        pass (expr.compile_forward), for system_a at a point and system_b
        at its image: tail(system_a, system_b, emitter, nodes) builds it
        on first use, and the map's passes cache it per pair of systems
        (FieldPasses.pipeline)."""
        return self._passes.pipeline((system_a, system_b, kind), tail)


def conformal_pullback_check(metric_a: BrinkmannMetric, metric_b: BrinkmannMetric,
                             cmap: CoordinateMap, point: Point, omega,
                             params=None) -> float:
    """max | (J^T g_b(Phi(p)) J) - Omega(p) g_a(p) |.

    Zero means Phi pulls metric_b back to Omega times metric_a at p.
    `omega` is any field source over (x, u, w), evaluated by
    Field.__call__.  One compiled pipeline over the map's pass evaluates
    the rest (CoordinateMap.pipeline); where Omega or that declines,
    explain_decline raises the point's error.
    """
    omega_f = as_field(omega, metric_a.system.n, params, name="omega")
    x, u, w = point.x.tolist(), float(point.u), float(point.w)
    try:
        om = omega_f(x, u, w)
    except FieldEvalError:
        out = None
    else:
        out = cmap.pipeline(metric_a.system, metric_b.system, "pullback",
                            _pullback_tail)(*x, u, w, om)
    if out is None:
        label = (f"{cmap.name} {metric_a.system.name} {metric_b.system.name} "
                 "pullback")
        with explain_decline(label, (*x, u, w)):
            vals, _ = cmap.value_and_jacobian(point)
            metric_b.system.eval_values(Point.from_coords(vals, cmap.n))
            metric_a.system.eval_values(point)
            omega_f(x, u, w)
    return out[0]


def _pullback_tail(system_a, system_b, em, nodes):
    """max |J^T g_b J - Omega g_a| as a pipeline tail
    over the map's derivative pass (CoordinateMap.pipeline), with Omega
    the parameter _om, g_a from system_a's values at the point and g_b
    from system_b's at the image (tail_values)."""
    m = em.m
    J = [[None if k[1] is None else k[1][c] for c in range(m)] for k in nodes]
    g_a, g_b = (_tail_metric(h, A, em.mul(-2.0, V), -1.0)
                for h, A, V in (tail_values(em, system_a),
                                tail_values(em, system_b, [k[0] for k in nodes])))
    # (J^T g_b) J, as numpy groups it; Omega reaches the outputs through
    # the fixed g_uw = -1, so max_abs checks it finite
    JTg = [[em.dot([J[c][a] for c in range(m)], [g_b[c][d] for c in range(m)])
            for d in range(m)] for a in range(m)]
    res = [em.sub(em.dot(JTg[a], [J[d][b] for d in range(m)]),
                  em.mul("_om", g_a[a][b])) for a in range(m) for b in range(m)]
    return [*em.coords, "_om"], [em.max_abs(res)]
