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
system's fields and a generator's components (SymmetryGenerator.joint).

Each check and right-hand side is one compiled pipeline; FieldPasses
builds, caches, names, calls and, where it declines a call, explains
them all.
"""

from __future__ import annotations

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
    "covariant_sym_grad", "conformal_pullback_check", "eval_vector_fields",
    "solve_kinetic",
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


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis, broadcast over the leading ones: a matmul
    of a row by a column, which numpy computes as the dot of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v, broadcast over leading axes: a matmul of M by a column, which
    numpy computes as M @ v with v a vector."""
    return (M @ v[..., :, None])[..., 0]


@dataclass
class FieldBundle:
    """Values and coordinate gradients of (h, A, V) at one point, or at
    many: then every field carries the same leading sample axes.

    Index convention for gradients: the first axis after the sample axes
    runs over the n+2 coordinates (x1..xn, u, w), so dh[c, i, j] is the
    c-th partial of h_ij.
    """

    h: np.ndarray    # (n, n)
    dh: np.ndarray   # (n+2, n, n)
    A: np.ndarray    # (n,)
    dA: np.ndarray   # (n+2, n)
    V: float         # or an array over the sample axes
    dV: np.ndarray   # (n+2,)

    def lagrangian(self, xp: np.ndarray):
        """(L, dL) at reduced velocity x': the reduced Lagrangian
        L = (1/2) h_ij x'^i x'^j + A_i x'^i - V and its n+2 coordinate
        partials at fixed x' (dL[n+1] = d L / d w); at one point L is a
        float, over sample axes an array like V."""
        half = 0.5 * xp
        L = (_dot((half[..., None, :] @ self.h)[..., 0, :], xp)
             + _dot(self.A, xp) - self.V)
        dL = (_mv((half[..., None, None, :] @ self.dh)[..., 0, :], xp)
              + _mv(self.dA, xp) - self.dV)
        return (float(L) if np.ndim(L) == 0 else L), dL


def as_dimension(n) -> int:
    """n, the dimension of a system, generator or map; ValueError unless
    it is an int (not a bool) of at least 1."""
    if type(n) is not int:          # a bool is no dimension
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return n


class FieldPasses:
    """The compiled pipelines (expr.compile_forward) over a fixed list of
    field entries, each built on first use (a catalog builds many systems
    and generators and evaluates few of them), cached under (kind,
    *systems) and named by `label`.  The bare passes are the tail-less
    pipelines "values" and "derivatives" (`run`)."""

    def __init__(self, entries: Sequence, n: int, name: str):
        self.entries = list(entries)
        self.n = n
        self.name = name
        self._fns = {}

    def label(self, kind: str, systems=()) -> str:
        """The name of the generated code's file, <forward label ...>, and
        of the errors of the calls the pipeline declines (`explain`)."""
        return " ".join(map(str, [self.name, *[s.name for s in systems],
                                  kind]))

    def check_dimension(self, systems) -> None:
        """ValueError unless every one of `systems` has this dimension."""
        for system in systems:
            if system.n != self.n:
                raise ValueError(f"{self.name} has dimension {self.n}, "
                                 f"{system.name} has {system.n}")

    def pipeline(self, kind: str, tail, *systems, derivatives: bool = True):
        """The derivative pass, or the values pass, extended by
        tail(*systems, emitter, nodes) into the pipeline function `kind`
        (expr.compile_forward); without a tail, the bare pass.  `systems`
        are systems of this dimension whose fields the tail reads."""
        key = (kind,) + systems
        fn = self._fns.get(key)
        if fn is None:
            self.check_dimension(systems)
            fn = self._fns[key] = compile_forward(
                self.entries, self.n, derivatives, self.label(kind, systems),
                tail and functools.partial(tail, *systems))
        return fn

    def call(self, kind: str, tail, args, steps, *context, systems=(),
             derivatives: bool = True):
        """The pipeline's outputs at `args`; where it declines the call,
        the error that its steps explain (`explain`).  `systems` is a
        tuple."""
        fn = self._fns.get((kind,) + systems)
        if fn is None:
            fn = self.pipeline(kind, tail, *systems, derivatives=derivatives)
        out = fn(*args)
        if out is None:
            self.explain(kind, args, steps, *context, systems=systems)
        return out

    def explain(self, kind: str, args, steps, *context, systems=()):
        """Raise the error of a call with the arguments `args` that the
        pipeline declined.  steps(*systems, *context) reruns, in the
        formula's order, the steps that can be at fault: the field passes
        (`run` raises the error of a point a pass declines), solve_kinetic
        on h (which warns and raises as its own) and a check's own guard.
        Whatever they raise propagates.  numpy arithmetic in them that
        would warn, and steps that raise nothing, raise NonFiniteError
        under the label: a value the pipeline computes is not finite."""
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                steps(*systems, *context)
        except FloatingPointError:
            pass
        raise NonFiniteError(f"{self.label(kind, systems)}: a value is not "
                             f"finite at {list(args)}")

    def run(self, point: Point, derivatives: bool):
        """The bare pass's flat tuple at the point; where it declines, the
        error that _interpret finds.  At a point whose x, u and w carry
        leading sample axes, the array of the samples' tuples over those
        axes: the pass runs at each sample in order, and the first sample
        it declines raises."""
        kind = "derivatives" if derivatives else "values"
        x = point.x
        if x.ndim == 1:
            args = (*x.tolist(), float(point.u), float(point.w))
            return self.call(kind, None, args, self._interpret, args,
                             derivatives, derivatives=derivatives)
        rows = np.column_stack((x.reshape(-1, self.n), np.ravel(point.u),
                                np.ravel(point.w))).tolist()
        return np.array([self.call(kind, None, args, self._interpret, args,
                                   derivatives, derivatives=derivatives)
                         for args in map(tuple, rows)]).reshape(
                             x.shape[:-1] + (-1,))

    def _interpret(self, coords: tuple, derivatives: bool) -> None:
        """The steps of a bare pass: NonFiniteError at a non-finite
        coordinate, else the interpreter's error (the entries' Fields in
        order, with `derivatives`; a pair, at entry i*n + j, is the entry
        h_ij of a system, which raises AsymmetricMetricError where its two
        fields differ by more than 1e-12), else NonFiniteError for a value
        or partial that is not finite."""
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
                             f"at {list(coords)}")


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
    where the pass declines.  The system's pipelines (the right-hand
    sides and the homogeneity check) extend the same FieldPasses.
    `w_dependent` is True when some field's expression mentions w.
    """

    def __init__(self, n: int, h, A, V, params=None, name: str = ""):
        self.n = as_dimension(n)
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
        per sample; at a point with leading sample axes (FieldPasses.run)
        the bundle carries them.  FieldPasses.run raises the error of the
        first sample it declines."""
        n = self.n
        a = np.asarray(self._passes.run(point, True))
        lead = a.shape[:-1]
        n2 = n * n
        k = n2 + n + 1
        g = a[..., k:].reshape(lead + (n + 2, k))
        V = a[..., k - 1]
        return FieldBundle(a[..., :n2].reshape(lead + (n, n)),
                           g[..., :n2].reshape(lead + (n + 2, n, n)),
                           a[..., n2:k - 1], g[..., n2:k - 1],
                           V if lead else float(V), g[..., k - 1])


def _min_abs_eigenvalue(h: np.ndarray):
    """min |eig h| of each n x n block of h (leading axes broadcast); a
    float for a single block with n > 2, as the compiled kernels read it."""
    n = h.shape[-1]
    if n == 1:
        return abs(h[..., 0, 0])
    if n == 2:
        # closed form avoids a LAPACK call in the stepping hot path
        tr = h[..., 0, 0] + h[..., 1, 1]
        disc = np.sqrt(np.maximum((h[..., 0, 0] - h[..., 1, 1]) ** 2
                                  + 4.0 * h[..., 0, 1] * h[..., 1, 0], 0.0))
        return np.minimum(abs(0.5 * (tr - disc)), abs(0.5 * (tr + disc)))
    eig = np.min(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    return eig if eig.ndim else float(eig)


def solve_kinetic(h: np.ndarray, rhs: Optional[np.ndarray], context: str
                  ) -> np.ndarray:
    """h^{-1} rhs, or h^{-1} itself when rhs is None: the one guarded
    kinetic solve.  With rhs None, h may carry leading axes: one inverse
    per n x n block.

    Warns NearlySingularKineticWarning, once per call, when some block
    has min |eig h| < 1e-8 and raises SingularMetricError where some
    block cannot be inverted.  For n <= 2 the closed-form inverse dodges
    LAPACK dispatch; emit_kinetic_solve is its compiled form.
    """
    if np.any(_min_abs_eigenvalue(h) < _EIGEN_WARN):
        warnings.warn(_THIN, NearlySingularKineticWarning, stacklevel=3)
    n = h.shape[-1]
    if n == 1:
        if np.any(h == 0.0):
            raise SingularMetricError(f"{context}: kinetic block is zero")
        inv = 1.0 / h
    elif n == 2:
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        if np.any(det == 0.0):
            raise SingularMetricError(f"{context}: kinetic block not invertible")
        adj = np.stack([h[..., 1, 1], -h[..., 0, 1], -h[..., 1, 0], h[..., 0, 0]],
                       axis=-1).reshape(h.shape)
        inv = adj / det[..., None, None]
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
    as solve_kinetic does, once per call, and carries on (emitter.warn);
    for n <= 2, where h is constant, the compiler settles the warning.
    It declines (returns None) where solve_kinetic raises (det h == 0;
    for n > 2, where numpy's solve fails) and at an overflow that the
    numpy arithmetic would warn about.
    """
    n = len(h)
    ref = lambda v: em.ref(0.0 if v is None else v)

    def far(v: str) -> str:
        """|v| >= 1e-8, by comparisons, for a v that is not nan."""
        return f"({v} >= {_EIGEN_WARN!r} or {v} <= {-_EIGEN_WARN!r})"

    if n > 2:
        em.globals.update(_np_array=np.array, _np_solve=np.linalg.solve,
                          _min_abs_eigenvalue=_min_abs_eigenvalue)

        def mat(rows):      # nested tuple literal
            return "(" + ", ".join("(" + ", ".join(map(ref, row)) + ",)"
                                   for row in rows) + ",)"
        hm = em.let(f"_np_array({mat(h)})")
        eig = em.let(f"_min_abs_eigenvalue({hm})")
        well = f"{eig} >= {_EIGEN_WARN!r}"
        sol = em.let(f"_np_solve({hm}, _np_array({mat(zip(*cols))})).tolist()")
        out = [[em.let(f"{sol}[{i}][{k}]") for i in range(n)]
               for k in range(len(cols))]
        em.guard_finite([e for col in out for e in col])
    else:
        if n == 1:
            # the division declines at h == 0, where solve_kinetic raises
            inv = [[em.op(1.0, "/", h[0][0])]]
            well = far(ref(h[0][0]))
        else:
            (h00, h01), (h10, h11) = h
            # _min_abs_eigenvalue's closed form; the tr and q guard leaves
            # no nan, so testing both eigenvalues by comparisons is its
            # decision
            tr = em.op(h00, "+", h11)
            d = em.op(h00, "-", h11)
            q = em.op(em.op(d, "*", d), "+",
                      em.op(em.op(4.0, "*", h01), "*", h10))
            em.guard_finite([tr, q])
            if isinstance(q, float):
                disc = math.sqrt(q) if q > 0.0 else 0.0
            else:
                disc = em.let(f"_sqrt({q}) if {q} > 0.0 else 0.0")
            tr, disc = ref(tr), ref(disc)
            well = " and ".join(far(f"0.5 * ({tr} {s} {disc})") for s in "-+")
            det = em.op(em.op(h00, "*", h11), "-", em.op(h01, "*", h10))
            em.guard_finite([det])
            em.guard(f"{ref(det)} == 0.0")
            inv = [[em.div(h11, det), em.div(em.sub(None, h01), det)],
                   [em.div(em.sub(None, h10), det), em.div(h00, det)]]
        # numpy computes every entry, also those a structural zero multiplies
        em.guard_finite([e for row in inv for e in row])
        out = [[em.total([em.mul(inv[i][j], c[j]) for j in range(n)])
                for i in range(n)] for c in cols]
    em.warn(f"not ({well})", NearlySingularKineticWarning, _THIN)
    return out


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
        b = bundle if bundle is not None else self.system.eval_bundle(point)
        return self._assemble(b.h, b.A, b.V), self._derivatives(b)

    def _derivatives(self, b: FieldBundle) -> np.ndarray:
        """dg of eval_with_derivatives from the bundle's partials, over
        the bundle's sample axes."""
        n = self.system.n
        dg = np.zeros(np.shape(b.V) + (self.dim,) * 3)
        dg[..., :n, :n] = b.dh
        dg[..., :n, n] = b.dA
        dg[..., n, :n] = b.dA
        dg[..., n, n] = -2.0 * b.dV
        return dg

    # -- inverse (block closed form) -----------------------------------

    def inverse(self, point: Point, bundle: Optional[FieldBundle] = None) -> np.ndarray:
        if bundle is not None:
            h, A, V = bundle.h, bundle.A, bundle.V
        else:
            h, A, V = self.system.eval_values(point)
        return self._inverse_from(h, A, V)

    def _inverse_from(self, h: np.ndarray, A: np.ndarray, V: float) -> np.ndarray:
        """g^{-1} from (h, A, V), over their leading sample axes."""
        n = self.system.n
        hinv = solve_kinetic(h, None, self.system.name)
        hiA = _mv(hinv, A)
        ginv = np.zeros(np.shape(V) + (self.dim, self.dim))
        ginv[..., :n, :n] = hinv
        ginv[..., :n, n + 1] = hiA
        ginv[..., n + 1, :n] = hiA
        ginv[..., n, n + 1] = -1.0
        ginv[..., n + 1, n] = -1.0
        ginv[..., n + 1, n + 1] = 2.0 * V + _dot(A, hiA)
        return ginv

    # -- Christoffel symbols -------------------------------------------

    def christoffel(self, point: Point, bundle: Optional[FieldBundle] = None) -> np.ndarray:
        """Gamma[mu, nu, rho] = (1/2) g^{mu s} (d_nu g_{s rho}
        + d_rho g_{s nu} - d_s g_{nu rho}); exactly symmetric in (nu, rho).
        At a point (or bundle) with leading sample axes, one Gamma per
        sample, the same bits as at each sample alone."""
        b = bundle if bundle is not None else self.system.eval_bundle(point)
        dg = self._derivatives(b)
        ginv = self._inverse_from(b.h, b.A, b.V)
        m = self.dim
        lead = dg.shape[:-3]
        term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
        return 0.5 * (ginv @ term.reshape(lead + (m, m * m))).reshape(
            lead + (m, m, m))

    def accelerations(self, point: Point, velocity: np.ndarray,
                      bundle: Optional[FieldBundle] = None) -> np.ndarray:
        """-Gamma^mu_{nu rho} v^nu v^rho, the contraction of christoffel,
        per sample over leading sample axes."""
        gamma = self.christoffel(point, bundle)
        return _mv(-_mv(gamma, velocity[..., None, :]), velocity)

    def geodesic_function(self, null: bool = True):
        """The compiled geodesic right-hand side of the first-order system
        y = (x, u, w, xdot, udot, wdot): f(y_0, ..., y_{2m-1}) returns
        (ydot_0, ..., ydot_{2m-1}, null residual), where ydot carries the
        velocities and then the accelerations of `accelerations`, or None
        where the field pass or the kinetic solve declines or an output
        is not finite (emit_kinetic_solve); eval_bundle with
        accelerations is the oracle that the factored contraction is
        tested against.  Without `null`, the pipeline "geodesic-flow",
        which returns ydot alone, the same bits.  Built on first use and
        cached with the system's field passes."""
        if null:
            return self.system._passes.pipeline("geodesic", _geodesic_tail)
        return self.system._passes.pipeline(
            "geodesic-flow", functools.partial(_geodesic_tail,
                                               with_null=False))


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
    values (h symmetric: its rows are its columns).  L is linear in
    (h, A, V), so over their c-th partials (dh[c], dA[c], dV[c]) it is
    FieldBundle.lagrangian's dL[c], term for term."""
    half = [em.mul(0.5, x) for x in xp]
    return em.sub(em.add(em.dot([em.dot(half, row) for row in h], xp),
                         em.dot(A, xp)), V)


def _geodesic_tail(em, nodes, with_null: bool = True):
    """accelerations' -Gamma v v, factored as -g^{mu s} [ (v . d) g_{s rho}
    v^rho - (1/2) d_s (g v v) ] = -g^{-1}(M v - q/2) over the Brinkmann
    blocks of g and dg, plus, `with_null`, the null residual term for
    term as dynamics.null_residual computes it (a pipeline tail, see
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
    if not with_null:
        return em.coords + v, v + acc
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
    the generator's components (SymmetryGenerator.joint) evaluates it;
    where that declines, FieldPasses.explain raises the point's error."""
    args = (*point.x.tolist(), float(point.u), float(point.w))
    out = gen.joint(metric.system).call(
        "lie-derivative", _lie_tail, args, joint_steps, metric.system, gen,
        point.x, point.u, point.w)
    m = metric.dim
    return np.array(out, dtype=float).reshape(m, m)


def joint_steps(system: HerglotzSystem, gen, x, u: float, w: float,
                solve: bool = False) -> None:
    """The steps of a joint pipeline that can be at fault, in its order:
    the system's derivative pass at (x, u, w), the generator's and, with
    `solve`, the solve with h."""
    point = Point(x, u, w)
    b = system.eval_bundle(point)
    gen.components_at(point)
    if solve:
        solve_kinetic(b.h, None, system.name)


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


# -- coordinate maps and conformal pullback ----------------------------

class CoordinateMap:
    """A smooth map of the lifted space, one field per output coordinate.

    Components are field sources over (x1..xn, u, w); the output has the
    same dimension n+2.  They are evaluated by one compiled pass, with
    derivatives for the Jacobian and without for the image alone.  The
    checks that relate two systems through the map extend its derivative
    pass into pipelines over the pair (FieldPasses.pipeline's `systems`).
    """

    def __init__(self, n: int, components, params=None, name: str = "map"):
        self.n = as_dimension(n)
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


def conformal_pullback_check(metric_a: BrinkmannMetric, metric_b: BrinkmannMetric,
                             cmap: CoordinateMap, point: Point, omega) -> float:
    """max | (J^T g_b(Phi(p)) J) - Omega(p) g_a(p) |.

    Zero means Phi pulls metric_b back to Omega times metric_a at p.
    `omega` is a Field over (x, u, w), or a parameter-free expression or
    number, evaluated by Field.__call__.  One compiled pipeline over the
    map's pass evaluates the rest; where Omega or that declines,
    FieldPasses.explain raises the point's error.
    """
    omega_f = as_field(omega, metric_a.system.n, name="omega")
    systems = metric_a.system, metric_b.system
    x, u, w = point.x.tolist(), float(point.u), float(point.w)
    try:
        om = omega_f(x, u, w)
    except FieldEvalError:
        out = None
    else:
        out = cmap._passes.pipeline("pullback", _pullback_tail,
                                    *systems)(*x, u, w, om)
    if out is None:
        cmap._passes.explain("pullback", (*x, u, w), _pullback_steps, cmap,
                             omega_f, point, systems=systems)
    return out[0]


def _pullback_steps(system_a: HerglotzSystem, system_b: HerglotzSystem,
                    cmap: CoordinateMap, omega_f, point: Point) -> None:
    """The pullback's steps that can be at fault, in its order: the map's
    pass, system_b's values at the image, system_a's at the point and
    Omega."""
    vals, _ = cmap.value_and_jacobian(point)
    system_b.eval_values(Point.from_coords(vals, cmap.n))
    system_a.eval_values(point)
    omega_f(point.x.tolist(), float(point.u), float(point.w))


def _pullback_tail(system_a, system_b, em, nodes):
    """max |J^T g_b J - Omega g_a| as a pipeline tail over the map's
    derivative pass for the pair (system_a, system_b), with Omega the
    parameter _om, g_a from system_a's values at the point and g_b from
    system_b's at the image (tail_values)."""
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
