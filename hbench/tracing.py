"""Outside-in span tracing of hlift's public callables.

The tracer replaces each callable in ``SPANS`` at every binding its
callers look up: a method through its class attribute, a function in the
module that defines it and in every hlift module that imported it by name
(``from .geometry import solve_kinetic`` binds a second name in
``hlift.dynamics``).  Nothing in ``src/hlift`` is edited; ``uninstall``
restores the originals.

Each call records one span: name, start, end, parent span and the
operation id the harness set before the call.  Spans stay in flat arrays
while the run lasts and are summarized (and optionally saved) at the end.
A span's self time is its duration minus the durations of its direct
children; the harness's speed samples are taken out of both.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (hlift submodule, callable name or Class.method)
SPANS = {
    "expr.field_call": ("expr", "Field.__call__"),
    "geometry.eval_bundle": ("geometry", "HerglotzSystem.eval_bundle"),
    "geometry.eval_values": ("geometry", "HerglotzSystem.eval_values"),
    "geometry.accelerations": ("geometry", "BrinkmannMetric.accelerations"),
    "geometry.solve_kinetic": ("geometry", "solve_kinetic"),
    "geometry.christoffel": ("geometry", "BrinkmannMetric.christoffel"),
    "geometry.covariant_sym_grad": ("geometry", "covariant_sym_grad"),
    "geometry.eval_vector_fields": ("geometry", "eval_vector_fields"),
    "geometry.conformal_pullback_check": ("geometry", "conformal_pullback_check"),
    "dynamics.integrate_geodesic": ("dynamics", "integrate_geodesic"),
    "dynamics.integrate_herglotz": ("dynamics", "integrate_herglotz"),
    "dynamics.herglotz_rhs": ("dynamics", "herglotz_rhs"),
    "dynamics.reduced_lagrangian": ("dynamics", "reduced_lagrangian"),
    "dynamics.traj_eval": ("dynamics", "Trajectory.eval"),
    "dynamics.sigma_at": ("dynamics", "ReducedTrajectory.sigma_at"),
    "dynamics.state_at": ("dynamics", "ReducedTrajectory.state_at"),
    "dynamics.u_equation_residual": ("dynamics", "u_equation_residual"),
    "dynamics.w_equation_residual": ("dynamics", "w_equation_residual"),
    "dynamics.homogeneity_residual": ("dynamics", "homogeneity_residual"),
    "symmetry.killing_residual": ("symmetry", "killing_residual"),
    "symmetry.conformal_killing_residual": ("symmetry", "conformal_killing_residual"),
    "symmetry.degreewise_max_residual": ("symmetry", "degreewise_max_residual"),
    "symmetry.symmetry_condition_residual": ("symmetry", "symmetry_condition_residual"),
    "symmetry.transform_rule_check": ("symmetry", "transform_rule_check"),
    "symmetry.charge_series": ("symmetry", "charge_series"),
    "symmetry.nonlocal_charge": ("symmetry", "nonlocal_charge"),
    "cloud.halton": ("cloud", "halton"),
    "cloud.point_cloud": ("cloud", "point_cloud"),
    "cloud.state_cloud": ("cloud", "state_cloud"),
    "systems.standard_catalog": ("systems", "standard_catalog"),
    "cli.main": ("cli", "main"),
    "cli.build_context": ("cli", "build_context"),
    "cli.run_check": ("cli", "run_check"),
}

NAMES = list(SPANS)
_IX = {name: k for k, name in enumerate(NAMES)}
# integrators whose returned trajectories give accepted/rejected step counts
_INTEGRATORS = ("dynamics.integrate_geodesic", "dynamics.integrate_herglotz")
# (RHS span, the integrator it must be called from directly)
_RHS = (("geometry.accelerations", "dynamics.integrate_geodesic"),
        ("dynamics.herglotz_rhs", "dynamics.integrate_herglotz"))
_FIELD_PASSES = ("geometry.eval_bundle", "geometry.eval_values")


class Tracer:
    """Span recorder; set ``op_id`` before each operation."""

    def __init__(self):
        self.op_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._undo = []
        self.steps = {}   # op id -> [accepted, rejected] over its integrations

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every SPANS callable of the hlift modules now imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hlift" or name.startswith("hlift.")]
        for name, (mod, attr) in SPANS.items():
            module = sys.modules[f"hlift.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _wrap(self, name: str, fn):
        ix = _IX[name]
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self
        record_steps = name in _INTEGRATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if record_steps:
                traj = getattr(out, "traj", out)
                acc = tracer.steps.setdefault(tracer.op_id, [0, 0])
                acc[0] += len(traj.t) - 1
                acc[1] += traj.rejected
            return out

        return traced

    # -- results -------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(NAMES),
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self._op, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self, n_ops: int, probe) -> dict:
        """Per-span totals plus the integration counts, per op and overall.

        Span durations leave out the reference samples ``probe`` (a
        ``hbench.speed.SpeedProbe``) took inside them.  Spans with op id -1
        (the traced set-up) count in the per-span totals but not in the
        per-op counts.
        """
        a = self.arrays()
        name, parent, op = a["name"], a["parent"], a["op"]
        dur = probe.adjust(a["start"], a["end"])[0]
        size = len(NAMES)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        rhs = np.zeros(len(dur), dtype=bool)
        for span, caller in _RHS:
            rhs |= (name == _IX[span]) & (parent_name == _IX[caller])
        # a field pass counts when some ancestor is an integrator
        inside = np.isin(name, [_IX[s] for s in _INTEGRATORS])
        while True:
            grown = inside | (has_parent & inside[np.maximum(parent, 0)])
            if np.array_equal(grown, inside):
                break
            inside = grown
        passes = np.isin(name, [_IX[s] for s in _FIELD_PASSES]) & inside
        field_calls = name == _IX["expr.field_call"]
        sigma_evals = ((name == _IX["dynamics.traj_eval"])
                       & (parent_name == _IX["dynamics.sigma_at"]))

        in_op = (op >= 0) & (op < n_ops)
        per_op = {
            "rhs": np.bincount(op[rhs & in_op], minlength=n_ops),
            "field_passes": np.bincount(op[passes & in_op], minlength=n_ops),
            "field_calls": np.bincount(op[field_calls & in_op], minlength=n_ops),
        }
        accepted = sum(v[0] for k, v in self.steps.items() if 0 <= k < n_ops)
        rejected = sum(v[1] for k, v in self.steps.items() if 0 <= k < n_ops)
        return {
            "calls": np.bincount(name, minlength=size),
            "self_s": np.bincount(name, weights=self_t, minlength=size),
            "total_s": np.bincount(name, weights=dur, minlength=size),
            "op_self_s": float(np.sum(self_t[in_op])),
            "rhs_calls": int(np.sum(rhs & in_op)),
            "field_passes": int(np.sum(passes & in_op)),
            "sigma_evals": int(np.sum(sigma_evals & in_op)),
            "sigma_calls": int(np.sum((name == _IX["dynamics.sigma_at"]) & in_op)),
            "accepted": accepted,
            "rejected": rejected,
            "per_op": per_op,
            "spans": len(dur),
        }
