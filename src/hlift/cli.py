"""Scenario-driven command line front end.

Three subcommands:

  run    integrate one scenario through both pipelines, write the two
         trajectory CSV files plus a comparison report
  check  run named consistency checks against the scenario, write a
         JSON-lines report, exit nonzero if any check fails
  list   show the catalog (or emit it as JSON)

Scenario files are JSON; the schema is documented in the README.  All
sampling inside checks uses deterministic low-discrepancy clouds, and
trajectory CSV output is byte-identical across repeated invocations.

Exit codes: 0 ok, 2 scenario/config error, 3 numerical failure,
4 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cloud import point_cloud, state_cloud
from .dynamics import (IntegratorConfig, ReducedState, ReducedTrajectory,
                       Trajectory, homogeneity_residual, integrate_geodesic,
                       integrate_herglotz, lift_state, reduce_trajectory,
                       u_equation_residual, w_equation_residual)
from .errors import HliftError, ScenarioError
from .geometry import BrinkmannMetric, HerglotzSystem
from .symmetry import (SymmetryGenerator, charge_series,
                       conformal_killing_residual, degreewise_max_residual,
                       killing_residual, nonlocal_charge,
                       symmetry_condition_residual, transform_rule_check)
from .systems import (CatalogEntry, conformal_pair, custom_system,
                      standard_catalog)
from .geometry import conformal_pullback_check

_RUN_TOL_X = 1e-6
_CHECKPOINTS = 33


# ---------------------------------------------------------------------
# scenario loading and validation

_TOP_KEYS = {"system", "params", "initial", "udot0", "span", "integrator",
             "checks", "out_dir"}
_INITIAL_KEYS = {"x", "xp", "u", "w"}
_SPAN_KEYS = {"from", "to"}
_INTEGRATOR_KEYS = {"rtol", "atol", "max_steps"}
_SYSTEM_KEYS = {"n", "h", "A", "V", "name"}

# which factory parameters each catalog key accepts
_CATALOG_PARAMS = {
    "free": set(),
    "harmonic": {"omega"},
    "damped-time": {"gamma", "omega"},
    "damped-action": {"gamma", "omega"},
    "coupled": set(),
}


@dataclass
class ScenarioContext:
    label: str
    system: HerglotzSystem
    metric: BrinkmannMetric
    entry: Optional[CatalogEntry]
    rs0: ReducedState
    udot0: float
    span: Tuple[float, float]
    config: IntegratorConfig
    checks: List[str]
    out_dir: str
    gamma: Optional[float]
    omega: Optional[float]


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(
                f"{where}: unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _as_float(value, where: str) -> float:
    # JSON admits NaN, Infinity and integers beyond the float range
    out = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            pass
    _need(math.isfinite(out), f"{where} must be a finite number, got {value!r}")
    return out


def load_scenario(path: str) -> dict:
    """Read and structurally validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON at line {err.lineno}, "
                            f"column {err.colno}: {err.msg}") from None
    _need(isinstance(data, dict), f"{path}: scenario must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, path)
    _need("system" in data, f"{path}: missing required key 'system'")
    return data


def _build_system(scn: dict):
    """(label, system, entry, params) from the scenario system selection."""
    sel = scn["system"]
    params = scn.get("params", {})
    _need(isinstance(params, dict), "params must be an object")
    for k, v in params.items():
        _as_float(v, f"params.{k}")
    if isinstance(sel, str):
        catalog = standard_catalog()
        _need(sel in catalog,
              f"unknown catalog system {sel!r}; known: {', '.join(sorted(catalog))}")
        allowed = _CATALOG_PARAMS[sel]
        for k in params:
            _need(k in allowed,
                  f"system {sel!r} does not accept parameter {k!r}")
        if params:
            from .systems import (damped_action_dependent,
                                  damped_time_dependent, harmonic_oscillator)
            if sel == "harmonic":
                entry = harmonic_oscillator(omega=params.get("omega", 1.0))
            elif sel == "damped-time":
                entry = damped_time_dependent(gamma=params.get("gamma", 0.2),
                                              omega=params.get("omega", 1.0))
            else:
                entry = damped_action_dependent(gamma=params.get("gamma", 0.2),
                                                omega=params.get("omega", 1.0))
        else:
            entry = catalog[sel]
        return sel, entry.system, entry, params
    _need(isinstance(sel, dict), "system must be a catalog name or an object")
    _reject_unknown(sel, _SYSTEM_KEYS, "system")
    for key in ("n", "h", "A", "V"):
        _need(key in sel, f"system: missing required key {key!r}")
    n = sel["n"]
    _need(isinstance(n, int) and n >= 1, "system.n must be a positive integer")
    name = sel.get("name", "custom")
    try:
        system = custom_system(n, sel["h"], sel["A"], sel["V"],
                               params=params, name=name)
    except HliftError as err:
        raise ScenarioError(f"system: {err}") from err
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"system: {err}") from err
    return name, system, None, params


def build_context(scn: dict) -> ScenarioContext:
    label, system, entry, params = _build_system(scn)
    n = system.n

    if "initial" in scn:
        init = scn["initial"]
        _need(isinstance(init, dict), "initial must be an object")
        _reject_unknown(init, _INITIAL_KEYS, "initial")
        for key in ("x", "xp"):
            _need(key in init and isinstance(init[key], list)
                  and len(init[key]) == n,
                  f"initial.{key} must be a list of {n} numbers")
        x = [_as_float(v, "initial.x[]") for v in init["x"]]
        xp = [_as_float(v, "initial.xp[]") for v in init["xp"]]
        u0 = _as_float(init.get("u", 0.0), "initial.u")
        w0 = _as_float(init.get("w", 0.0), "initial.w")
        rs0 = ReducedState(x, xp, u0, w0)
    elif entry is not None and entry.default_state is not None:
        rs0 = entry.default_state
    else:
        raise ScenarioError("custom systems require an 'initial' state")

    udot0 = _as_float(scn.get("udot0", 1.0), "udot0")
    _need(udot0 > 0.0, f"udot0 must be positive, got {udot0}")

    if "span" in scn:
        span = scn["span"]
        _need(isinstance(span, dict), "span must be an object")
        _reject_unknown(span, _SPAN_KEYS, "span")
        _need("to" in span, "span: missing required key 'to'")
        u_from = _as_float(span.get("from", rs0.u), "span.from")
        u_to = _as_float(span["to"], "span.to")
        _need(u_from == rs0.u,
              f"span.from = {u_from} must equal initial.u = {rs0.u}")
        _need(u_to > u_from, "span.to must exceed span.from")
    else:
        u_from, u_to = rs0.u, rs0.u + 10.0

    cfg = IntegratorConfig()
    if "integrator" in scn:
        integ = scn["integrator"]
        _need(isinstance(integ, dict), "integrator must be an object")
        _reject_unknown(integ, _INTEGRATOR_KEYS, "integrator")
        if "rtol" in integ:
            cfg.rtol = _as_float(integ["rtol"], "integrator.rtol")
        if "atol" in integ:
            cfg.atol = _as_float(integ["atol"], "integrator.atol")
        _need(cfg.rtol >= 0.0 and cfg.atol >= 0.0,
              "integrator.rtol and integrator.atol must not be negative")
        _need(cfg.rtol > 0.0 or cfg.atol > 0.0,
              "integrator.rtol and integrator.atol must not both be zero")
        if "max_steps" in integ:
            ms = integ["max_steps"]
            _need(isinstance(ms, int) and ms > 0,
                  "integrator.max_steps must be a positive integer")
            cfg.max_steps = ms

    checks = scn.get("checks", [])
    _need(isinstance(checks, list) and all(isinstance(c, str) for c in checks),
          "checks must be a list of strings")
    for c in checks:
        _parse_check(c)  # validates the name

    out_dir = scn.get("out_dir", ".")
    _need(isinstance(out_dir, str), "out_dir must be a string")

    return ScenarioContext(
        label=label, system=system, metric=BrinkmannMetric(system),
        entry=entry, rs0=rs0, udot0=udot0, span=(u_from, u_to), config=cfg,
        checks=checks, out_dir=out_dir,
        gamma=params.get("gamma"), omega=params.get("omega"))


# ---------------------------------------------------------------------
# check registry

# base name -> (needs generator, tolerance or None, neutral identifier)
_CHECKS: Dict[str, Tuple[bool, Optional[float], str]] = {
    "null-drift": (False, 1e-8, "null-constraint-preservation"),
    "u-accel": (False, 1e-8, "u-acceleration-relation"),
    "w-redundancy": (False, 1e-7, "w-equation-redundancy"),
    "equivalence": (False, 1e-6, "lift-reduce-equivalence"),
    "reparam": (False, 1e-9, "reparametrization-invariance"),
    "homogeneity": (False, 1e-12, "velocity-degree-one-homogeneity"),
    "killing": (True, 1e-8, "killing-equation"),
    "conformal-killing": (True, 1e-8, "conformal-killing-equation"),
    "degreewise": (True, 1e-10, "degreewise-invariance-identities"),
    "symmetry": (True, 1e-10, "reduced-invariance-condition"),
    "noether-charge": (True, 1e-6, "reduced-charge-conservation"),
    "nonlocal-charge": (True, 1e-6, "nonlocal-charge-conservation"),
    "conformal-pair": (False, None, "conformal-pair-equivalence"),
    "transform-rule": (False, 1e-12, "reduced-transform-rule"),
}


def _parse_check(name: str) -> Tuple[str, Optional[str]]:
    base, _, gen = name.partition(":")
    if base not in _CHECKS:
        raise ScenarioError(
            f"unknown check {name!r}; known: {', '.join(sorted(_CHECKS))}")
    needs_gen = _CHECKS[base][0]
    if needs_gen and not gen:
        raise ScenarioError(f"check {base!r} needs a generator: '{base}:<name>'")
    if not needs_gen and gen:
        raise ScenarioError(f"check {base!r} does not take a generator")
    return base, (gen or None)


def _find_generator(ctx: ScenarioContext, gen_name: str) -> SymmetryGenerator:
    if ctx.entry is not None:
        if gen_name in ctx.entry.generators:
            return ctx.entry.generators[gen_name]
        if gen_name in ctx.entry.conformal:
            return ctx.entry.conformal[gen_name][0]
        known = sorted(set(ctx.entry.generators) | set(ctx.entry.conformal))
        raise ScenarioError(
            f"system {ctx.label!r} has no generator {gen_name!r}; "
            f"known: {', '.join(known)}")
    raise ScenarioError("generator checks need a catalog system")


def _require_damped_pair(ctx: ScenarioContext):
    if ctx.label not in ("damped-time", "damped-action"):
        raise ScenarioError(
            "conformal-pair and transform-rule checks apply to the "
            "'damped-time' / 'damped-action' systems")
    gamma = ctx.gamma if ctx.gamma is not None else 0.2
    omega = ctx.omega if ctx.omega is not None else 1.0
    return conformal_pair(gamma, omega, ctx.system.n)


class _RunCache:
    """Integrations shared between checks of one invocation."""

    def __init__(self, ctx: ScenarioContext):
        self.ctx = ctx
        self._geo: Optional[Trajectory] = None
        self._red: Optional[ReducedTrajectory] = None
        self._herglotz: Optional[ReducedTrajectory] = None

    def geodesic(self) -> Trajectory:
        if self._geo is None:
            ctx = self.ctx
            gs0 = lift_state(ctx.system, ctx.rs0, ctx.udot0)
            self._geo = integrate_geodesic(ctx.metric, gs0, (0.0, math.inf),
                                           config=ctx.config,
                                           stop_at_u=ctx.span[1])
        return self._geo

    def reduced(self) -> ReducedTrajectory:
        if self._red is None:
            self._red = reduce_trajectory(self.geodesic())
        return self._red

    def herglotz(self) -> ReducedTrajectory:
        if self._herglotz is None:
            ctx = self.ctx
            self._herglotz = integrate_herglotz(ctx.system, ctx.rs0, ctx.span,
                                                config=ctx.config)
        return self._herglotz


def _u_checkpoints(ctx: ScenarioContext):
    return np.linspace(ctx.span[0], ctx.span[1], _CHECKPOINTS)


def _row(check: str, residual: Optional[float], tol: Optional[float],
         seconds: float, certifies: str, status: Optional[str] = None) -> dict:
    if status is None:
        status = "pass" if (tol is None or residual <= tol) else "fail"
    return {"check": check, "status": status,
            "residual": residual, "tol": tol,
            "seconds": round(seconds, 6), "certifies": certifies}


def _check_null_drift(ctx, cache, gen_name):
    traj = cache.geodesic()
    return [float(np.max(np.abs(traj.diagnostics["null_residual"])))]


def _check_u_accel(ctx, cache, gen_name):
    return [u_equation_residual(ctx.metric, cache.geodesic())]


def _check_w_redundancy(ctx, cache, gen_name):
    return [w_equation_residual(ctx.metric, cache.geodesic())]


def _check_equivalence(ctx, cache, gen_name):
    rt, ht = cache.reduced(), cache.herglotz()
    gap = 0.0
    for u in _u_checkpoints(ctx):
        gap = max(gap, float(np.max(np.abs(rt.state_at(u).x - ht.state_at(u).x))))
    return [gap]


def _check_reparam(ctx, cache, gen_name):
    # tighter stepping than the scenario default: the three views must
    # agree to 1e-9, and at rtol 1e-11 their integration error alone
    # reaches 2e-9 on generic coupled starts
    cfg = IntegratorConfig(rtol=min(ctx.config.rtol, 1e-13),
                           atol=min(ctx.config.atol, 1e-15),
                           max_steps=ctx.config.max_steps)
    views = []
    for udot0 in (0.5, 1.0, 2.0):
        gs0 = lift_state(ctx.system, ctx.rs0, udot0)
        traj = integrate_geodesic(ctx.metric, gs0, (0.0, math.inf),
                                  config=cfg, stop_at_u=ctx.span[1])
        views.append(reduce_trajectory(traj))
    gap = 0.0
    base = views[0]
    for u in _u_checkpoints(ctx):
        a = base.state_at(u)
        for other in views[1:]:
            b = other.state_at(u)
            gap = max(gap, float(np.max(np.abs(a.x - b.x))),
                      float(np.max(np.abs(a.xp - b.xp))), abs(a.w - b.w))
    return [gap]


def _check_homogeneity(ctx, cache, gen_name):
    worst = 0.0
    for rs in state_cloud(ctx.system.n, 100):
        for udot in (0.5, 1.0, 2.0):
            worst = max(worst, homogeneity_residual(ctx.system, rs, udot))
    return [worst]


def _check_killing(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    return [max(killing_residual(ctx.metric, gen, p)
                for p in point_cloud(ctx.system.n, 100))]


def _check_conformal_killing(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    return [max(conformal_killing_residual(ctx.metric, gen, p)[0]
                for p in point_cloud(ctx.system.n, 100))]


def _check_degreewise(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    return [max(degreewise_max_residual(ctx.system, gen, p)
                for p in point_cloud(ctx.system.n, 100))]


def _check_symmetry(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    return [max(symmetry_condition_residual(ctx.system, gen, rs)
                for rs in state_cloud(ctx.system.n, 100))]


def _check_noether_charge(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    _, qs = charge_series(ctx.system, gen, cache.herglotz())
    return [float(np.max(np.abs(qs - qs[0])))]


def _check_nonlocal_charge(ctx, cache, gen_name):
    gen = _find_generator(ctx, gen_name)
    _, qs = nonlocal_charge(ctx.system, gen, cache.herglotz())
    scale = max(1e-30, float(np.max(np.abs(qs))))
    return [float(np.max(np.abs(qs - qs[0]))) / scale]


def _check_conformal_pair(ctx, cache, gen_name):
    ent_a, ent_b, cmap, factor = _require_damped_pair(ctx)
    met_a = BrinkmannMetric(ent_a.system)
    met_b = BrinkmannMetric(ent_b.system)
    pull = max(conformal_pullback_check(met_a, met_b, cmap, p, factor)
               for p in point_cloud(ctx.system.n, 100))
    gamma = ctx.gamma if ctx.gamma is not None else 0.2
    ta = integrate_herglotz(ent_a.system, ctx.rs0, ctx.span, config=ctx.config)
    rs0_b = ReducedState(ctx.rs0.x, ctx.rs0.xp, ctx.rs0.u,
                         math.exp(-gamma * ctx.rs0.u) * ctx.rs0.w)
    tb = integrate_herglotz(ent_b.system, rs0_b, ctx.span, config=ctx.config)
    flow = 0.0
    wmap = 0.0
    for u in _u_checkpoints(ctx):
        a, b = ta.state_at(u), tb.state_at(u)
        flow = max(flow, float(np.max(np.abs(a.x - b.x))))
        wmap = max(wmap, abs(math.exp(-gamma * u) * a.w - b.w))
    return [pull, flow, wmap]


def _check_transform_rule(ctx, cache, gen_name):
    ent_a, ent_b, cmap, factor = _require_damped_pair(ctx)
    return [max(transform_rule_check(ent_a.system, ent_b.system, cmap, rs)
                for rs in state_cloud(ctx.system.n, 100))]


_CHECK_FN: Dict[str, Callable] = {
    "null-drift": _check_null_drift,
    "u-accel": _check_u_accel,
    "w-redundancy": _check_w_redundancy,
    "equivalence": _check_equivalence,
    "reparam": _check_reparam,
    "homogeneity": _check_homogeneity,
    "killing": _check_killing,
    "conformal-killing": _check_conformal_killing,
    "degreewise": _check_degreewise,
    "symmetry": _check_symmetry,
    "noether-charge": _check_noether_charge,
    "nonlocal-charge": _check_nonlocal_charge,
    "conformal-pair": _check_conformal_pair,
    "transform-rule": _check_transform_rule,
}

# names of sub-results for multi-residual checks
_SUBNAMES = {"conformal-pair": ["pullback", "flow", "w-map"]}


def run_check(ctx: ScenarioContext, cache: _RunCache, name: str) -> List[dict]:
    base, gen_name = _parse_check(name)
    _, tol, certifies = _CHECKS[base]
    start = time.perf_counter()
    residuals = _CHECK_FN[base](ctx, cache, gen_name)
    seconds = time.perf_counter() - start
    subs = _SUBNAMES.get(base)
    rows = []
    for i, res in enumerate(residuals):
        label = name if subs is None else f"{name}:{subs[i]}"
        row_tol = tol
        status = None
        if base == "conformal-pair":
            row_tol = 1e-12 if subs[i] == "pullback" else 1e-6
        if base == "noether-charge" and ctx.system.w_dependent:
            # the plain charge legitimately drifts here; report only
            status = "info"
            row_tol = None
        rows.append(_row(label, float(res), row_tol, seconds / len(residuals),
                         certifies, status))
    return rows


# ---------------------------------------------------------------------
# output helpers

def _g17(value: float) -> str:
    return "%.17g" % value


def _write_csv(path: str, n: int, rows: List[List[float]],
               charge_names: List[str]) -> None:
    header = (["u", "sigma"] + [f"x{i + 1}" for i in range(n)]
              + [f"xp{i + 1}" for i in range(n)] + ["w", "null_residual"]
              + charge_names)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_g17(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _charge_columns(ctx: ScenarioContext, rt: ReducedTrajectory):
    """Charge series for every charge check requested in the scenario."""
    names, series = [], []
    for check in ctx.checks:
        base, gen_name = _parse_check(check)
        if base == "noether-charge":
            gen = _find_generator(ctx, gen_name)
            _, qs = charge_series(ctx.system, gen, rt)
            names.append(f"Q_{gen_name}")
            series.append(qs)
        elif base == "nonlocal-charge":
            gen = _find_generator(ctx, gen_name)
            _, qs = nonlocal_charge(ctx.system, gen, rt)
            names.append(f"Qnl_{gen_name}")
            series.append(qs)
    return names, series


def _trajectory_rows(ctx: ScenarioContext, rt: ReducedTrajectory,
                     charges: List[np.ndarray]) -> List[List[float]]:
    rows = []
    traj = rt.traj
    geo = rt.source == "geodesic"
    nulls = traj.diagnostics.get("null_residual")
    for k in range(len(rt)):
        rs = rt.sample_state(k)
        sigma = float(traj.t[k])
        null = float(nulls[k]) if geo else 0.0
        row = [rs.u, sigma, *rs.x, *rs.xp, rs.w, null]
        row.extend(float(q[k]) for q in charges)
        rows.append(row)
    return rows


def _write_report(path: str, rows: List[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _print_rows(rows: List[dict]) -> None:
    for row in rows:
        res = "n/a" if row["residual"] is None else f"{row['residual']:.3e}"
        tol = "" if row["tol"] is None else f" tol={row['tol']:.1e}"
        print(f"{row['status'].upper():5s} {row['check']}: residual={res}"
              f"{tol} ({row['seconds']:.2f}s)")


# ---------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    ctx = build_context(scn)
    if args.out_dir:
        ctx.out_dir = args.out_dir
    os.makedirs(ctx.out_dir, exist_ok=True)
    cache = _RunCache(ctx)
    start = time.perf_counter()
    rt = cache.reduced()
    ht = cache.herglotz()
    seconds = time.perf_counter() - start

    names_g, charges_g = _charge_columns(ctx, rt)
    names_h, charges_h = _charge_columns(ctx, ht)
    geo_csv = os.path.join(ctx.out_dir, "geodesic.csv")
    red_csv = os.path.join(ctx.out_dir, "reduced.csv")
    _write_csv(geo_csv, ctx.system.n, _trajectory_rows(ctx, rt, charges_g), names_g)
    _write_csv(red_csv, ctx.system.n, _trajectory_rows(ctx, ht, charges_h), names_h)

    gap_x = gap_w = 0.0
    for u in _u_checkpoints(ctx):
        a, b = rt.state_at(u), ht.state_at(u)
        gap_x = max(gap_x, float(np.max(np.abs(a.x - b.x))))
        gap_w = max(gap_w, abs(a.w - b.w))
    null = float(np.max(np.abs(cache.geodesic().diagnostics["null_residual"])))
    rows = [
        _row("equivalence-x", gap_x, _RUN_TOL_X, seconds,
             "lift-reduce-equivalence"),
        _row("equivalence-w", gap_w, None, 0.0,
             "lift-reduce-equivalence", status="info"),
        _row("null-drift", null, 1e-8, 0.0, "null-constraint-preservation"),
    ]
    report = os.path.join(ctx.out_dir, "report.jsonl")
    _write_report(report, rows)
    _print_rows(rows)
    print(f"wrote {geo_csv}, {red_csv}, {report}")
    return 0


def cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    ctx = build_context(scn)
    if args.out_dir:
        ctx.out_dir = args.out_dir
    names = args.checks or ctx.checks
    if not names:
        raise ScenarioError("no checks requested (scenario 'checks' empty "
                            "and none given on the command line)")
    for name in names:
        _parse_check(name)
    cache = _RunCache(ctx)
    rows = []
    for name in names:
        rows.extend(run_check(ctx, cache, name))
    os.makedirs(ctx.out_dir, exist_ok=True)
    report = os.path.join(ctx.out_dir, "report.jsonl")
    _write_report(report, rows)
    _print_rows(rows)
    failed = [r for r in rows if r["status"] == "fail"]
    if failed:
        print(f"{len(failed)} check(s) failed")
        return 4
    return 0


def cmd_list(args) -> int:
    catalog = standard_catalog()
    if args.as_json:
        out = []
        for key, ent in catalog.items():
            out.append({
                "key": key,
                "title": ent.title,
                "n": ent.system.n,
                "generators": sorted(ent.generators),
                "conformal": sorted(ent.conformal),
                "closed_form": ent.closed_form_x is not None,
            })
        print(json.dumps(out, indent=2))
        return 0
    for key, ent in catalog.items():
        print(f"{key}: {ent.title}")
        gens = ", ".join(sorted(ent.generators)) or "(none)"
        print(f"  generators: {gens}")
        if ent.conformal:
            cons = ", ".join(f"{k} (gamma={v[1]:g})"
                             for k, v in sorted(ent.conformal.items()))
            print(f"  conformal: {cons}")
        if ent.notes:
            print(f"  note: {ent.notes}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hlift",
        description="Integrate action-dependent systems and their lifted "
                    "null geodesics; verify the equivalences between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario, write CSV + report")
    p_run.add_argument("scenario")
    p_run.add_argument("--out-dir", default=None,
                       help="override the scenario out_dir")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run consistency checks")
    p_check.add_argument("scenario")
    p_check.add_argument("checks", nargs="*",
                         help="check names (default: the scenario's list)")
    p_check.add_argument("--out-dir", default=None)
    p_check.set_defaults(fn=cmd_check)

    p_list = sub.add_parser("list", help="show the system catalog")
    p_list.add_argument("--json", dest="as_json", action="store_true")
    p_list.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except HliftError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
