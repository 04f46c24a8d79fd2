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
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cloud import MAX_DIMENSIONS, point_cloud, state_cloud
from .dynamics import (MIN_STEP, IntegratorConfig, ReducedState,
                       ReducedTrajectory, Trajectory, homogeneity_residual,
                       integrate_geodesic, integrate_herglotz, lift_state,
                       reduce_trajectory, sample_blocks, u_equation_residual,
                       w_equation_residual)
from .errors import HliftError, ScenarioError
from .geometry import BrinkmannMetric, HerglotzSystem
from .symmetry import (SymmetryGenerator, charge_series,
                       conformal_killing_residual, degreewise_max_residual,
                       killing_residual, nonlocal_charge,
                       symmetry_condition_residual, transform_rule_check)
from .systems import (CatalogEntry, _built, conformal_pair, get_entry,
                      standard_catalog)
from .geometry import conformal_pullback_check

_CHECKPOINTS = 33


# ---------------------------------------------------------------------
# scenario loading and validation

_TOP_KEYS = {"system", "params", "initial", "udot0", "span", "integrator",
             "checks", "out_dir"}
_INITIAL_KEYS = {"x", "xp", "u", "w"}
_SPAN_KEYS = {"from", "to"}
_INTEGRATOR_KEYS = {"rtol", "atol", "max_steps"}
_SYSTEM_KEYS = {"n", "h", "A", "V", "name"}


@dataclass
class ScenarioContext:
    system: HerglotzSystem
    metric: BrinkmannMetric
    entry: Optional[CatalogEntry]
    rs0: ReducedState
    udot0: float
    span: Tuple[float, float]
    config: IntegratorConfig
    checks: List[tuple]  # (name, Check, generator or None), resolve_checks
    out_dir: str


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
    """(system, catalog entry or None) from the scenario's selection, each
    built once per process (systems._built)."""
    sel = scn["system"]
    params = scn.get("params", {})
    _need(isinstance(params, dict), "params must be an object")
    for k, v in params.items():
        _as_float(v, f"params.{k}")
    if isinstance(sel, str):
        try:
            entry = get_entry(sel, **params)
        except (KeyError, ValueError) as err:
            raise ScenarioError(err.args[0]) from None
        return entry.system, entry
    _need(isinstance(sel, dict), "system must be a catalog name or an object")
    _reject_unknown(sel, _SYSTEM_KEYS, "system")
    for key in ("n", "h", "A", "V"):
        _need(key in sel, f"system: missing required key {key!r}")
    n = sel["n"]
    _need(type(n) is int and n >= 1, "system.n must be a positive integer")
    try:
        system = _built(HerglotzSystem, n, sel["h"], sel["A"], sel["V"],
                        params=dict(sorted(params.items())),
                        name=sel.get("name", "custom"))
    except (HliftError, TypeError, ValueError) as err:
        raise ScenarioError(f"system: {err}") from err
    return system, None


def build_context(scn: dict) -> ScenarioContext:
    system, entry = _build_system(scn)
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
    # a step clipped to a span at or below the smallest step underflows
    least = MIN_STEP * max(1.0, abs(u_from))
    _need(u_to - u_from > least,
          f"span.to - span.from = {u_to - u_from!r} must exceed the "
          f"smallest step, {MIN_STEP:g} * max(1, |span.from|) = {least!r}")

    integ = scn.get("integrator", {})
    _need(isinstance(integ, dict), "integrator must be an object")
    _reject_unknown(integ, _INTEGRATOR_KEYS, "integrator")
    settings = {key: _as_float(integ[key], f"integrator.{key}")
                for key in ("rtol", "atol") if key in integ}
    if "max_steps" in integ:
        settings["max_steps"] = integ["max_steps"]
    try:
        cfg = IntegratorConfig(**settings)
    except ValueError as err:
        raise ScenarioError(f"integrator.{err}") from None

    checks = scn.get("checks", [])
    _need(isinstance(checks, list) and all(isinstance(c, str) for c in checks),
          "checks must be a list of strings")

    out_dir = scn.get("out_dir", ".")
    _need(isinstance(out_dir, str), "out_dir must be a string")

    ctx = ScenarioContext(
        system=system, metric=BrinkmannMetric(system),
        entry=entry, rs0=rs0, udot0=udot0, span=(u_from, u_to), config=cfg,
        checks=[], out_dir=out_dir)
    ctx.checks = resolve_checks(ctx, checks)
    return ctx


# ---------------------------------------------------------------------
# checks

class _RunCache:
    """Integrations shared between the checks of one invocation."""

    def __init__(self, ctx: ScenarioContext):
        self.ctx = ctx

    @cached_property
    def geodesic(self) -> Trajectory:
        ctx = self.ctx
        gs0 = lift_state(ctx.system, ctx.rs0, ctx.udot0)
        return integrate_geodesic(ctx.metric, gs0, (0.0, math.inf),
                                  config=ctx.config, stop_at_u=ctx.span[1])

    @cached_property
    def reduced(self) -> ReducedTrajectory:
        return reduce_trajectory(self.geodesic)

    @cached_property
    def herglotz(self) -> ReducedTrajectory:
        ctx = self.ctx
        return integrate_herglotz(ctx.system, ctx.rs0, ctx.span,
                                  config=ctx.config)


def _checkpoint_gaps(ctx: ScenarioContext, ta: ReducedTrajectory,
                     *others: ReducedTrajectory, w_rate: float = 0.0):
    """Largest |x_a - x_b|, |exp(-w_rate u) w_a - w_b| and |xp_a - xp_b|
    over the u checkpoints of trajectory a and each of the others, with
    each state of a read once, as floats."""
    gap_x = gap_w = gap_xp = 0.0
    for u in np.linspace(ctx.span[0], ctx.span[1], _CHECKPOINTS).tolist():
        x_a, xp_a, w_a = ta._state(u)
        for tb in others:
            x_b, xp_b, w_b = tb._state(u)
            for a, b in zip(x_a, x_b):
                gap_x = max(gap_x, abs(a - b))
            gap_w = max(gap_w, abs(math.exp(-w_rate * u) * w_a - w_b))
            for a, b in zip(xp_a, xp_b):
                gap_xp = max(gap_xp, abs(a - b))
    return gap_x, gap_w, gap_xp


@dataclass(frozen=True)
class Check:
    """Everything about one check name.  Its rows are reported as
    `name:suffix`, or as `name` for an empty suffix."""
    fn: Callable  # (ctx, cache, generator or None) -> one residual per row
    rows: Tuple[Tuple[str, float], ...]  # (suffix, tolerance) per row
    certifies: str
    needs_generator: bool = False  # requested as `name:G`
    needs_damped_pair: bool = False  # runs on the damped catalog pair only
    info_if_w_dependent: bool = False  # rows are `info`, without a tolerance
    column: Optional[Tuple[str, Callable]] = None  # run's (prefix, charge fn)
    cloud: Optional[str] = None  # the Halton cloud it samples, _CLOUD_DIMS


CHECKS: Dict[str, Check] = {}
_DAMPED_PAIR = ("damped-time", "damped-action")
# the Halton dimensions of a point cloud (x, u, w) and of a state cloud
# (x, x', u, w) at dimension n
_CLOUD_DIMS = {"point": lambda n: n + 2, "state": lambda n: 2 * n + 2}


def _check(name: str, tol, certifies: str, **flags):
    """Register the decorated function as check `name`; `tol` is its one
    row's tolerance, or the (suffix, tolerance) pairs of its rows."""
    rows = tol if isinstance(tol, tuple) else (("", tol),)

    def register(fn):
        CHECKS[name] = Check(fn, rows, certifies, **flags)
        return fn
    return register


@_check("null-drift", 1e-8, "null-constraint-preservation")
def _check_null_drift(ctx, cache, gen):
    traj = cache.geodesic
    return [float(np.max(np.abs(traj.diagnostics["null_residual"])))]


@_check("u-accel", 1e-8, "u-acceleration-relation")
def _check_u_accel(ctx, cache, gen):
    return [u_equation_residual(ctx.metric, cache.geodesic)]


@_check("w-redundancy", 1e-7, "w-equation-redundancy")
def _check_w_redundancy(ctx, cache, gen):
    return [w_equation_residual(ctx.metric, cache.geodesic)]


@_check("equivalence", 1e-6, "lift-reduce-equivalence")
def _check_equivalence(ctx, cache, gen):
    return [_checkpoint_gaps(ctx, cache.reduced, cache.herglotz)[0]]


@_check("reparam", 1e-9, "reparametrization-invariance")
def _check_reparam(ctx, cache, gen):
    # tighter stepping than the scenario default: the three views must
    # agree to 1e-9, and at rtol 1e-10 their integration error alone
    # reaches 6.5e-10 on generic coupled starts (4.3e-13 at 1e-13)
    cfg = IntegratorConfig(rtol=min(ctx.config.rtol, 1e-13),
                           atol=min(ctx.config.atol, 1e-15),
                           max_steps=ctx.config.max_steps)
    views = []
    for udot0 in (0.5, 1.0, 2.0):
        gs0 = lift_state(ctx.system, ctx.rs0, udot0)
        traj = integrate_geodesic(ctx.metric, gs0, (0.0, math.inf),
                                  config=cfg, stop_at_u=ctx.span[1])
        views.append(reduce_trajectory(traj))
    return [max(_checkpoint_gaps(ctx, *views))]


@_check("homogeneity", 1e-12, "velocity-degree-one-homogeneity",
        cloud="state")
def _check_homogeneity(ctx, cache, gen):
    worst = 0.0
    for rs in state_cloud(ctx.system.n, 100):
        for udot in (0.5, 1.0, 2.0):
            worst = max(worst, homogeneity_residual(ctx.system, rs, udot))
    return [worst]


@_check("killing", 1e-8, "killing-equation", needs_generator=True,
        cloud="point")
def _check_killing(ctx, cache, gen):
    return [max(killing_residual(ctx.metric, gen, p)
                for p in point_cloud(ctx.system.n, 100))]


@_check("conformal-killing", 1e-8, "conformal-killing-equation",
        needs_generator=True, cloud="point")
def _check_conformal_killing(ctx, cache, gen):
    return [max(conformal_killing_residual(ctx.metric, gen, p)[0]
                for p in point_cloud(ctx.system.n, 100))]


@_check("degreewise", 1e-10, "degreewise-invariance-identities",
        needs_generator=True, cloud="point")
def _check_degreewise(ctx, cache, gen):
    return [max(degreewise_max_residual(ctx.system, gen, p)
                for p in point_cloud(ctx.system.n, 100))]


@_check("symmetry", 1e-10, "reduced-invariance-condition",
        needs_generator=True, cloud="state")
def _check_symmetry(ctx, cache, gen):
    return [max(symmetry_condition_residual(ctx.system, gen, rs)
                for rs in state_cloud(ctx.system.n, 100))]


# the plain charge legitimately drifts on a w-dependent system
@_check("noether-charge", 1e-6, "reduced-charge-conservation",
        needs_generator=True, info_if_w_dependent=True,
        column=("Q_", charge_series))
def _check_noether_charge(ctx, cache, gen):
    _, qs = charge_series(ctx.system, gen, cache.herglotz)
    return [float(np.max(np.abs(qs - qs[0])))]


@_check("nonlocal-charge", 1e-6, "nonlocal-charge-conservation",
        needs_generator=True, column=("Qnl_", nonlocal_charge))
def _check_nonlocal_charge(ctx, cache, gen):
    _, qs = nonlocal_charge(ctx.system, gen, cache.herglotz)
    scale = max(1e-30, float(np.max(np.abs(qs))))
    return [float(np.max(np.abs(qs - qs[0]))) / scale]


@_check("conformal-pair", (("pullback", 1e-12), ("flow", 1e-6), ("w-map", 1e-6)),
        "conformal-pair-equivalence", needs_damped_pair=True, cloud="point")
def _check_conformal_pair(ctx, cache, gen):
    ent_a, ent_b, cmap, factor = conformal_pair(n=ctx.system.n,
                                                **ctx.entry.params)
    met_a = BrinkmannMetric(ent_a.system)
    met_b = BrinkmannMetric(ent_b.system)
    pull = max(conformal_pullback_check(met_a, met_b, cmap, p, factor)
               for p in point_cloud(ctx.system.n, 100))
    gamma = ctx.entry.params["gamma"]
    rs0_b = ReducedState(ctx.rs0.x, ctx.rs0.xp, ctx.rs0.u,
                         math.exp(-gamma * ctx.rs0.u) * ctx.rs0.w)

    def flow(ent, rs0):
        # the scenario's own flow from its own start is cache.herglotz
        if ent is ctx.entry and rs0.w == ctx.rs0.w:
            return cache.herglotz
        return integrate_herglotz(ent.system, rs0, ctx.span, config=ctx.config)
    ta, tb = flow(ent_a, ctx.rs0), flow(ent_b, rs0_b)
    return [pull, *_checkpoint_gaps(ctx, ta, tb, w_rate=gamma)[:2]]


@_check("transform-rule", 1e-12, "reduced-transform-rule",
        needs_damped_pair=True, cloud="state")
def _check_transform_rule(ctx, cache, gen):
    ent_a, ent_b, cmap, factor = conformal_pair(n=ctx.system.n,
                                                **ctx.entry.params)
    return [max(transform_rule_check(ent_a.system, ent_b.system, cmap, rs)
                for rs in state_cloud(ctx.system.n, 100))]


def _find_generator(ctx: ScenarioContext, gen_name: str) -> SymmetryGenerator:
    if ctx.entry is None:
        raise ScenarioError("generator checks need a catalog system")
    if gen_name in ctx.entry.generators:
        return ctx.entry.generators[gen_name]
    if gen_name in ctx.entry.conformal:
        return ctx.entry.conformal[gen_name][0]
    known = sorted(set(ctx.entry.generators) | set(ctx.entry.conformal))
    raise ScenarioError(
        f"system {ctx.entry.key!r} has no generator {gen_name!r}; "
        f"known: {', '.join(known)}")


def resolve_checks(ctx: ScenarioContext, names: List[str]) -> List[tuple]:
    """(name, Check, generator or None) for each check name; ScenarioError
    for a name the scenario cannot run, before anything is integrated."""
    out = []
    for name in names:
        base, _, gen_name = name.partition(":")
        check = CHECKS.get(base)
        if check is None:
            raise ScenarioError(
                f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
        if check.needs_generator and not gen_name:
            raise ScenarioError(f"check {base!r} needs a generator: '{base}:<name>'")
        if not check.needs_generator and gen_name:
            raise ScenarioError(f"check {base!r} does not take a generator")
        if check.needs_damped_pair and (ctx.entry is None
                                        or ctx.entry.key not in _DAMPED_PAIR):
            raise ScenarioError(
                f"check {base!r} applies to the catalog systems "
                f"{' / '.join(map(repr, _DAMPED_PAIR))}")
        if check.cloud is not None:
            dims = _CLOUD_DIMS[check.cloud](ctx.system.n)
            _need(dims <= MAX_DIMENSIONS,
                  f"check {base!r} samples a {check.cloud} cloud of {dims} "
                  f"dimensions at n = {ctx.system.n}; Halton clouds have at "
                  f"most {MAX_DIMENSIONS}")
        gen = _find_generator(ctx, gen_name) if gen_name else None
        out.append((name, check, gen))
    return out


def _row(check: str, residual: Optional[float], tol: Optional[float],
         seconds: float, certifies: str, status: Optional[str] = None) -> dict:
    """One report row; `margin` is residual / tol, None without a tol."""
    if status is None:
        status = "pass" if (tol is None or residual <= tol) else "fail"
    margin = None if tol is None or residual is None else residual / tol
    return {"check": check, "status": status,
            "residual": residual, "tol": tol, "margin": margin,
            "seconds": round(seconds, 6), "certifies": certifies}


def run_check(ctx: ScenarioContext, cache: _RunCache,
              resolved: tuple) -> List[dict]:
    name, check, gen = resolved
    start = time.perf_counter()
    residuals = check.fn(ctx, cache, gen)
    seconds = (time.perf_counter() - start) / len(residuals)
    info = check.info_if_w_dependent and ctx.system.w_dependent
    return [_row(f"{name}:{suffix}" if suffix else name, float(res),
                 None if info else tol, seconds, check.certifies,
                 "info" if info else None)
            for (suffix, tol), res in zip(check.rows, residuals)]


# ---------------------------------------------------------------------
# output helpers

def _trajectory_csv(ctx: ScenarioContext, rt: ReducedTrajectory) -> str:
    """One trajectory CSV's text: a row per accepted step, plus a column
    per charge check of the scenario; floats round-trip through %.17g."""
    n = ctx.system.n
    header = (["u", "sigma"] + [f"x{i + 1}" for i in range(n)]
              + [f"xp{i + 1}" for i in range(n)] + ["w", "null_residual"])
    charges = []
    for name, check, gen in ctx.checks:
        if check.column is not None:
            prefix, charge = check.column
            header.append(prefix + name.partition(":")[2])
            charges.append(charge(ctx.system, gen, rt)[1])
    traj = rt.traj
    nulls = traj.diagnostics.get("null_residual", np.zeros(len(rt)))
    lines = [",".join(header)]
    for block in sample_blocks(len(rt)):
        x, xp, u, w = rt.sample_arrays(block)
        rows = np.column_stack([u, traj.t[block], x, xp, w, nulls[block],
                                *[q[block] for q in charges]])
        lines += [",".join(["%.17g" % v for v in row])
                  for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def _report(ctx: ScenarioContext, rows: List[dict]) -> str:
    """Write the rows to report.jsonl in the output directory, print
    them, and return the file's path."""
    os.makedirs(ctx.out_dir, exist_ok=True)
    path = os.path.join(ctx.out_dir, "report.jsonl")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    for row in rows:
        res = "n/a" if row["residual"] is None else f"{row['residual']:.3e}"
        tol = "" if row["tol"] is None else f" tol={row['tol']:.1e}"
        print(f"{row['status'].upper():5s} {row['check']}: residual={res}"
              f"{tol} ({row['seconds']:.2f}s)")
    return path


@contextlib.contextmanager
def _reported_on_error(ctx: ScenarioContext, rows: List[dict], check: str,
                       certifies: str):
    """Where the block raises an HliftError, report `rows` and an `error`
    row for `check` ("Type: message") before the error goes on, so that
    no earlier report stands in for the failed one."""
    start = time.perf_counter()
    try:
        yield
    except HliftError as err:
        row = _row(check, None, None, time.perf_counter() - start, certifies,
                   "error")
        row["error"] = f"{type(err).__name__}: {err}"
        _report(ctx, rows + [row])
        raise


def _exit_code(rows: List[dict]) -> int:
    """4, saying how many, where a reported row failed; else 0."""
    failed = sum(r["status"] == "fail" for r in rows)
    if failed:
        print(f"{failed} check(s) failed")
        return 4
    return 0


# ---------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    ctx = build_context(scn)
    if args.out_dir:
        ctx.out_dir = args.out_dir
    os.makedirs(ctx.out_dir, exist_ok=True)
    # an earlier run's CSVs never stand beside this run's report: they go
    # now, and this run's are written once all of it has succeeded
    csvs = [os.path.join(ctx.out_dir, name)
            for name in ("geodesic.csv", "reduced.csv")]
    for path in csvs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    cache = _RunCache(ctx)
    equiv, drift = CHECKS["equivalence"], CHECKS["null-drift"]
    with _reported_on_error(ctx, [], "run", equiv.certifies):
        start = time.perf_counter()
        rt, ht = cache.reduced, cache.herglotz
        seconds = time.perf_counter() - start
        texts = [_trajectory_csv(ctx, rt), _trajectory_csv(ctx, ht)]
        gap_x, gap_w, _ = _checkpoint_gaps(ctx, rt, ht)
        rows = [
            _row("equivalence-x", gap_x, equiv.rows[0][1], seconds,
                 equiv.certifies),
            _row("equivalence-w", gap_w, None, 0.0, equiv.certifies,
                 status="info"),
            _row("null-drift", drift.fn(ctx, cache, None)[0],
                 drift.rows[0][1], 0.0, drift.certifies),
        ]
    for path, text in zip(csvs, texts):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(f"wrote {', '.join(csvs)}, {_report(ctx, rows)}")
    return _exit_code(rows)


def cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    ctx = build_context(scn)
    if args.out_dir:
        ctx.out_dir = args.out_dir
    checks = resolve_checks(ctx, args.checks) if args.checks else ctx.checks
    if not checks:
        raise ScenarioError("no checks requested (scenario 'checks' empty "
                            "and none given on the command line)")
    cache = _RunCache(ctx)
    rows = []
    for resolved in checks:
        name, check, _ = resolved
        with _reported_on_error(ctx, rows, name, check.certifies):
            rows.extend(run_check(ctx, cache, resolved))
    _report(ctx, rows)
    return _exit_code(rows)


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
