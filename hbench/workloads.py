"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` from a seed (the seed picks
the Halton start index passed to ``hlift.cloud.halton``; states and
points are mapped into ``cloud.DEFAULT_BOUNDS``), runs operation ``i``
in ``op`` (the timed part), and judges the result in ``verify``.  A
``round`` is one operation of every kind the workload mixes; runs end on
a round boundary so that every run measures the same mix.  The tail
percentile is fixed per workload, so that runs of a faster or slower
program report the same percentile.

Operation ``i`` always maps to the same input for a given seed, whatever
the run length, so results and counts of two runs can be compared per
input key.  Pools are finite; a long run wraps around and repeats inputs,
and a repeat must reproduce the first result exactly.

hlift callables are looked up through their module at call time, so the
tracer's wrappers are seen.  The modules are imported by the harness and
passed in; nothing here imports hlift at module level.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

# Correctness gates.  They are fixed here, not read from hlift, so that a
# change to the program cannot loosen the benchmark's own checks.
PAIR_EQUIVALENCE_TOL = 1e-6
PAIR_NULL_DRIFT_TOL = 1e-8
CLOUD_TOL = {
    "killing": 1e-8,
    "conformal-killing": 1e-8,
    "degreewise": 1e-10,
    "symmetry": 1e-10,
    "homogeneity": 1e-12,
    "transform-rule": 1e-12,
    "conformal-pair": 1e-12,
}
# every margin any workload records, in output order
MARGINS = ("equivalence", "null-drift", "u-accel", "w-redundancy", "reparam",
           "homogeneity", "killing", "conformal-killing", "degreewise",
           "symmetry", "nonlocal-charge", "conformal-pair", "transform-rule")

SEED_STRIDE = 4096


def halton_start(seed: int) -> int:
    return 1 + SEED_STRIDE * seed


def _span(bounds, key, t):
    lo, hi = bounds[key]
    return lo + (hi - lo) * t


def reduced_states(hl, n: int, count: int, start: int):
    """Halton reduced states (x, x', u, w) in the default sampling box."""
    b = hl.cloud.DEFAULT_BOUNDS
    return [hl.dynamics.ReducedState(_span(b, "x", r[:n]),
                                     _span(b, "xp", r[n:2 * n]),
                                     float(_span(b, "u", r[2 * n])),
                                     float(_span(b, "w", r[2 * n + 1])))
            for r in hl.cloud.halton(count, 2 * n + 2, start)]


def lifted_points(hl, n: int, count: int, start: int):
    """Halton points (x, u, w) in the default sampling box."""
    b = hl.cloud.DEFAULT_BOUNDS
    return [hl.geometry.Point(_span(b, "x", r[:n]), float(_span(b, "u", r[n])),
                              float(_span(b, "w", r[n + 1])))
            for r in hl.cloud.halton(count, n + 2, start)]


@dataclass
class Verdict:
    key: str
    ok: bool
    fingerprint: list            # exact outputs a rerun must reproduce
    margins: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------

class PairBatch:
    """Acceptance-batch shape: both pipelines per start, every catalog system.

    Operation i integrates system i % 5 from its (i // 5)-th Halton start:
    the geodesic (udot0 = 1, stop at u0 + 10) reduced by u, the Herglotz
    flow over the same span, then the equivalence gap at 33 checkpoints
    and the null drift.
    """

    name = "pair-batch"
    TAIL_PERCENTILE = 75.0       # a 40 s run holds 65-90 pairs
    SPAN = 10.0
    CHECKPOINTS = 33
    POOL = 64

    def setup(self, hl, seed: int) -> None:
        self.hl = hl
        self.cfg = hl.dynamics.IntegratorConfig(rtol=1e-10, atol=1e-12)
        self.systems = []
        for key, ent in hl.systems.standard_catalog().items():
            self.systems.append((key, ent.system,
                                 hl.geometry.BrinkmannMetric(ent.system),
                                 reduced_states(hl, ent.system.n, self.POOL,
                                                halton_start(seed))))

    @property
    def round(self) -> int:
        return len(self.systems)

    def trace_ops(self, seconds: int) -> int:
        return self.round * max(1, seconds // 15)

    def key(self, i: int) -> str:
        s = len(self.systems)
        return f"{self.systems[i % s][0]}/{(i // s) % self.POOL}"

    def op(self, i: int):
        s = len(self.systems)
        _, system, metric, starts = self.systems[i % s]
        rs0 = starts[(i // s) % self.POOL]
        dyn = self.hl.dynamics
        u1 = rs0.u + self.SPAN
        geo = dyn.integrate_geodesic(metric, dyn.lift_state(system, rs0, 1.0),
                                     (0.0, math.inf), config=self.cfg,
                                     stop_at_u=u1)
        red = dyn.reduce_trajectory(geo)
        her = dyn.integrate_herglotz(system, rs0, (rs0.u, u1), config=self.cfg)
        gap = 0.0
        for u in np.linspace(rs0.u, u1, self.CHECKPOINTS):
            gap = max(gap, float(np.max(np.abs(red.state_at(u).x
                                                - her.state_at(u).x))))
        null = float(np.max(np.abs(geo.diagnostics["null_residual"])))
        return gap, null, [len(geo) - 1, geo.rejected,
                           len(her) - 1, her.traj.rejected]

    def verify(self, i: int, result) -> Verdict:
        gap, null, steps = result
        return Verdict(self.key(i),
                       gap <= PAIR_EQUIVALENCE_TOL and null <= PAIR_NULL_DRIFT_TOL,
                       steps + [gap, null],
                       {"equivalence": gap / PAIR_EQUIVALENCE_TOL,
                        "null-drift": null / PAIR_NULL_DRIFT_TOL})


# ---------------------------------------------------------------------

class CloudSweep:
    """Every pointwise identity of the CLI, one Halton point per operation.

    Units: killing, conformal-killing, degreewise and symmetry for each
    catalog generator (the conformal time-scaling generator skips the
    Killing check, which it is not meant to satisfy), homogeneity at
    udot 0.5, 1 and 2 on every system, the damped pair's transform rule
    and its conformal pullback.  Operation i evaluates unit i % U at point
    (i // U) of that unit's cloud.
    """

    name = "cloud-sweep"
    # A 40 s run holds 200k-330k points, but above p95 the spread between
    # runs of 120 us operations reaches 6-11%: host noise the speed probe
    # cannot follow at that time scale.
    TAIL_PERCENTILE = 95.0
    POOL = 512

    def setup(self, hl, seed: int) -> None:
        self.hl = hl
        start = halton_start(seed)
        clouds = {}

        def cloud(kind, n):
            if (kind, n) not in clouds:
                make = lifted_points if kind == "point" else reduced_states
                clouds[kind, n] = make(hl, n, self.POOL, start)
            return clouds[kind, n]

        units = []
        for key, ent in hl.systems.standard_catalog().items():
            system, n = ent.system, ent.system.n
            metric = hl.geometry.BrinkmannMetric(system)
            gens = [(g, ("killing", "conformal-killing"))
                    for g in ent.generators.values()]
            gens += [(g, ("conformal-killing",)) for g, _ in ent.conformal.values()]
            for gen, metric_checks in gens:
                for check in metric_checks:
                    units.append((check, (metric, gen), cloud("point", n)))
                units.append(("degreewise", (system, gen), cloud("point", n)))
                units.append(("symmetry", (system, gen), cloud("state", n)))
            for udot in (0.5, 1.0, 2.0):
                units.append(("homogeneity", (system, udot), cloud("state", n)))
        ent_a, ent_b, cmap, factor = hl.systems.conformal_pair()
        units.append(("transform-rule", (ent_a.system, ent_b.system, cmap),
                      cloud("state", 1)))
        units.append(("conformal-pair",
                      (hl.geometry.BrinkmannMetric(ent_a.system),
                       hl.geometry.BrinkmannMetric(ent_b.system), cmap, factor),
                      cloud("point", 1)))
        self.units = units

    @property
    def round(self) -> int:
        return len(self.units)

    def trace_ops(self, seconds: int) -> int:
        return self.round * 5 * seconds

    def key(self, i: int) -> str:
        u = len(self.units)
        return f"{i % u}/{(i // u) % self.POOL}"

    def op(self, i: int) -> float:
        u = len(self.units)
        check, args, pts = self.units[i % u]
        p = pts[(i // u) % self.POOL]
        hl = self.hl
        if check == "killing":
            return hl.symmetry.killing_residual(*args, p)
        if check == "conformal-killing":
            return hl.symmetry.conformal_killing_residual(*args, p)[0]
        if check == "degreewise":
            return hl.symmetry.degreewise_max_residual(*args, p)
        if check == "symmetry":
            return hl.symmetry.symmetry_condition_residual(*args, p)
        if check == "homogeneity":
            system, udot = args
            return hl.dynamics.homogeneity_residual(system, p, udot)
        if check == "transform-rule":
            return hl.symmetry.transform_rule_check(*args, p)
        met_a, met_b, cmap, factor = args
        return hl.geometry.conformal_pullback_check(met_a, met_b, cmap, p, factor)

    def verify(self, i: int, residual: float) -> Verdict:
        check = self.units[i % len(self.units)][0]
        tol = CLOUD_TOL[check]
        return Verdict(self.key(i), residual <= tol, [residual],
                       {check: residual / tol})


# ---------------------------------------------------------------------

# (subcommand, catalog system, checks, scenario integrator block) per kind.
#
# The coupled check is split in two invocations on the same start, and
# the one that runs reparam sets rtol 1e-13 / atol 1e-15.  At the scenario
# default (rtol 1e-10) hlift's reparam check steps at its own floor of
# rtol 1e-11, and on generic coupled starts over a u-span of 10 its three
# udot0 views then differ by up to 8.5e-9 (integration error; state
# magnitudes below 5), above the check's 1e-9 tolerance, so most seeded
# invocations fail; at rtol 1e-12 one start in twelve still reaches
# 1.3e-9.  That is a defect of the program's reparam check, not of the
# inputs.  Until it is fixed, that invocation asks for the stepping the
# check needs, and the other coupled checks keep the default.
CLI_KINDS = (
    ("run", "damped-action",
     ["noether-charge:time-shift", "nonlocal-charge:time-shift"], None),
    ("check", "coupled",
     ["null-drift", "u-accel", "w-redundancy", "equivalence"], None),
    ("check", "coupled", ["reparam"], {"rtol": 1e-13, "atol": 1e-15}),
    ("check", "damped-action",
     ["noether-charge:time-shift", "nonlocal-charge:time-shift",
      "conformal-pair", "transform-rule"], None),
)
# report rows that are compared against the margin of another name
_ROW_MARGIN = {"equivalence-x": "equivalence"}


class CliScenario:
    """In-process ``hlift.cli.main`` calls on scenario files written in setup.

    Scenario s has kind s % 4 and the (s // 4)-th Halton start of its
    system; operation i invokes scenario i % SCENARIOS.
    """

    name = "cli-scenario"
    # A 40 s run holds 16-32 invocations.  A quarter of them are the
    # reparam check, which integrates three trajectories at rtol 1e-13 and
    # takes four to six times as long as the others.  p87.5 is the middle
    # of that group, so a change to the reparam check moves it and it is a
    # different statistic from p50, which lies among the other three kinds.
    # It leaves 2-4 samples beyond it; a percentile with ten beyond would
    # sit on the border between the groups and swing from run to run.
    TAIL_PERCENTILE = 87.5
    STARTS = 12                  # so that a run seldom repeats an input
    SCENARIOS = len(CLI_KINDS) * STARTS
    round = len(CLI_KINDS)

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.first_csv: Dict[int, str] = {}

    def setup(self, hl, seed: int) -> None:
        self.hl = hl
        start = halton_start(seed)
        catalog = hl.systems.standard_catalog()
        states = {key: reduced_states(hl, catalog[key].system.n, self.STARTS, start)
                  for key in {kind[1] for kind in CLI_KINDS}}
        os.makedirs(self.work_dir, exist_ok=True)
        self.argv: List[List[str]] = []
        self.out_dirs: List[str] = []
        for s in range(self.SCENARIOS):
            command, system, checks, integrator = CLI_KINDS[s % len(CLI_KINDS)]
            rs = states[system][s // len(CLI_KINDS)]
            scenario = {"system": system, "checks": checks,
                        "initial": {"x": [float(v) for v in rs.x],
                                    "xp": [float(v) for v in rs.xp],
                                    "u": rs.u, "w": rs.w},
                        "span": {"from": rs.u, "to": rs.u + 10.0}}
            if command == "run":
                scenario["params"] = {"gamma": 0.2, "omega": 1.0}
            if integrator is not None:
                scenario["integrator"] = integrator
            path = os.path.join(self.work_dir, f"scenario-{s}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh, indent=1)
            out_dir = os.path.join(self.work_dir, f"out-{s}")
            self.argv.append([command, path, "--out-dir", out_dir])
            self.out_dirs.append(out_dir)

    def trace_ops(self, seconds: int) -> int:
        return self.round * max(1, seconds // 15)

    def key(self, i: int) -> str:
        return str(i % self.SCENARIOS)

    def op(self, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.hl.cli.main(self.argv[i % self.SCENARIOS])

    def verify(self, i: int, code: int) -> Verdict:
        s = i % self.SCENARIOS
        out_dir = self.out_dirs[s]
        rows = []
        report = os.path.join(out_dir, "report.jsonl")
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
        digest = ""
        if CLI_KINDS[s % len(CLI_KINDS)][0] == "run":
            h = hashlib.sha256()
            for name in ("geodesic.csv", "reduced.csv"):
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        h.update(fh.read())
            digest = h.hexdigest()
        # clear the outputs so the next invocation cannot pass on stale files
        for name in ("report.jsonl", "geodesic.csv", "reduced.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        same_csv = self.first_csv.setdefault(s, digest) == digest
        ok = (code == 0 and bool(rows) and same_csv
              and all(r["status"] in ("pass", "info") for r in rows))
        margins: Dict[str, float] = {}
        for r in rows:
            if r["tol"] is None:
                continue
            base = r["check"].split(":")[0]
            base = _ROW_MARGIN.get(base, base)
            margins[base] = max(margins.get(base, 0.0), r["residual"] / r["tol"])
        fingerprint = [code, digest] + [[r["check"], r["status"], r["residual"]]
                                        for r in rows]
        return Verdict(self.key(i), ok, fingerprint, margins)
