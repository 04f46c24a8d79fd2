"""Write the numbers a change must keep, as JSON to diff across trees.

Run from the root of a checkout; hlift is imported from its src/ and the
benchmark's inputs from its hbench/:

    python tests/same_numbers.py --seeds 3 7 > numbers.json

Two trees that compute the same bits write the same bytes.  The output
holds five sections:

  * "pairs": the pair-batch-shaped integrations (both pipelines at rtol
    1e-10 over a u-span of 10, the geodesic lifted with udot0 = 1) of
    every catalog system from its default start and from the pair-batch
    starts of each seed (PairBatch.POOL, 64): t, y, the null residuals,
    rejected and nfev of each trajectory, and the 33 checkpoint states
    (x, x', w, and the geodesic's sigma) of both views, then nfev again,
    which counts the dense steps the reads built;
  * "cli": per seed, every cli-scenario invocation once: its exit code,
    its report rows without `seconds`, and the SHA-256 of its CSVs;
  * "acceptance": the acceptance batch (five systems, twenty starts
    each): per start, the equivalence gap over the 33 checkpoints, the
    null drift, the u-accel and w-redundancy residuals and nfev; then
    u-accel and w-redundancy again on the geodesic from the same start
    at rtol 1e-13 / atol 1e-15, and its sample count (up to about 170,
    so that most of these geodesics take more than one block of the
    residual pass);
  * "clouds": per seed, every cloud-sweep unit (the killing,
    conformal-killing, degreewise, symmetry, homogeneity, transform-rule
    and conformal-pair residuals of the catalog) at each point of its
    cloud (CloudSweep.POOL, 512), in the order cloud-sweep visits them;
  * "charges": charge_series and nonlocal_charge of every catalog
    generator, conformal ones included, and on coupled, which has none,
    of the u-shift and of a generator whose components depend on x, u
    and w; each on the Herglotz trajectory and on the reduced geodesic
    (udot0 = 1) from the default start over a u-span of 10, at rtol
    1e-10 and at rtol 1e-13 / atol 1e-15, then the nfev of both
    trajectories, which counts the dense steps the reads built; and the
    point and state clouds of 100 points at n = 1, 2 and 3, with the
    type of each u and w.

Floats are written as float.hex, so that a change in the last bit shows.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import hlift  # noqa: E402
import hlift.cli  # noqa: E402
from hlift.cloud import point_cloud, state_cloud  # noqa: E402
from hlift.dynamics import (IntegratorConfig, integrate_geodesic,  # noqa: E402
                            integrate_herglotz, lift_state, reduce_trajectory,
                            u_equation_residual, w_equation_residual)
from hlift.geometry import BrinkmannMetric  # noqa: E402
from hlift.symmetry import (SymmetryGenerator, charge_series,  # noqa: E402
                            nonlocal_charge)
from hlift.systems import standard_catalog  # noqa: E402
from hbench import workloads  # noqa: E402

SPAN = 10.0
CFG = IntegratorConfig(rtol=1e-10, atol=1e-12)
TIGHT = IntegratorConfig(rtol=1e-13, atol=1e-15)
CHECKPOINTS = 33


def _hex(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _trajectory(traj) -> dict:
    out = {"t": _hex(traj.t), "y": _hex(traj.y), "rejected": traj.rejected,
           "nfev": traj.nfev}
    if "null_residual" in traj.diagnostics:
        out["null_residual"] = _hex(traj.diagnostics["null_residual"])
    return out


def _integrate(system, metric, rs0):
    geo = integrate_geodesic(metric, lift_state(system, rs0, 1.0),
                             (0.0, math.inf), config=CFG,
                             stop_at_u=rs0.u + SPAN)
    her = integrate_herglotz(system, rs0, (rs0.u, rs0.u + SPAN), config=CFG)
    return geo, reduce_trajectory(geo), her


def _pair(system, metric, rs0) -> dict:
    geo, red, her = _integrate(system, metric, rs0)
    out = {"geodesic": _trajectory(geo), "herglotz": _trajectory(her.traj)}
    states = []
    for u in np.linspace(rs0.u, rs0.u + SPAN, CHECKPOINTS):
        a, b = red.state_at(u), her.state_at(u)
        states.append({"sigma": red.sigma_at(u).hex(),
                       "geodesic": _hex([*a.x, *a.xp, a.w]),
                       "herglotz": _hex([*b.x, *b.xp, b.w])})
    out["checkpoints"] = states
    out["nfev_read"] = [geo.nfev, her.traj.nfev]
    return out


def pairs(seeds) -> dict:
    out = {}
    for key, ent in standard_catalog().items():
        system = ent.system
        metric = BrinkmannMetric(system)
        out[f"{key}/default"] = _pair(system, metric, ent.default_state)
        for seed in seeds:
            states = workloads.reduced_states(
                hlift, system.n, workloads.PairBatch.POOL,
                workloads.halton_start(seed))
            for k, rs0 in enumerate(states):
                out[f"{key}/seed{seed}/{k}"] = _pair(system, metric, rs0)
    return out


def cli(seeds) -> dict:
    out = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:
            wl = workloads.CliScenario(work)
            wl.setup(hlift, seed)
            for s, (argv, out_dir) in enumerate(zip(wl.argv, wl.out_dirs)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = hlift.cli.main(argv)
                rows = []
                report = os.path.join(out_dir, "report.jsonl")
                if os.path.exists(report):
                    with open(report, encoding="utf-8") as fh:
                        rows = [json.loads(line) for line in fh]
                for row in rows:
                    del row["seconds"]
                    for name in ("residual", "tol", "margin"):
                        if isinstance(row[name], float):
                            row[name] = row[name].hex()
                digest = hashlib.sha256()
                for name in ("geodesic.csv", "reduced.csv"):
                    path = os.path.join(out_dir, name)
                    if os.path.exists(path):
                        with open(path, "rb") as fh:
                            digest.update(fh.read())
                out[f"seed{seed}/{s}"] = {"argv": argv[0], "code": code,
                                          "rows": rows,
                                          "csv": digest.hexdigest()}
    return out


def acceptance() -> dict:
    out = {}
    for key, ent in standard_catalog().items():
        system = ent.system
        metric = BrinkmannMetric(system)
        for k, rs0 in enumerate(state_cloud(system.n, 20)):
            geo, red, her = _integrate(system, metric, rs0)
            gap = 0.0
            for u in np.linspace(rs0.u, rs0.u + SPAN, CHECKPOINTS):
                gap = max(gap, float(np.max(np.abs(red.state_at(u).x
                                                   - her.state_at(u).x))))
            nulls = geo.diagnostics["null_residual"]
            tight = integrate_geodesic(metric, lift_state(system, rs0, 1.0),
                                       (0.0, math.inf), config=TIGHT,
                                       stop_at_u=rs0.u + SPAN)
            out[f"{key}/{k}"] = {
                "equivalence": gap.hex(),
                "null-drift": float(np.max(np.abs(nulls))).hex(),
                "u-accel": u_equation_residual(metric, geo).hex(),
                "w-redundancy": w_equation_residual(metric, geo).hex(),
                "nfev": [geo.nfev, her.traj.nfev],
                "tight": {"u-accel": u_equation_residual(metric, tight).hex(),
                          "w-redundancy": w_equation_residual(metric,
                                                              tight).hex(),
                          "samples": len(tight)}}
    return out


def clouds(seeds) -> dict:
    out = {}
    for seed in seeds:
        wl = workloads.CloudSweep()
        wl.setup(hlift, seed)
        units = len(wl.units)
        for u, (check, _, _) in enumerate(wl.units):
            out[f"seed{seed}/{u}"] = {
                "check": check,
                "residuals": [float(wl.op(k * units + u)).hex()
                              for k in range(wl.POOL)]}
    return out


def _generators(key: str, ent) -> dict:
    if key == "coupled":        # it has no generator
        return {"u-shift": SymmetryGenerator(2, ["0", "0"], "1", "0"),
                "probe": SymmetryGenerator(2, ["0.2*u", "x1"], "0.3", "x2*w",
                                           name="probe")}
    return {**ent.generators,
            **{name: gen for name, (gen, _) in ent.conformal.items()}}


def charges() -> dict:
    out = {}
    for key, ent in standard_catalog().items():
        system = ent.system
        metric = BrinkmannMetric(system)
        rs0 = ent.default_state
        span = (rs0.u, rs0.u + SPAN)
        for tol, cfg in (("1e-10", CFG), ("1e-13", TIGHT)):
            geo = integrate_geodesic(metric, lift_state(system, rs0, 1.0),
                                     (0.0, math.inf), config=cfg,
                                     stop_at_u=span[1])
            views = {"herglotz": integrate_herglotz(system, rs0, span,
                                                    config=cfg),
                     "geodesic": reduce_trajectory(geo)}
            for view, rt in views.items():
                for name, gen in _generators(key, ent).items():
                    out[f"{key}/{tol}/{view}/{name}"] = {
                        "noether": _hex(charge_series(system, gen, rt)[1]),
                        "nonlocal": _hex(nonlocal_charge(system, gen, rt)[1])}
                out[f"{key}/{tol}/{view}/nfev"] = rt.traj.nfev
    for n in (1, 2, 3):
        out[f"points/{n}"] = [[*_hex(p.x), float(p.u).hex(), float(p.w).hex(),
                               type(p.u).__name__, type(p.w).__name__]
                              for p in point_cloud(n, 100)]
        out[f"states/{n}"] = [[*_hex(rs.x), *_hex(rs.xp), float(rs.u).hex(),
                               float(rs.w).hex(), type(rs.u).__name__,
                               type(rs.w).__name__]
                              for rs in state_cloud(n, 100)]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="*", default=[3, 7],
                   help="hbench seeds of the pair starts, the "
                        "cli-scenario invocations and the cloud-sweep "
                        "clouds (default: 3 7)")
    args = p.parse_args(argv)
    numbers = {"pairs": pairs(args.seeds), "cli": cli(args.seeds),
               "acceptance": acceptance(), "clouds": clouds(args.seeds),
               "charges": charges()}
    json.dump(numbers, sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
