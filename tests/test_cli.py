"""Scenario CLI: exit codes, file outputs, and reproducibility."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hlift
from hlift import cli, dynamics, geometry, systems
from hlift.cli import main
from hlift.dynamics import integrate_geodesic, lift_state, reduce_trajectory

BASE = {
    "system": "damped-action",
    "params": {"gamma": 0.2, "omega": 1.0},
    "initial": {"x": [1.0], "xp": [0.0], "u": 0.0, "w": 0.25},
    "udot0": 1.0,
    "span": {"from": 0.0, "to": 4.0},
    "integrator": {"rtol": 1e-8, "atol": 1e-10, "max_steps": 100000},
}


def write_scenario(tmp_path, overrides=None, drop=(), name="scn.json"):
    scn = {k: v for k, v in BASE.items() if k not in drop}
    scn.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(scn))
    return str(path)


# ------------------------------------------------------------------ run

def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, {"out_dir": str(out)})
    assert main(["run", path]) == 0
    assert (out / "geodesic.csv").exists()
    assert (out / "reduced.csv").exists()
    rows = [json.loads(line)
            for line in (out / "report.jsonl").read_text().splitlines()]
    checks = {r["check"]: r for r in rows}
    assert checks["equivalence-x"]["status"] == "pass"
    assert checks["null-drift"]["status"] == "pass"
    for r in rows:
        assert set(r) == {"check", "status", "residual", "tol", "margin",
                          "seconds", "certifies"}


def test_run_csv_header_and_charges(tmp_path):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, {
        "out_dir": str(out),
        "checks": ["noether-charge:time-shift", "nonlocal-charge:time-shift"],
    })
    assert main(["run", path]) == 0
    head = (out / "geodesic.csv").read_text().splitlines()[0]
    assert head == "u,sigma,x1,xp1,w,null_residual,Q_time-shift,Qnl_time-shift"
    head2 = (out / "reduced.csv").read_text().splitlines()[0]
    assert head2 == head
    # reduced run is parametrized by u itself
    first = (out / "reduced.csv").read_text().splitlines()[1].split(",")
    assert first[0] == first[1] == "0"


def test_run_byte_identical(tmp_path):
    path = write_scenario(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out-dir", str(a)]) == 0
    assert main(["run", path, "--out-dir", str(b)]) == 0
    for name in ("geodesic.csv", "reduced.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_free_system_defaults(tmp_path):
    # catalog default state kicks in when 'initial' is omitted
    path = write_scenario(tmp_path, {"system": "free", "params": {},
                                     "span": {"from": 0.0, "to": 2.0}},
                          drop=("initial",))
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
    head = (tmp_path / "o" / "geodesic.csv").read_text().splitlines()[0]
    assert head == "u,sigma,x1,x2,xp1,xp2,w,null_residual"


def test_run_exits_4_where_one_of_its_rows_fails(tmp_path, capsys):
    # this start's null drift fails its tolerance: run writes everything,
    # then exits as check does on the same file
    path = write_scenario(tmp_path, {
        "params": {"gamma": 2.0, "omega": 1.0},
        "initial": {"x": [1.0], "xp": [0.0], "u": 0.0, "w": 0.0},
        "span": {"from": 0.0, "to": 10.0}}, drop=("udot0", "integrator"))
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 4
    assert capsys.readouterr().out.endswith("\n1 check(s) failed\n")
    assert (out / "geodesic.csv").exists() and (out / "reduced.csv").exists()
    status = {r["check"]: r["status"] for r in _rows(out)}
    assert status == {"equivalence-x": "pass", "equivalence-w": "info",
                      "null-drift": "fail"}
    assert main(["check", path, "null-drift",
                 "--out-dir", str(tmp_path / "c")]) == 4


# ------------------------------------------------------------------ config errors

@pytest.fixture
def no_integration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(cli, "integrate_geodesic", fail)
    monkeypatch.setattr(cli, "integrate_herglotz", fail)


def _custom(V, **fields):
    system = {"n": 1, "h": [["1"]], "A": ["0"], "V": V}
    return {"system": {**system, **fields}, "params": {}}


# a JSON true is no number: as max_steps it stopped a run with "no
# convergence within True steps", as n it built a 1-D system, and in h
# or A it became 1.0 or 0.0
@pytest.mark.parametrize("overrides, where", [
    ({"span": {"from": 0.0, "to": math.inf}}, "span.to"),
    ({"integrator": {"rtol": math.nan}}, "integrator.rtol"),
    ({"integrator": {"rtol": 0.0, "atol": 0.0}}, "both be zero"),
    ({"integrator": {"rtol": -1e-10}}, "must not be negative"),
    (_custom("0.5*x1^2 + 1e999"), "number out of range"),
    ({"integrator": {"max_steps": True}},
     "error: integrator.max_steps must be an integer, got True\n"),
    ({"integrator": {"max_steps": 2.5}},
     "error: integrator.max_steps must be an integer, got 2.5\n"),
    (_custom("0.5*x1^2", n=True),
     "error: system.n must be a positive integer\n"),
    (_custom("0.5*x1^2", h=[[True]]),
     "error: system: cannot build a field from bool\n"),
    (_custom("0.5*x1^2", A=[False]),
     "error: system: cannot build a field from bool\n"),
], ids=["infinite-span", "nan-rtol", "zero-tolerances", "negative-rtol",
        "out-of-range-literal", "bool-max-steps", "float-max-steps",
        "bool-n", "bool-h", "bool-A"])
def test_invalid_numbers_rejected_at_load(tmp_path, capsys, no_integration,
                                          overrides, where):
    # json.dumps writes Infinity and NaN, which json.load reads back;
    # rejection must come before any integration starts
    path = write_scenario(tmp_path, overrides)
    assert main(["check", path, "null-drift", "equivalence"]) == 2
    assert where in capsys.readouterr().err


def test_a_system_name_need_not_be_a_string(tmp_path):
    # the name labels the system's compiled pipelines
    path = write_scenario(tmp_path, {**_custom("0.5*x1^2", name=5),
                                     "span": {"from": 0.0, "to": 1.0}})
    assert main(["check", path, "homogeneity", "--out-dir",
                 str(tmp_path / "o")]) == 0


def test_unknown_top_level_key(tmp_path, capsys):
    path = write_scenario(tmp_path, {"spam": 1})
    assert main(["run", path]) == 2
    assert "spam" in capsys.readouterr().err


def test_unknown_system(tmp_path, capsys):
    path = write_scenario(tmp_path, {"system": "inverted-pendulum"})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "inverted-pendulum" in err and "harmonic" in err


def test_missing_parameter_named(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "system": {"n": 1, "h": [["1"]], "A": ["0"],
                   "V": "0.5*omega^2*x1^2 + gamma*w"},
        "params": {"omega": 1.0},
    })
    assert main(["run", path]) == 2
    assert "gamma" in capsys.readouterr().err


def test_param_not_accepted_by_catalog_entry(tmp_path, capsys):
    path = write_scenario(tmp_path, {"system": "free",
                                     "params": {"gamma": 0.1}}, drop=("initial",))
    assert main(["run", path]) == 2
    assert "gamma" in capsys.readouterr().err


def test_wrong_state_length(tmp_path, capsys):
    path = write_scenario(tmp_path, {"initial": {"x": [1.0, 2.0], "xp": [0.0],
                                                 "u": 0.0, "w": 0.0}})
    assert main(["run", path]) == 2
    assert "initial.x" in capsys.readouterr().err


def test_span_must_match_initial_u(tmp_path, capsys):
    path = write_scenario(tmp_path, {"span": {"from": 1.0, "to": 4.0}})
    assert main(["run", path]) == 2
    assert "span.from" in capsys.readouterr().err


def _span_scenario(tmp_path, u_from: float, u_to: float) -> str:
    return write_scenario(tmp_path, {
        "initial": {"x": [1.0], "xp": [0.0], "u": u_from, "w": 0.25},
        "span": {"from": u_from, "to": u_to}})


# a span at or below the stepper's smallest step, 1e-14 * max(1, |from|),
# loaded and then stopped with "step size underflow" (exit 3)
@pytest.mark.parametrize("command", [["run"], ["check", "equivalence"]])
@pytest.mark.parametrize("u_from, u_to", [
    (0.0, 1e-14), (1e6, 1e6 + 7.5e-9), (-5.0, -4.99999999999995)])
def test_a_span_below_the_smallest_step_is_rejected_at_load(
        tmp_path, capsys, no_integration, command, u_from, u_to):
    path = _span_scenario(tmp_path, u_from, u_to)
    assert main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    least = dynamics.MIN_STEP * max(1.0, abs(u_from))
    assert err == (f"error: span.to - span.from = {u_to - u_from!r} must "
                   f"exceed the smallest step, 1e-14 * max(1, |span.from|) "
                   f"= {least!r}\n")


@pytest.mark.parametrize("command", [["run"], ["check", "equivalence"]])
@pytest.mark.parametrize("u_from, u_to", [(0.0, 1.5e-14), (1e6, 1e6 + 1e-8)])
def test_a_span_above_the_smallest_step_is_integrated(tmp_path, command,
                                                      u_from, u_to):
    path = _span_scenario(tmp_path, u_from, u_to)
    assert main([command[0], path, *command[1:],
                 "--out-dir", str(tmp_path / "o")]) == 0


def test_invalid_json_located(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"system": "free",\n  "params": }\n')
    assert main(["run", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_unknown_check_name(tmp_path, capsys):
    path = write_scenario(tmp_path, {"checks": ["does-not-exist"]})
    assert main(["check", path]) == 2
    assert "does-not-exist" in capsys.readouterr().err


def test_generator_check_without_generator(tmp_path, capsys):
    path = write_scenario(tmp_path, {"checks": ["killing"]})
    assert main(["check", path]) == 2
    assert "killing:<name>" in capsys.readouterr().err


def test_unknown_generator_listed(tmp_path, capsys):
    path = write_scenario(tmp_path, {"checks": ["killing:rotation-99"]})
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "rotation-99" in err and "time-shift" in err


# ------------------------------------------------------------------ numerics

def test_numerical_failure_exit(tmp_path, capsys):
    path = write_scenario(tmp_path, {"integrator": {"max_steps": 10}})
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert _rows(tmp_path / "o")[0]["error"].startswith(
        "StepLimitExceededError: no convergence within 10 steps")


def test_field_overflow_is_a_numerical_failure(tmp_path, capsys):
    path = write_scenario(tmp_path, _custom("(10*x1)^400"))
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert "numerical failure: V: overflow" in capsys.readouterr().err


# ------------------------------------------------------------------ check

@pytest.mark.parametrize("command", ["check", "run"])
def test_a_failed_invocation_replaces_the_report(tmp_path, capsys, command):
    # at gamma = 5 the damped-action lift blows up before u = 10; the rows
    # finished before the failure are kept, and an error row names the
    # check that failed, so no earlier report stands in for this one
    out = tmp_path / "o"
    checks = {"checks": ["homogeneity", "equivalence", "null-drift"]}
    path = write_scenario(tmp_path, checks)
    assert main([command, path, "--out-dir", str(out)]) == 0
    csvs = [out / "geodesic.csv", out / "reduced.csv"]
    assert all(csv.exists() == (command == "run") for csv in csvs)
    failing = write_scenario(tmp_path, {**checks,
                                        "params": {"gamma": 5.0, "omega": 1.0},
                                        "span": {"from": 0.0, "to": 10.0}},
                             name="gamma5.json")
    assert main([command, failing, "--out-dir", str(out)]) == 3
    # nor do the earlier run's CSVs
    assert not any(csv.exists() for csv in csvs)
    err = capsys.readouterr().err
    assert "numerical failure: state norm exceeded 1e+12" in err
    rows = _rows(out)
    done = [r["check"] for r in rows[:-1]]
    assert done == (["homogeneity"] if command == "check" else [])
    assert rows[-1] == {
        "check": "equivalence" if command == "check" else "run",
        "status": "error", "residual": None, "tol": None, "margin": None,
        "certifies": "lift-reduce-equivalence",
        "error": "BlowUpError: " + err.split("numerical failure: ")[1].strip()}


def test_check_pass_and_report(tmp_path):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, {
        "out_dir": str(out),
        "checks": ["null-drift", "u-accel", "homogeneity",
                   "killing:time-shift", "noether-charge:time-shift"],
    })
    assert main(["check", path]) == 0
    rows = [json.loads(line)
            for line in (out / "report.jsonl").read_text().splitlines()]
    by_name = {r["check"]: r for r in rows}
    assert by_name["null-drift"]["status"] == "pass"
    assert by_name["null-drift"]["certifies"] == "null-constraint-preservation"
    # the plain charge drifts on an action-coupled system: info, not fail
    assert by_name["noether-charge:time-shift"]["status"] == "info"
    assert by_name["noether-charge:time-shift"]["tol"] is None
    assert all(r["seconds"] >= 0 for r in rows)


def test_every_row_carries_its_margin(tmp_path):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, {
        "out_dir": str(out),
        "checks": ["killing:time-shift", "degreewise:action-exp",
                   "noether-charge:time-shift"],
    })
    assert main(["check", path]) == 0
    rows = [json.loads(line)
            for line in (out / "report.jsonl").read_text().splitlines()]
    for r in rows:
        want = None if r["tol"] is None else r["residual"] / r["tol"]
        assert r["margin"] == want, r
    assert [r["margin"] is None for r in rows] == [False, False, True]
    assert list(rows[0]) == ["check", "status", "residual", "tol", "margin",
                             "seconds", "certifies"]


def test_reparam_passes_on_a_generic_coupled_start(tmp_path):
    # a Halton start on which the three udot0 views differed by 2.0e-9
    # when the check stepped at rtol 1e-11 (tolerance 1e-9)
    u0 = 0.5454545454545454
    path = write_scenario(tmp_path, {
        "system": "coupled", "params": {}, "checks": ["reparam"],
        "initial": {"x": [1.0, -1.5555555555555556],
                    "xp": [0.40000000000000036, -0.2857142857142858],
                    "u": u0, "w": -0.5384615384615384},
        "span": {"from": u0, "to": u0 + 10.0}, "out_dir": str(tmp_path / "o"),
    }, drop=("integrator",))
    assert main(["check", path]) == 0
    row = json.loads((tmp_path / "o" / "report.jsonl").read_text())
    assert row["status"] == "pass" and row["residual"] < 1e-10


def test_check_cli_names_override_scenario(tmp_path):
    path = write_scenario(tmp_path, {"checks": ["null-drift"],
                                     "out_dir": str(tmp_path / "o")})
    assert main(["check", path, "homogeneity"]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "o" / "report.jsonl").read_text().splitlines()]
    assert [r["check"] for r in rows] == ["homogeneity"]


def test_check_failure_exit(tmp_path):
    path = write_scenario(tmp_path, {
        "integrator": {"rtol": 1e-3, "atol": 1e-6},
        "checks": ["null-drift"],
        "out_dir": str(tmp_path / "o"),
    })
    assert main(["check", path]) == 4


def test_check_requires_names(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["check", path]) == 2
    assert "no checks requested" in capsys.readouterr().err


def test_conformal_checks_need_damped_system(tmp_path, capsys):
    path = write_scenario(tmp_path, {"system": "harmonic", "params": {},
                                     "checks": ["conformal-pair"]},
                          drop=("initial",))
    assert main(["check", path]) == 2


def test_time_scaling_is_conformal_killing_but_not_killing(tmp_path):
    # the damped-time lift's time scaling is a conformal Killing vector
    # (the paper's conformal pair), not a Killing one
    path = write_scenario(tmp_path, {"system": "damped-time", "params": {}})
    assert main(["check", path, "conformal-killing:time-scaling",
                 "--out-dir", str(tmp_path / "ck")]) == 0
    row, = _rows(tmp_path / "ck")
    assert (row["check"], row["status"], row["tol"]) == (
        "conformal-killing:time-scaling", "pass", 1e-8)
    assert row["residual"] < 1e-15
    assert main(["check", path, "killing:time-scaling",
                 "--out-dir", str(tmp_path / "k")]) == 4
    row, = _rows(tmp_path / "k")
    assert (row["check"], row["status"]) == ("killing:time-scaling", "fail")
    assert row["residual"] == pytest.approx(1.03, abs=0.01)


# an inline system that borrows a catalog name is not that catalog system
_IMPOSTOR = {"system": {"n": 1, "h": [["1"]], "A": ["0"],
                        "V": "5*x1^4 + 3*w", "name": "damped-action"},
             "params": {}}
_HARMONIC = {"system": "harmonic", "params": {}}


@pytest.mark.parametrize("argv, overrides, where", [
    (["check"], dict(_IMPOSTOR, checks=["conformal-pair"]), "conformal-pair"),
    (["check"], dict(_IMPOSTOR, checks=["transform-rule"]), "transform-rule"),
    (["check"], dict(_IMPOSTOR, checks=["symmetry:time-shift"]),
     "catalog system"),
    (["check"], dict(_HARMONIC, checks=["null-drift", "equivalence",
                                        "killing:rotation-99"]), "rotation-99"),
    (["check"], dict(_HARMONIC, checks=["null-drift", "conformal-pair"]),
     "conformal-pair"),
    (["check", "null-drift", "transform-rule"], _HARMONIC, "transform-rule"),
    (["check", "equivalence", "killing:nope"], _HARMONIC, "nope"),
    (["run"], dict(_HARMONIC, checks=["noether-charge:nope"]), "nope"),
    (["run"], dict(_IMPOSTOR, checks=["nonlocal-charge:time-shift"]),
     "catalog system"),
], ids=["impostor-conformal-pair", "impostor-transform-rule",
        "impostor-generator", "unknown-generator", "pair-on-harmonic",
        "cli-pair-on-harmonic", "cli-unknown-generator", "run-charge-column",
        "run-inline-charge-column"])
def test_bad_checks_rejected_at_load(tmp_path, capsys, no_integration,
                                     argv, overrides, where):
    # every requested check is resolved when the scenario loads: a name
    # the scenario cannot run is exit 2 before any integration starts
    path = write_scenario(tmp_path, overrides)
    assert main([argv[0], path, *argv[1:]]) == 2
    assert where in capsys.readouterr().err


def _inline(n: int) -> dict:
    """An inline n-dimensional system with its initial state."""
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {"system": {"n": n, "h": eye, "A": ["0"] * n, "V": "0.5*x1^2"},
            "params": {}, "span": {"from": 0.0, "to": 1.0},
            "initial": {"x": [0.1] * n, "xp": [0.0] * n, "u": 0.0, "w": 0.0}}


def test_a_cloud_beyond_the_halton_limit_is_rejected_at_load(
        tmp_path, capsys, no_integration):
    # a state cloud has 2n + 2 Halton dimensions, of which there are 30:
    # n = 14 loads, and n = 15 is exit 2 naming the limit
    assert cli.build_context({**_inline(14), "checks": ["homogeneity"]})
    path = write_scenario(tmp_path, {**_inline(15), "checks": ["homogeneity"]})
    assert main(["check", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: check 'homogeneity' samples a state cloud of 32 dimensions "
        "at n = 15; Halton clouds have at most 30\n")
    assert not (tmp_path / "o").exists()


def test_every_check_that_samples_a_cloud_declares_it():
    # resolve_checks bounds a check's cloud only where the table names it
    for name, check in cli.CHECKS.items():
        source = inspect.getsource(check.fn)
        sampled = [kind for kind in ("point", "state")
                   if f"{kind}_cloud(" in source]
        assert sampled == ([check.cloud] if check.cloud else []), name


def test_pair_checks_follow_catalog_params(tmp_path):
    # the conformal pair is built at the entry's parameters, its defaults
    # filling in what the scenario leaves out
    path = write_scenario(tmp_path, {"params": {"gamma": 0.35},
                                     "checks": ["conformal-pair",
                                                "transform-rule"],
                                     "out_dir": str(tmp_path / "o")})
    assert main(["check", path]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "o" / "report.jsonl").read_text().splitlines()]
    assert [r["check"] for r in rows] == [
        "conformal-pair:pullback", "conformal-pair:flow",
        "conformal-pair:w-map", "transform-rule"]
    assert [r["tol"] for r in rows] == [1e-12, 1e-6, 1e-6, 1e-12]
    assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize("system, gen, u0, calls", [
    ("damped-time", "action-shift", 0.0, 2),
    ("damped-time", "action-shift", 0.5, 2),
    ("damped-action", "time-shift", 0.0, 2),
    ("damped-action", "time-shift", 0.5, 3)])
def test_conformal_pair_reads_the_scenarios_own_flow(tmp_path, monkeypatch,
                                                     system, gen, u0, calls):
    # the flavor that is the scenario's own entry, started where the
    # scenario starts (the action flavor's w map is the identity at u0 = 0),
    # is cache.herglotz, which noether-charge integrates too: one call
    # fewer, and the rows of the checks run alone
    path = write_scenario(tmp_path, {
        "system": system, "initial": dict(BASE["initial"], u=u0),
        "span": {"from": u0, "to": u0 + 4.0}})
    counted = [0]
    integrate = cli.integrate_herglotz

    def integrate_counted(*args, **kwargs):
        counted[0] += 1
        return integrate(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate_herglotz", integrate_counted)
    names = [f"noether-charge:{gen}", "conformal-pair"]
    assert main(["check", path, *names,
                 "--out-dir", str(tmp_path / "both")]) == 0
    assert counted == [calls]
    alone = []
    for k, name in enumerate(names):
        out = tmp_path / f"alone{k}"
        assert main(["check", path, name, "--out-dir", str(out)]) == 0
        alone += _rows(out)
    assert _rows(tmp_path / "both") == alone
    assert [r["status"] for r in alone[1:]] == ["pass"] * 3


def test_readme_checks_table_matches_check_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Checks", 1)[1].split("Notes:", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {}
    for line in rows:
        name, tol, certifies = (c.strip() for c in line.strip("|").split("|"))
        base, _, gen = name.strip("`").partition(":")
        tols = tuple(float(t) for t in re.findall(r"\d+(?:\.\d*)?e-\d+", tol))
        documented[base] = (gen == "G", tols, certifies)
    assert documented == {
        name: (check.needs_generator, tuple(t for _, t in check.rows),
               check.certifies)
        for name, check in cli.CHECKS.items()}


# ------------------------------------------------------- checkpoints

def _checkpoint_gaps_numpy(ctx, ta, *others, w_rate=0.0):
    """cli._checkpoint_gaps on the ReducedStates of state_at, by numpy:
    its oracle."""
    gap_x = gap_w = gap_xp = 0.0
    for u in np.linspace(ctx.span[0], ctx.span[1], cli._CHECKPOINTS):
        a = ta.state_at(u)
        for tb in others:
            b = tb.state_at(u)
            gap_x = max(gap_x, float(np.max(np.abs(a.x - b.x))))
            gap_w = max(gap_w, abs(math.exp(-w_rate * u) * a.w - b.w))
            gap_xp = max(gap_xp, float(np.max(np.abs(a.xp - b.xp))))
    return gap_x, gap_w, gap_xp


@pytest.mark.parametrize("key", ["free", "harmonic", "damped-time",
                                 "damped-action", "coupled"])
def test_checkpoint_gaps_are_their_numpy_form(key):
    # the gaps on floats are those of ReducedStates and numpy, bit for
    # bit, in the shapes of run and equivalence (a geodesic view against
    # the Herglotz flow), of reparam (against two more views) and of the
    # conformal pair (a w_rate)
    ctx = cli.build_context({"system": key})
    cache = cli._RunCache(ctx)
    views = [reduce_trajectory(integrate_geodesic(
        ctx.metric, lift_state(ctx.system, ctx.rs0, udot0), (0.0, math.inf),
        config=ctx.config, stop_at_u=ctx.span[1])) for udot0 in (0.5, 2.0)]
    for args, w_rate in (((cache.reduced, cache.herglotz), 0.0),
                         ((cache.reduced, *views), 0.0),
                         ((cache.herglotz, cache.reduced), 0.2)):
        got = cli._checkpoint_gaps(ctx, *args, w_rate=w_rate)
        assert got == _checkpoint_gaps_numpy(ctx, *args, w_rate=w_rate)
        assert all(type(g) is float for g in got)


# ------------------------------------------------------- one process

def _rows(out_dir):
    """The report rows in `out_dir`, without their timings."""
    return [{k: v for k, v in json.loads(line).items() if k != "seconds"}
            for line in (out_dir / "report.jsonl").read_text().splitlines()]


def test_one_parser_parses_every_call_afresh(tmp_path, capsys):
    # the parser is built once per process, and each call parses as a
    # freshly built one does: nothing carries over between calls
    path = write_scenario(tmp_path, {"checks": ["null-drift"]})
    calls = [["check", path, "u-accel", "w-redundancy", "--out-dir",
              str(tmp_path / "a")],
             ["check", path, "--out-dir", str(tmp_path / "b")],
             ["list", "--json"],
             ["run", path, "--out-dir", str(tmp_path / "c")]]
    outs = []
    for argv in calls:
        assert cli._parser() is cli._parser()
        assert (vars(cli._parser().parse_args(argv))
                == vars(cli._parser.__wrapped__().parse_args(argv)))
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert [r["check"] for r in _rows(tmp_path / "a")] == ["u-accel",
                                                          "w-redundancy"]
    assert [r["check"] for r in _rows(tmp_path / "b")] == ["null-drift"]
    assert [r["check"] for r in _rows(tmp_path / "c")] == [
        "equivalence-x", "equivalence-w", "null-drift"]
    assert len(json.loads(outs[2])) == 5


def test_u_and_w_equations_share_one_christoffel_pass(tmp_path, monkeypatch):
    # u-accel and w-redundancy read one Christoffel pass over the geodesic
    # samples, one call per block of samples, and report what each
    # reports when it runs alone
    path = write_scenario(tmp_path, {"system": "coupled"},
                          drop=("params", "initial", "span"))
    lengths, calls = [], [0]
    integrate = cli.integrate_geodesic
    christoffel = geometry.BrinkmannMetric.christoffel

    def integrate_counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        lengths.append(len(traj))
        return traj

    def christoffel_counted(*args, **kwargs):
        calls[0] += 1
        return christoffel(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate_geodesic", integrate_counted)
    monkeypatch.setattr(geometry.BrinkmannMetric, "christoffel",
                        christoffel_counted)
    assert main(["check", path, "u-accel", "w-redundancy",
                 "--out-dir", str(tmp_path / "both")]) == 0
    blocks = [math.ceil(k / dynamics._BLOCK) for k in lengths]
    assert lengths[0] > 1 and calls == blocks
    alone = []
    for name in ("u-accel", "w-redundancy"):
        out = tmp_path / name
        assert main(["check", path, name, "--out-dir", str(out)]) == 0
        alone += _rows(out)
    assert _rows(tmp_path / "both") == alone


def test_an_invocation_frees_its_trajectories(tmp_path, monkeypatch, capsys):
    # what one invocation computes once (samples, charge series, dense
    # steps) lives on its trajectories, which die when main returns
    refs = []

    def recorded(integrate):
        def call(*args, **kwargs):
            out = integrate(*args, **kwargs)
            refs.append(weakref.ref(out))
            refs.append(weakref.ref(getattr(out, "traj", out)))
            return out
        return call
    for name in ("integrate_geodesic", "integrate_herglotz"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    charges = ["noether-charge:time-shift", "nonlocal-charge:time-shift"]
    path = write_scenario(tmp_path, {"checks": charges})
    for argv in (["run", path], ["check", path, "u-accel", "w-redundancy",
                                 "equivalence", "reparam", *charges]):
        refs.clear()
        assert main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
        assert len(refs) >= 4
        assert [ref() for ref in refs] == [None] * len(refs)


# a coupled-like inline system with a parameter
_INLINE = {"system": {"n": 2, "h": [["1 + 0.25*x2^2", 0.3], [0.3, 2.0]],
                      "A": ["0.4*x2", "-0.1*x1"],
                      "V": "0.5*(x1^2 + x2^2) + k*w + 0.1*sin(u)",
                      "name": "inline-coupled"},
           "params": {"k": 0.3},
           "initial": {"x": [0.6, -0.3], "xp": [0.2, 0.4], "u": 0.0, "w": 0.0}}


@pytest.mark.parametrize("a, b, b_drop", [
    ({"checks": ["noether-charge:time-shift", "nonlocal-charge:time-shift"]},
     {"checks": ["conformal-pair", "transform-rule", "homogeneity",
                 "symmetry:action-exp", "nonlocal-charge:time-shift"]},
     ("params",)),
    (_INLINE, dict(_INLINE, checks=["u-accel", "w-redundancy", "homogeneity",
                                    "equivalence"]), ()),
], ids=["catalog", "inline"])
def test_a_run_does_not_depend_on_earlier_calls(tmp_path, capsys, a, b,
                                                b_drop):
    # run A, check B, run A in one process write what run A writes in a
    # fresh process.  B selects A's system (the catalog entry with default
    # parameters, or an equal inline system), so that both calls get the
    # one memoized system, and its checks compile pipelines into it
    # before the second run.
    a = write_scenario(tmp_path, a, name="a.json")
    b = write_scenario(tmp_path, b, drop=b_drop, name="b.json")
    assert (cli._build_system(cli.load_scenario(a))[0]
            is cli._build_system(cli.load_scenario(b))[0])
    src = str(Path(hlift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "hlift.cli", "run", a,
                    "--out-dir", str(tmp_path / "fresh")],
                   env=env, check=True, capture_output=True)
    assert main(["run", a, "--out-dir", str(tmp_path / "first")]) == 0
    assert main(["check", b, "--out-dir", str(tmp_path / "b")]) == 0
    assert main(["run", a, "--out-dir", str(tmp_path / "again")]) == 0
    for out in ("first", "again"):
        for name in ("geodesic.csv", "reduced.csv"):
            assert ((tmp_path / out / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
        assert _rows(tmp_path / out) == _rows(tmp_path / "fresh")


def _build_inline(scenario):
    """The system that a scenario with this (JSON) selection builds."""
    system, entry = cli._build_system(json.loads(json.dumps(scenario)))
    assert entry is None
    return system


def test_equal_inline_systems_are_built_once(monkeypatch):
    monkeypatch.setattr(systems, "_BUILT", {})
    system = _build_inline(_INLINE)
    assert _build_inline(_INLINE) is system
    assert _build_inline(dict(_INLINE, params={"k": 0.5})) is not system
    # the order in which the parameters are written does not matter
    two = _build_inline(dict(_INLINE, params={"k": 0.3, "c": 0.1}))
    assert _build_inline(dict(_INLINE, params={"c": 0.1, "k": 0.3})) is two
    assert two is not system
    assert len(systems._BUILT) == 3


# equal as numbers, but not in type or sign
@pytest.mark.parametrize("first, second", [
    (_custom("0.5*x1^2", h=[[1]]), _custom("0.5*x1^2", h=[[1.0]])),
    (dict(_custom("0.5*x1^2 + k*w"), params={"k": 0.0}),
     dict(_custom("0.5*x1^2 + k*w"), params={"k": -0.0})),
    (dict(_custom("0.5*x1^2 + k*w"), params={"k": 1}),
     dict(_custom("0.5*x1^2 + k*w"), params={"k": 1.0})),
    (_custom("0.5*x1^2", n=2, h=[[1, 0.0], [0.0, 1]], A=["0", "0"]),
     _custom("0.5*x1^2", n=2, h=[[1, -0.0], [-0.0, 1]], A=["0", "0"])),
], ids=["int-float-h", "signed-zero-params", "int-float-params",
        "signed-zero-h"])
def test_inline_systems_of_other_types_or_signs_are_distinct(
        monkeypatch, first, second):
    monkeypatch.setattr(systems, "_BUILT", {})
    assert _build_inline(first) is not _build_inline(second)
    assert len(systems._BUILT) == 2


def test_an_invalid_inline_system_caches_nothing(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(systems, "_BUILT", {})
    path = write_scenario(tmp_path, _custom("0.5*x1^2", h=[[True]]))
    for _ in range(2):
        assert main(["check", path, "null-drift"]) == 2
        assert capsys.readouterr().err == (
            "error: system: cannot build a field from bool\n")
        assert systems._BUILT == {}


# ------------------------------------------------------------------ list

def test_list_human(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("free", "harmonic", "damped-time", "damped-action", "coupled"):
        assert key in out
    assert "boost-x1" in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 5
    by_key = {d["key"]: d for d in data}
    assert by_key["free"]["n"] == 2
    assert "time-shift" in by_key["damped-action"]["generators"]
    assert by_key["damped-time"]["conformal"] == ["time-scaling"]
    assert by_key["coupled"]["closed_form"] is False
