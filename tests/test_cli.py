"""Scenario CLI: exit codes, file outputs, and reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hlift
from hlift import cli
from hlift.cli import main

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
    assert main(["run", path]) == 3


def test_field_overflow_is_a_numerical_failure(tmp_path, capsys):
    path = write_scenario(tmp_path, _custom("(10*x1)^400"))
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert "numerical failure: V: overflow" in capsys.readouterr().err


# ------------------------------------------------------------------ check

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


def test_a_run_does_not_depend_on_earlier_calls(tmp_path, capsys):
    # run A, check B, run A in one process write what run A writes in a
    # fresh process.  B selects A's catalog entry with default parameters,
    # so that both calls get the one memoized system, and its checks
    # compile pipelines into it before the second run.
    a = write_scenario(tmp_path, {"checks": ["noether-charge:time-shift",
                                             "nonlocal-charge:time-shift"]},
                       name="a.json")
    b = write_scenario(tmp_path, {"checks": [
        "conformal-pair", "transform-rule", "homogeneity",
        "symmetry:action-exp", "nonlocal-charge:time-shift"]},
        drop=("params",), name="b.json")
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
