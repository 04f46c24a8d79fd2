"""hlift benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 hbench/run.py --workload pair-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs operations back to back for ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed operation list
(its length depends only on ``--seconds``) once untraced and once with
every public hlift callable wrapped in a span, checks that both passes
produced identical outputs, and prints the per-layer metrics plus the
tracing overhead.

Every operation is verified; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds details (machine facts, margins, tail percentile and sample count,
errors).  Exact per-input outputs are kept in ``.bench_out/counts`` and
compared with every later run of the same seed and source tree.
"""

from __future__ import annotations

import os

# one thread: keep BLAS from starting a pool (numpy reads these on import)
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pair-batch", "cloud-sweep", "cli-scenario")
SETUP_REPS = 5
# Host speed is sampled this often (see hbench.speed).
PROBE_INTERVAL_S = 0.25

sys.path.insert(0, str(ROOT))
import numpy  # noqa: E402
from hbench import speed, tracing, workloads  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description="hlift benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _purge_hlift() -> None:
    for name in [n for n in sys.modules if n == "hlift" or n.startswith("hlift.")]:
        del sys.modules[name]


def _source_digest() -> str:
    """Fingerprint of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "blas_env": {v: os.environ.get(v) for v in _BLAS_VARS},
        "platform": platform.platform(),
    }


def _tail(samples, percentile: float):
    """(nearest-rank value at ``percentile``, samples beyond it)."""
    s = numpy.sort(samples)
    rank = max(1, math.ceil(percentile * len(s) / 100.0 - 1e-9))
    return s[rank - 1], len(s) - rank


class Tally:
    """Verdicts of one pass: failures, worst margins, first outputs per input.

    Operations are timed under ``probe.timer``; ``latencies`` takes the
    reference samples' time out and normalizes by the speed they measured
    (see ``hbench.speed``).

    The per-operation records (start, end, verdict) go to an unnamed file
    under ``OUT`` in blocks of ``BLOCK``, so the harness's own memory does
    not grow with the number of operations: a cloud-sweep run holds 200k
    to 300k of them, and kept in memory they would make ``peak_rss_mb``
    rise with the program's speed.
    """

    BLOCK = 4096

    def __init__(self):
        self.failed = 0
        self.n = 0
        self._block = array("d")
        self._spill = tempfile.TemporaryFile(dir=OUT)
        self.margins = {}
        self.outputs = {}
        self.errors = []
        self.probe = speed.SpeedProbe()

    def add(self, verdict, t0: float, t1: float) -> None:
        self._block.extend((t0, t1, 1.0 if verdict.ok else 0.0))
        self.n += 1
        if self.n % self.BLOCK == 0:
            self._block.tofile(self._spill)
            del self._block[:]
        if not verdict.ok:
            self.failed += 1
        for k, v in verdict.margins.items():
            self.margins[k] = max(self.margins.get(k, 0.0), v)
        first = self.outputs.setdefault(verdict.key, verdict.fingerprint)
        if first != verdict.fingerprint:
            self.errors.append(f"input {verdict.key}: rerun output {verdict.fingerprint}"
                               f" differs from first {first}")

    def records(self):
        """(t0, t1, ok) arrays of every operation, in order."""
        self._block.tofile(self._spill)
        del self._block[:]
        self._spill.seek(0)
        rec = numpy.fromfile(self._spill).reshape(-1, 3)
        self._spill.seek(0, os.SEEK_END)
        return rec[:, 0], rec[:, 1], rec[:, 2].astype(numpy.int8)

    def latencies(self):
        """(measured, normalized) seconds of each operation."""
        t0, t1, _ = self.records()
        measured, scale = self.probe.adjust(t0, t1)
        return measured, measured * scale


def _run_ops(wl, hl, tally, stop, tracer=None) -> None:
    """Closed loop: the next operation starts when the previous one returned."""
    error_type = hl.errors.HliftError
    clock = time.perf_counter
    gc.collect()
    i = 0
    while not stop(i):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            result = wl.op(i)
        except error_type as err:
            t1 = clock()
            result = err
        else:
            t1 = clock()
        if isinstance(result, error_type):
            verdict = workloads.Verdict(wl.key(i), False,
                                        ["error", type(result).__name__])
        else:
            verdict = wl.verify(i, result)
        tally.add(verdict, t0, t1)
        i += 1


def _compare(label, a: dict, b: dict, errors: list) -> None:
    for key in sorted(a.keys() & b.keys()):
        if a[key] != b[key]:
            errors.append(f"{label}: input {key}: {a[key]} != {b[key]}")


def _check_store(path: Path, section: str, outputs: dict, errors: list) -> None:
    """Compare exact per-input outputs with earlier runs, then merge them in."""
    store = json.loads(path.read_text()) if path.exists() else {}
    known = store.setdefault(section, {})
    _compare(f"earlier run ({section})", known, outputs, errors)
    for key, value in outputs.items():
        known.setdefault(key, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _result(attempted: int, failed: int, errors: list, metrics: dict) -> dict:
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "errors": errors}


def _timed(wl, hl, args, store, detail):
    """Closed loop for --seconds over whole rounds; returns the result and
    end-to-end metrics."""
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    with tally.probe.timer(PROBE_INTERVAL_S):
        _run_ops(wl, hl, tally, lambda i: (i > 0 and i % wl.round == 0
                                           and time.perf_counter() >= deadline))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_store(store, "outputs", tally.outputs, tally.errors)
    measured, lat = tally.latencies()
    verified = len(lat) - tally.failed
    tail, beyond = _tail(lat, wl.TAIL_PERCENTILE)
    detail.update(ops=len(lat), ops_failed=tally.failed,
                  busy_s=float(measured.sum()),
                  measured_ops_per_s=verified / measured.sum(),
                  reference_s=tally.probe.seconds,
                  tail_percentile=wl.TAIL_PERCENTILE, tail_samples=len(lat),
                  tail_samples_beyond=beyond, margins=tally.margins)
    numpy.savez(OUT / f"{wl.name}-latencies.npz",
                measured=measured, normalized=lat,
                ok=tally.records()[2])
    return _result(len(lat), tally.failed, tally.errors, {
        "ops_per_s": _metric(verified / lat.sum(), "1/s"),
        "op_s.p50": _metric(numpy.median(lat), "s"),
        "op_s.tail": _metric(tail, "s"),
        "setup_s": _metric(statistics.median(detail["setup_s"]), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    })


def _traced(wl, hl, args, store, detail):
    """Untraced then traced pass over a fixed operation list; returns the
    result of both passes and the per-layer metrics."""
    n_ops = wl.trace_ops(args.seconds)
    plain = Tally()
    with plain.probe.timer(PROBE_INTERVAL_S):
        _run_ops(wl, hl, plain, lambda i: i >= n_ops)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup(hl, args.seed)          # traced set-up, op id -1
        traced = Tally()
        with traced.probe.timer(PROBE_INTERVAL_S):
            _run_ops(wl, hl, traced, lambda i: i >= n_ops, tracer)
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"{wl.name}-spans.npz")

    errors = plain.errors + traced.errors
    _compare("untraced vs traced pass", plain.outputs, traced.outputs, errors)
    s = tracer.summary(n_ops, traced.probe)
    counts = {wl.key(i): [int(s["per_op"][k][i]) for k in sorted(s["per_op"])]
              for i in range(n_ops)}
    for section, outputs in (("outputs", plain.outputs), ("traced-counts", counts)):
        _check_store(store, section, outputs, errors)

    # span times in the reference seconds of the traced pass
    plain_busy = plain.latencies()[1].sum()
    traced_measured, traced_lat = traced.latencies()
    traced_busy = traced_lat.sum()
    ref = traced_busy / traced_measured.sum()
    metrics = {}
    for k, name in enumerate(tracing.NAMES):
        calls = int(s["calls"][k])
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(ref * s["self_s"][k], "s")
        metrics[f"{name}.us_per_call"] = _metric(
            1e6 * ref * s["total_s"][k] / calls if calls else 0.0, "us")
    acc, rej, rhs = s["accepted"], s["rejected"], s["rhs_calls"]
    metrics.update({
        "dynamics.accepted_steps": _metric(acc, "count"),
        "dynamics.rejected_steps": _metric(rej, "count"),
        "dynamics.accept_ratio": _metric(acc / (acc + rej) if acc + rej else 0.0,
                                         "ratio"),
        "dynamics.rhs_calls": _metric(rhs, "count"),
        "dynamics.rhs_per_step": _metric(rhs / acc if acc else 0.0, "ratio"),
        "dynamics.field_passes": _metric(s["field_passes"], "count"),
        "dynamics.field_passes_per_rhs": _metric(
            s["field_passes"] / rhs if rhs else 0.0, "ratio"),
        "dynamics.sigma_at.evals_per_call": _metric(
            s["sigma_evals"] / s["sigma_calls"] if s["sigma_calls"] else 0.0,
            "ratio"),
        "trace.overhead": _metric(traced_busy / plain_busy - 1.0, "ratio"),
        "trace.uncovered_share": _metric(
            1.0 - s["op_self_s"] / traced_measured.sum(), "ratio"),
    })
    for name in workloads.MARGINS:
        metrics[f"margin.{name}"] = _metric(traced.margins.get(name, 0.0), "ratio")
    detail.update(ops=n_ops, ops_failed=plain.failed + traced.failed,
                  untraced_busy_s=plain_busy, traced_busy_s=traced_busy,
                  spans=s["spans"], margins=traced.margins)
    return _result(2 * n_ops, plain.failed + traced.failed, errors, metrics)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hlift" / "__init__.py").is_file():
        print(f"hbench: no hlift sources at {SRC / 'hlift'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine_facts()}
    wl = {"pair-batch": workloads.PairBatch,
          "cloud-sweep": workloads.CloudSweep,
          "cli-scenario": lambda: workloads.CliScenario(
              str(OUT / "cli" / f"seed{args.seed}"))}[args.workload]()

    t0, t1 = numpy.empty(SETUP_REPS), numpy.empty(SETUP_REPS)
    probe = speed.SpeedProbe()
    with probe.timer(PROBE_INTERVAL_S):
        for k in range(SETUP_REPS):
            _purge_hlift()
            t0[k] = time.perf_counter()
            hl = importlib.import_module("hlift")
            importlib.import_module("hlift.cli")
            wl.setup(hl, args.seed)
            t1[k] = time.perf_counter()
    if Path(hl.__file__).resolve().parent != SRC / "hlift":
        print(f"hbench: imported hlift from {hl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup, scale = probe.adjust(t0, t1)
    detail["setup_s"] = list(setup * scale)
    detail["measured_setup_s"] = list(setup)

    store = OUT / "counts" / f"{wl.name}-seed{args.seed}-{_source_digest()}.json"
    run = _traced if args.trace else _timed
    result = run(wl, hl, args, store, detail)
    detail["errors"] = result.pop("errors")
    for err in detail["errors"]:
        print(f"hbench: determinism error: {err}", file=sys.stderr)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"detail": detail, **result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
