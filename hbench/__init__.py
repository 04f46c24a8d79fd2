"""Benchmark harness for hlift.

Run ``python3 hbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  ``hbench.workloads`` defines the workloads,
``hbench.tracing`` the outside-in span tracer, ``hbench.speed`` the
reference work that normalizes timings for the host's drifting CPU speed,
and ``BENCHMARK.json`` at the root names the metrics each run prints.
"""
