"""Set-up probe, started by run.py in a fresh process.

    python3 perfbench/probe.py WORKLOAD SEED START

START is the parent's ``time.perf_counter()`` taken just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes. The probe imports the package, completes the workload's first
unit of work and prints the seconds elapsed since START.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ.pop("TOA_SEED", None)

import workloads  # noqa: E402  (imports toaloc, numpy and scipy)

workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
workloads.WORKLOADS[workload].first_unit(seed)
print(perf_counter() - start)
