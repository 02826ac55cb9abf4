"""Record one point of the benchmark trajectory as a JSON file.

    python3 tools/bench_record.py OUT.json

Runs ``perfbench/run.py --trace 0`` once on every workload that
``BENCHMARK.json`` lists, for its ``run_seconds``, then the tier-1 test suite
(the command in ROADMAP.md) once, then ``toaloc experiment`` on the
``CLI_PRESETS`` that no workload runs, and writes to OUT.json: each
workload's JSON result lines, the suite's summary line with its wall and CPU
time, each preset's whole-process wall times and their best, the line
counts ``wc -l src/toaloc/*.py`` prints, the ``OPENBLAS_CORETYPE`` it ran
under with the core name and thread count of numpy's and scipy's OpenBLAS
copies, which decide the result bits (kernel) and the speed (threads), and
the checkout's HEAD with whether its tracked files differ from HEAD. Run it
from anywhere; it works on the checkout it sits in. A workload, suite or
preset that fails is recorded with its exit code, and the script exits 1.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the workload seed; perfbench checks seed 20260823 against its digests itself
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# the experiment kinds no perfbench workload runs, timed whole through the CLI:
# best of CLI_REPEATS runs of --trials CLI_TRIALS --jobs 1
CLI_PRESETS = ("paper-stationary-baseline", "paper-deviated-velocity", "paper-iteration-profile")
CLI_TRIALS, CLI_REPEATS = 2000, 3


def run_workload(name: str, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {"exit_code": done.returncode, "lines": lines}


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {
        "exit_code": done.returncode,
        "summary": summary,
        "wall_s": round(wall, 2),
        "user_cpu_s": round(after.ru_utime - before.ru_utime, 2),
        "system_cpu_s": round(after.ru_stime - before.ru_stime, 2),
    }


def run_preset(name: str) -> dict:
    """Wall times of whole ``toaloc experiment --preset`` processes, with one
    BLAS thread as perfbench/run.py sets it, writing to a scratch directory."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs, code = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        argv = [sys.executable, "-m", "toaloc.cli", "experiment", "--preset", name, "--trials",
                str(CLI_TRIALS), "--jobs", "1", "--output", os.path.join(scratch, "out.csv")]
        for _ in range(CLI_REPEATS):
            start = perf_counter()
            done = subprocess.run(argv, env=env, capture_output=True)
            runs.append(round(perf_counter() - start, 3))
            code = code or done.returncode
    return {"exit_code": code, "trials": CLI_TRIALS, "wall_s": runs, "best_s": min(runs)}


# Prints each OpenBLAS copy's core name and thread count as JSON: numpy's
# copy exports its symbols with the suffix 64_, scipy's with none. A copy
# that does not export one reports null for it.
BLAS_PROBE = """
import ctypes, json
import numpy.linalg._umath_linalg as numpy_blas
import scipy.linalg._flapack as scipy_blas
copies = {}
for name, module, suffix in (("numpy", numpy_blas, "64_"), ("scipy", scipy_blas, "")):
    lib = ctypes.CDLL(module.__file__)
    core = getattr(lib, "scipy_openblas_get_corename" + suffix, None)
    threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
    if core is not None:
        core.restype = ctypes.c_char_p
    copies[name] = {"corename": core and core().decode(), "threads": threads and threads()}
print(json.dumps(copies))
"""


def openblas() -> dict:
    """The OPENBLAS_CORETYPE in the environment (None when unset), which passes
    through, and each OpenBLAS copy's core name and thread count, in a process
    started with OPENBLAS_NUM_THREADS=1 as perfbench/run.py sets it. The core
    name alone cannot tell some kernels apart: Prescott and Core2 both read
    Katmai."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
                          text=True)
    copies = json.loads(done.stdout) if done.returncode == 0 else {"exit_code": done.returncode}
    return {"coretype": os.environ.get("OPENBLAS_CORETYPE"), **copies}


def git_head() -> dict:
    """HEAD's SHA, and whether a tracked file differs from it: a record made
    before its change is committed names the parent commit."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
    return {
        "sha": git("rev-parse", "HEAD").strip(),
        "modified": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }


def src_lines() -> dict:
    counts = {p.name: p.read_text().count("\n") for p in sorted(ROOT.glob("src/toaloc/*.py"))}
    return {**counts, "total": sum(counts.values())}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bench_record.py OUT.json", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "seed": SEED,
        "seconds": benchmark["run_seconds"],
        "workloads": {
            w["name"]: run_workload(w["name"], benchmark["run_seconds"])
            for w in benchmark["workloads"]
        },
        "tier1": run_tier1(),
        "cli_presets": {name: run_preset(name) for name in CLI_PRESETS},
        "src_lines": src_lines(),
        "openblas": openblas(),
        "git": git_head(),
    }
    Path(argv[0]).write_text(json.dumps(record, indent=2) + "\n")
    failed = [w for w, r in record["workloads"].items() if r["exit_code"] != 0]
    if record["tier1"]["exit_code"] != 0:
        failed.append("tier-1")
    failed += [p for p, r in record["cli_presets"].items() if r["exit_code"] != 0]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
