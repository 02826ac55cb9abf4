"""Record one point of the benchmark trajectory as a JSON file.

    python3 tools/bench_record.py OUT.json

Runs ``perfbench/run.py --trace 0`` once on every workload that
``BENCHMARK.json`` lists, for its ``run_seconds``, then the tier-1 test suite
(the command in ROADMAP.md) once, and writes to OUT.json: each workload's
JSON result lines, the suite's summary line with its wall and CPU time, and
the line counts ``wc -l src/toaloc/*.py`` prints. Run it from anywhere; it
works on the checkout it sits in. A workload or suite that fails is
recorded with its exit code, and the script exits 1.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the workload seed; perfbench checks seed 20260823 against its digests itself
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


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
        "src_lines": src_lines(),
    }
    Path(argv[0]).write_text(json.dumps(record, indent=2) + "\n")
    failed = [w for w, r in record["workloads"].items() if r["exit_code"] != 0]
    if record["tier1"]["exit_code"] != 0:
        failed.append("tier-1")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
