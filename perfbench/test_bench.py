"""Tests of the benchmark itself; the package's own suite lives in tests/.

    python3 -m pytest -q perfbench/test_bench.py

Each test runs ``perfbench/run.py`` as the benchmark's command does, for
about a second per workload, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Per-layer functions each workload calls inside its timed region.
CALLED = {
    "noise-sweep": {
        "scenario.benchmark_scenario",
        "measurement.generate",
        "estimator.solve",
        "estimator.gauss_newton_step",
        "estimator.default_initial",
        "linalg.solve_spd",
        "linalg.invert_spd",
        "analysis.fim",
        "montecarlo.run_trial",
        "montecarlo.aggregate",
    },
    "verify-theorems": {
        "linalg.invert_spd",
        "analysis.fim",
        "analysis.check_known_velocity_advantage",
        "analysis.check_two_way_advantage",
        "cli.main",
    },
    "epoch-stream": {"estimator.solve", "estimator.gauss_newton_step", "linalg.solve_spd"},
}
CALLED["success-rate"] = CALLED["noise-sweep"]

# Values that depend only on the seed and the program, never on timing.
EXACT_INFO = ("digest", "default_seed_digest", "success_rate", "failed_share", "crlb_gap")
EXACT_SOLVER = ("estimator.solve.iterations_per_call", "estimator.solve.converged_ratio")


def bench(cwd: Path, workload: str, seed: int, trace: int):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    assert len(lines) >= 2, done.stderr
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counters_and_digests(workload):
    (code_a, info_a, a), (code_b, info_b, b) = (bench(ROOT, workload, 7, 1) for _ in range(2))
    assert code_a == code_b == 0 and a["correct"] and b["correct"], info_a["errors"] + info_b["errors"]
    for key in EXACT_INFO:
        assert info_a[key] == info_b[key], key

    metrics = a["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    for name, metric in metrics.items():
        if name.endswith(".calls") or name in EXACT_SOLVER:
            assert metric["value"] == b["metrics"][name]["value"], name
    called = {name[: -len(".calls")] for name, m in metrics.items()
              if name.endswith(".calls") and m["value"] > 0}
    assert called == CALLED[workload]
    assert sum(m["value"] for name, m in metrics.items() if name.endswith(".self_share")) <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    code, info, result = bench(ROOT, workload, 8, 0)
    assert code == 0 and result["correct"] and not info["errors"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert info["latency_samples"] >= 1000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
