"""toaloc benchmark: one workload, end to end or traced, in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: it imports ``toaloc`` from the
``src/`` directory next to ``perfbench/`` and exits with code 2, printing no
result, when that package is missing. Workloads are listed in
``workloads.WORKLOADS`` and described in ``perfbench/README.md``.

With ``--trace 0`` the run measures, with tracing off and interleaved over
the whole run (see ``run_end_to_end``):

* throughput: whole batches; ``trials_per_s`` is the median over batches of
  units per second;
* latency: single units cycling through a pool of ``workloads.POOL`` inputs,
  one after another, each input at least ``UNIT_REPEATS`` times; an input's
  latency is the median of its calls, and ``unit_p50_us``/``unit_p99_us``
  are taken over the inputs;
* set-up: ``SETUP_PROBES`` fresh processes each time their start up to the
  first completed unit of work (imports, the lazy ``scipy.linalg`` import,
  first calls); the median is ``setup_s``.

With ``--trace 1`` it alternates untraced and traced batches and reports
per-layer calls and self time (see ``spans.py``) and the tracing overhead.

End-to-end times are scaled to a reference machine speed: a short kernel
from ``reference.py`` runs between samples, at least every
``KERNEL_EVERY_S``, and each sample is scaled by the kernel times around it
(see ``Timeline``). The raw figures are printed on the statistics line.

Every run first runs one batch at ``DEFAULT_SEED`` (this is also the warm-up)
and compares its digest with the one recorded in ``digests.json``; every
batch of the run must then give the same digest as the first. Standard
output holds JSON lines: run metadata, the run's checked statistics, and last
the result ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

SETUP_PROBES = 5
# The machine's speed changes within a second; the kernel (about 3 ms) has to
# be sampled more often than that to follow it.
KERNEL_EVERY_S = 0.05
# Each pool input is timed at least this often; its latency is the median
# of its calls, so that host noise hitting one call does not reach the tail.
UNIT_REPEATS = 3

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "unit_p50_us": "us",
    "unit_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    "estimator.solve.iterations_per_call": "count",
    "estimator.solve.converged_ratio": "ratio",
    "tracing_overhead": "ratio",
}
PER_FUNCTION_UNITS = {"calls": "count", "self_us": "us", "self_share": "ratio"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return PER_FUNCTION_UNITS[name.rsplit(".", 1)[1]]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh process to its first unit of work."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), repr(start)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _timed(call, *args):
    start = perf_counter()
    out = call(*args)
    return out, perf_counter() - start


class Timeline:
    """Timed samples in run order, with a reference-kernel sample between
    them at least every ``KERNEL_EVERY_S``. Each sample is later scaled by
    the mean kernel time just before and just after it."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.events: list[tuple[str, float]] = []
        self._next_kernel = 0.0
        self.kernel()

    def kernel(self) -> None:
        self.events.append(("kernel", self._kernel()))
        self._next_kernel = perf_counter() + KERNEL_EVERY_S

    def add(self, kind: str, seconds: float) -> None:
        self.events.append((kind, seconds))
        if perf_counter() >= self._next_kernel:
            self.kernel()

    def samples(self, kind: str, reference_s: float) -> list[tuple[float, float]]:
        """(raw, scaled) seconds of every sample of one kind."""
        out = []
        before = None
        pending = []
        for event, value in self.events:
            if event == "kernel":
                out.extend((raw, raw * 2.0 * reference_s / (before + value)) for raw in pending)
                before, pending = value, []
            elif event == kind:
                pending.append(value)
        return out


def run_end_to_end(workload, seconds: float, probe, kernel) -> tuple[Timeline, list, object]:
    """Rounds of one whole batch, then single units for as long as the batch
    took, with a set-up probe every ``seconds / SETUP_PROBES``, until the
    deadline has passed and every pool input is timed ``UNIT_REPEATS`` times;
    reference-kernel samples fall between them. Interleaving makes
    every metric sample the whole run. Probe time does not count against
    the deadline. Returns the timeline, the batch digests and the first
    batch's output."""
    from workloads import POOL

    timeline = Timeline(kernel)
    digests, first = [], None
    probes = k = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        out, elapsed = _timed(workload.batch)
        timeline.add("batch", elapsed)
        digests.append(workload.digest(out))
        first = out if first is None else first
        chunk_end = perf_counter() + elapsed
        while perf_counter() < chunk_end:
            timeline.add("unit", _timed(workload.unit, k)[1])
            k += 1
        if probes < SETUP_PROBES and perf_counter() - start >= probes * seconds / SETUP_PROBES:
            timeline.kernel()
            setup_s, elapsed = _timed(probe)
            timeline.add("probe", setup_s)  # followed by a kernel sample: elapsed > KERNEL_EVERY_S
            probes += 1
            deadline += elapsed
        if perf_counter() >= deadline and probes == SETUP_PROBES and k >= UNIT_REPEATS * POOL:
            timeline.kernel()
            return timeline, digests, first


def run_traced(workload, seconds: float, tracer):
    """Rounds of one untraced and one traced batch until the deadline, so
    that both sample the same stretches of the run."""
    times, traced_times, digests, first = [], [], [], None
    deadline = perf_counter() + seconds
    while True:
        out, elapsed = _timed(workload.batch)
        times.append(elapsed)
        digests.append(workload.digest(out))
        first = out if first is None else first
        with tracer:
            out, elapsed = _timed(workload.batch)
        traced_times.append(elapsed)
        digests.append(workload.digest(out))
        if perf_counter() >= deadline:
            return times, traced_times, digests, first


def _throughput(workload, times) -> float:
    return statistics.median(workload.units_per_batch / t for t in times)


def _unit_percentiles(latencies, pool: int) -> tuple[float, float]:
    """p50 and p99 over inputs of each input's median latency, in seconds;
    latency k belongs to input k % pool."""
    per_input = [statistics.median(latencies[i::pool]) for i in range(pool)]
    cuts = statistics.quantiles(per_input, n=100)
    return cuts[49], cuts[98]


def _mismatched_units(workload, digests) -> int:
    """Units of the batches whose digest differs from the first batch's."""
    return workload.units_per_batch * sum(d != digests[0] for d in digests)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def run_metadata() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_lines": sum(p.read_text().count("\n") for p in sorted(SRC.rglob("*.py"))),
    }


def _measure_end_to_end(workload, seconds, probe, errors):
    import reference
    from workloads import POOL

    timeline, digests, first = run_end_to_end(workload, seconds, probe, reference.kernel_seconds)
    outcome = workload.outcome(first)
    if len(set(digests)) != 1:
        errors.append(f"batch digests differ within the run: {sorted(set(digests))}")

    batches, units, setup = (
        timeline.samples(kind, reference.REFERENCE_S) for kind in ("batch", "unit", "probe")
    )
    p50, p99 = _unit_percentiles([t for _, t in units], POOL)
    raw_p50, raw_p99 = _unit_percentiles([t for t, _ in units], POOL)
    metrics = {
        "trials_per_s": _throughput(workload, [t for _, t in batches]),
        "unit_p50_us": p50 * 1e6,
        "unit_p99_us": p99 * 1e6,
        "setup_s": statistics.median(t for _, t in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": outcome.success_rate,
    }
    kernels = [value for event, value in timeline.events if event == "kernel"]
    samples = {
        "batches": len(batches),
        "latency_samples": len(units),
        "setup_probes": len(setup),
        "kernel_samples": len(kernels),
        "kernel_median_s": statistics.median(kernels),
        "raw_trials_per_s": _throughput(workload, [t for t, _ in batches]),
        "raw_unit_p50_us": raw_p50 * 1e6,
        "raw_unit_p99_us": raw_p99 * 1e6,
        "raw_setup_s": statistics.median(t for t, _ in setup),
    }
    attempted = workload.units_per_batch * len(batches) + len(units)
    failed = outcome.failed_units * len(batches) + _mismatched_units(workload, digests)
    return outcome, metrics, samples, attempted, failed


def _measure_traced(workload, seconds, spans_path, errors):
    import spans

    tracer = spans.Tracer()
    times, traced_times, digests, first = run_traced(workload, seconds, tracer)
    outcome = workload.outcome(first)
    if len(set(digests)) != 1:
        errors.append(f"traced and untraced digests differ: {sorted(set(digests))}")
    if tracer.missing_sites:
        errors.append(f"call sites not found: {tracer.missing_sites}")

    batches = len(traced_times)
    wall = sum(traced_times)
    metrics = {}
    self_times = tracer.self_times()
    for name, (calls, self_s) in self_times.items():
        metrics[f"{name}.calls"] = calls / batches
        metrics[f"{name}.self_us"] = self_s / calls * 1e6 if calls else 0.0
        metrics[f"{name}.self_share"] = self_s / wall
    solves = self_times[spans.SOLVE][0]
    metrics["estimator.solve.iterations_per_call"] = tracer.solve_iterations / solves if solves else 0.0
    metrics["estimator.solve.converged_ratio"] = tracer.solve_converged / solves if solves else 0.0
    metrics["tracing_overhead"] = _throughput(workload, times) / _throughput(workload, traced_times) - 1.0
    share_sum = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    if share_sum > 1.0:
        errors.append(f"self-time shares sum to {share_sum} > 1")

    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    samples = {"batches": len(times), "traced_batches": batches, "spans": len(tracer.spans)}
    attempted = workload.units_per_batch * (len(times) + batches)
    failed = outcome.failed_units * (len(times) + batches) + _mismatched_units(workload, digests)
    return outcome, metrics, samples, attempted, failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "toaloc" / "__init__.py").is_file():
        print(f"error: the toaloc package is not at {SRC}", file=sys.stderr)
        return 2
    # the CLI would let TOA_SEED override the workload's seed
    os.environ.pop("TOA_SEED", None)
    # the systems are at most 8x6: a second BLAS thread only spins, and on a
    # two-core machine it competes with the probes and with other tenants
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    errors: list[str] = []
    reference.kernel_seconds()
    default = cls(workloads.DEFAULT_SEED)
    default_seed_digest = default.digest(default.batch())
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    if default_seed_digest != recorded:
        errors.append(
            f"seed {workloads.DEFAULT_SEED} digest {default_seed_digest} != recorded {recorded}"
        )
    workload = default if args.seed == workloads.DEFAULT_SEED else cls(args.seed)

    if args.trace:
        spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        outcome, metrics, samples, attempted, failed = _measure_traced(
            workload, args.seconds, spans_path, errors
        )
    else:
        outcome, metrics, samples, attempted, failed = _measure_end_to_end(
            workload, args.seconds, lambda: _probe_setup(args.workload, args.seed), errors
        )
    errors.extend(outcome.errors)

    print(json.dumps({"meta": run_metadata()}))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "units_per_batch": workload.units_per_batch,
        **samples,
        "digest": outcome.digest,
        "default_seed_digest": default_seed_digest,
        "success_rate": outcome.success_rate,
        "failed_share": outcome.failed_share,
        "crlb_gap": outcome.crlb_gap,
        "errors": errors,
    }))
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
