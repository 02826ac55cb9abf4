"""Seeded Monte-Carlo experiment harness.

Reproduces the benchmark studies at configurable scale: RMSE vs noise level,
RMSE vs device speed, the stationary-baseline comparison, the deviated
velocity study, initialization success rates, and iteration/runtime
profiling. Per-trial seeds are derived from (base seed, sweep index, trial
index) with a splitmix64-style mix, so results are byte-identical regardless
of how trials are scheduled across workers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import analysis
# default_initial, solve, generate and benchmark_scenario are unused here but
# stay importable: perfbench/spans.py wraps them at these names
from .estimator import Mode, default_initial, solve, solve_batch  # noqa: F401
from .measurement import generate, synthesize  # noqa: F401
from .scenario import SPEED_OF_LIGHT, UdState, benchmark_parts, benchmark_scenario  # noqa: F401
from .scenario import benchmark_states, direction

_MASK64 = (1 << 64) - 1

# Trials per in-process block: each outcome label of a block is one batched
# solve and one batched CRLB. Larger blocks gain little speed, and time the
# points of the iteration profile further apart.
BLOCK = 128

NOISE_SWEEP = "noise-sweep"
SPEED_SWEEP = "speed-sweep"
STATIONARY_BASELINE = "stationary-baseline"
VELOCITY_MISMATCH = "velocity-mismatch"
SUCCESS_RATE = "success-rate"
ITERATION_PROFILE = "iteration-profile"

EXPERIMENT_KINDS = (
    NOISE_SWEEP,
    SPEED_SWEEP,
    STATIONARY_BASELINE,
    VELOCITY_MISMATCH,
    SUCCESS_RATE,
    ITERATION_PROFILE,
)

CSV_COLUMNS = [
    "sweep_value",
    "mode",
    "n_trials",
    "n_converged",
    "pos_rmse_m",
    "clk_rmse_m",
    "pos_crlb_m",
    "clk_crlb_m",
    "pred_rmse_m",
    "success_rate",
    "mean_solve_us",
]


def derive_seed(base_seed: int, sweep_index: int, trial_index: int) -> int:
    """64-bit mix of (base seed, sweep index, trial index), splitmix64 finalizer."""
    x = (
        base_seed * 0x9E3779B97F4A7C15
        + (sweep_index + 1) * 0xBF58476D1CE4E5B9
        + (trial_index + 1) * 0x94D049BB133111EB
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def whole_number(value, name: str) -> int:
    """A count or seed from a config document: an integer, or a float without a fraction."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    sweep_values: tuple[float, ...]
    trials: int = 40_000
    base_seed: int = 20260823
    modes: tuple[Mode, ...] = (Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY)
    initial_radius_m: float = 50.0
    sigma_m: float = 0.1  # fixed noise level for non-noise sweeps
    delay_step_ms: tuple[float, ...] = (10.0,)  # grid for the stationary baseline
    jobs: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if not all(math.isfinite(v) for v in self.sweep_values):
            raise ValueError("sweep values must be finite")
        if not self.modes:
            raise ValueError("modes must be non-empty")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0.0 <= self.initial_radius_m < math.inf:
            raise ValueError("initial_radius_m must be finite and non-negative")
        if not 0.0 < self.sigma_m < math.inf:
            raise ValueError("sigma_m must be finite and positive")
        if not self.delay_step_ms or not all(0.0 < v < math.inf for v in self.delay_step_ms):
            raise ValueError("delay_step_ms must be non-empty, finite and positive")
        if self.kind == ITERATION_PROFILE and any(v < 1 or v != int(v) for v in self.sweep_values):
            raise ValueError("iteration-profile sweep values must be positive integers")
        if self.kind == NOISE_SWEEP and any(v <= 0 for v in self.sweep_values):
            raise ValueError("noise sweep values must be positive")
        if self.kind in (SPEED_SWEEP, STATIONARY_BASELINE, VELOCITY_MISMATCH, SUCCESS_RATE) and any(
            v < 0 for v in self.sweep_values
        ):
            raise ValueError("sweep values must be non-negative")

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}  # json writes Mode members as their values

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        d = {f.name: f.default for f in fields(cls)} | doc  # absent keys keep the defaults
        return cls(
            kind=doc["kind"],
            sweep_values=tuple(float(v) for v in doc["sweep_values"]),
            trials=whole_number(d["trials"], "trials"),
            base_seed=whole_number(d["base_seed"], "base_seed"),
            modes=tuple(Mode(m) for m in d["modes"]),
            initial_radius_m=float(d["initial_radius_m"]),
            sigma_m=float(d["sigma_m"]),
            delay_step_ms=tuple(float(v) for v in d["delay_step_ms"]),
            jobs=whole_number(d["jobs"], "jobs"),
        )


@dataclass
class ModeOutcome:
    converged: bool
    iterations: int
    pos_err_m: float
    clk_err_m: float
    solve_time_s: float
    crlb_pos_sq: float  # sum of position variances from the CRLB, m^2
    crlb_clk_sq: float  # clock-offset CRLB variance, m^2
    pred_rmse_pos: float | None = None
    pred_rmse_clk: float | None = None
    failed: bool = False


@dataclass
class TrialRecord:
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)


def _run_block(config: ExperimentConfig, sweep_index: int, trial_indices) -> list[TrialRecord]:
    """Execute a block of seeded trials at one sweep point.

    Only the draw is per trial: each trial's generator fills its row of raw
    variates in the order benchmark_scenario, the start angle, generate (per
    response-delay step) and the deviation angle draw them. Everything else,
    solves included, is computed for the whole block; the records do not
    depend on the block's size.
    """
    sweep_value = config.sweep_values[sweep_index]
    # the iteration profile varies only the solver budget, so every sweep
    # point replays the same trials to make the per-budget RMSEs paired
    seed_sweep = 0 if config.kind == ITERATION_PROFILE else sweep_index

    sigma = sweep_value if config.kind == NOISE_SWEEP else config.sigma_m
    speed = sweep_value if config.kind in (SPEED_SWEEP, STATIONARY_BASELINE) else None
    radius = sweep_value if config.kind == SUCCESS_RATE else config.initial_radius_m
    # the iteration profile forces exactly max_iter iterations
    profile = config.kind == ITERATION_PROFILE
    threshold = 1e-300 if profile else sigma / 10.0
    max_iter = int(sweep_value) if profile else 10

    stationary, mismatch = config.kind == STATIONARY_BASELINE, config.kind == VELOCITY_MISMATCH
    # anchors, schedule and noise of each epoch a trial synthesizes: the
    # stationary baseline has one per response-delay step in its grid
    parts = (
        [benchmark_parts(sigma, step_ms * 1e-3) for step_ms in config.delay_step_ms]
        if stationary else [benchmark_parts(sigma)]
    )
    m, n = parts[0][0].positions.shape
    t = len(trial_indices)
    u = np.empty((t, 8 if mismatch else 7))
    z = np.empty((t, len(parts), 2 * m))
    for row, trial_index in enumerate(trial_indices):
        rng = np.random.default_rng(derive_seed(config.base_seed, seed_sweep, trial_index))
        rng.random(out=u[row, :7])
        rng.standard_normal(out=z[row])
        if mismatch:
            rng.random(out=u[row, 7:])

    position, velocity, offset, drift = benchmark_states(u[:, :6], speed)
    start = position + radius * direction(u[:, 6])
    offset_m, drift_mps = SPEED_OF_LIGHT * offset, SPEED_OF_LIGHT * drift
    # each epoch as the block's anchors, delays and weights (repeated per row) and measurements
    epochs = []
    for k, (anchors, schedule, noise) in enumerate(parts):
        stacked, weights = synthesize(
            anchors.positions, schedule.delays, position, velocity, offset_m[:, None],
            drift_mps[:, None], noise, z[:, k],
        )
        repeat = [x[None].repeat(t, 0) for x in (anchors.positions, schedule.delays, weights)]
        epochs.append((*repeat, stacked))

    # each label's mode, epoch, velocity for the solver (zeros if None) and
    # assumed velocity for the bias predictor (no prediction if None)
    if stationary:  # both estimators on the same truth at every response-delay step
        runs = {}
        for k, step_ms in enumerate(config.delay_step_ms):
            runs[f"stationary@dt{step_ms:g}ms"] = (Mode.STATIONARY, k, None, np.zeros((t, n)))
            runs[f"known-velocity@dt{step_ms:g}ms"] = (Mode.KNOWN_VELOCITY, k, velocity, None)
    elif mismatch:
        # the known-velocity estimator fed a velocity deviated from the truth
        # in a random direction by the swept norm
        assumed = velocity + sweep_value * direction(u[:, 7])
        runs = {Mode.KNOWN_VELOCITY.value: (Mode.KNOWN_VELOCITY, 0, assumed, assumed)}
    else:
        runs = {mode.value: (mode, 0, velocity if mode is Mode.KNOWN_VELOCITY else None, None)
                for mode in config.modes}

    records = [TrialRecord() for _ in trial_indices]
    for label, (mode, k, known, assumed) in runs.items():
        anchors_m, delays, weights, stacked = epochs[k]
        fitted = m if mode is Mode.ONE_WAY else 2 * m
        weights = weights[:, :fitted]
        # default_initial's iterate: the start, the first response as clock
        # offset, zero drift and velocity
        initial = np.zeros((t, mode.param_dim(n)))
        initial[:, :n] = start
        initial[:, n] = stacked[:, m]
        t0 = time.perf_counter()
        est = solve_batch(
            mode, anchors_m, delays, stacked[:, :fitted], weights, initial,
            np.zeros((t, n)) if known is None else known, threshold, max_iter,
        )
        elapsed = (time.perf_counter() - t0) / t  # every trial is charged the mean
        # synthesize weights by weight_vector(noise), as fim does: every sigma
        # of an ExperimentConfig is positive
        pos_crlb, clk_crlb = analysis.position_clock_crlb(
            mode, anchors_m, delays, position, velocity, weights
        )
        err = est.theta[:, :n] - position
        pos_err = np.sqrt(err[:, None, :] @ err[:, :, None])[:, 0, 0]  # np.linalg.norm's ddot
        clk_err = np.abs(est.theta[:, n] - offset_m)
        for row, (iterations, e_pos, e_clk, c_pos, c_clk) in enumerate(zip(
            est.iterations, pos_err.tolist(), clk_err.tolist(), pos_crlb.tolist(), clk_crlb.tolist()
        )):
            failed = est.failures[row] is not None
            outcome = ModeOutcome(
                # a profiled run spends its whole iteration budget by
                # construction; completing it counts as converged
                converged=iterations == max_iter if profile and not failed else est.converged[row],
                iterations=iterations,
                pos_err_m=e_pos,
                clk_err_m=e_clk,
                solve_time_s=elapsed,
                crlb_pos_sq=c_pos**2,
                crlb_clk_sq=c_clk**2,
                failed=failed,
            )
            if assumed is not None:
                anchors, schedule, noise = parts[k]
                ud = UdState(position[row], velocity[row], offset[row], drift[row])
                bias = analysis.velocity_mismatch_bias(anchors, ud, schedule, noise, assumed[row])
                outcome.pred_rmse_pos = bias.predicted_rmse_position
                outcome.pred_rmse_clk = bias.predicted_rmse_clock
            records[row].outcomes[label] = outcome
    return records


def run_trial(config: ExperimentConfig, sweep_index: int, trial_index: int) -> TrialRecord:
    """Execute one seeded trial at one sweep point: a block of one trial.

    Solver failures are recorded in the outcome, never raised.
    """
    return _run_block(config, sweep_index, [trial_index])[0]


@dataclass(frozen=True)
class SweepPointSummary:
    sweep_value: float
    mode: str  # outcome label
    n_trials: int
    n_converged: int
    pos_rmse_m: float
    clk_rmse_m: float
    pos_crlb_m: float
    clk_crlb_m: float
    pred_rmse_m: float | None
    success_rate: float
    mean_solve_us: float
    pos_rmse_unfiltered_m: float = float("nan")

    def to_row(self) -> dict:
        row = {column: getattr(self, column) for column in CSV_COLUMNS}
        return {**row, "pred_rmse_m": "" if self.pred_rmse_m is None else self.pred_rmse_m}


def _rmse(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2))) if values.size else float("nan")


def aggregate(
    records: list[TrialRecord],
    label: str,
    sweep_value: float,
    correctness_filter: bool = True,
) -> SweepPointSummary:
    """Fold trial outcomes for one label at one sweep point into RMSEs,
    CRLB references, success rate, and mean solver wall time.

    RMSEs are computed over converged trials; when ``correctness_filter`` is
    set, trials whose position error exceeds the 6*sqrt(CRLB) correctness
    threshold are excluded as well (they converged to a wrong solution).
    Success rates always use all trials in the denominator.
    """
    outcomes = [r.outcomes[label] for r in records if label in r.outcomes]
    if not outcomes:
        raise ValueError(f"no outcomes recorded for label {label!r}")

    pos_err = np.array([o.pos_err_m for o in outcomes])
    clk_err = np.array([o.clk_err_m for o in outcomes])
    crlb_pos_sq = np.array([o.crlb_pos_sq for o in outcomes])
    crlb_clk_sq = np.array([o.crlb_clk_sq for o in outcomes])
    converged = np.array([o.converged for o in outcomes])
    success = pos_err < 6.0 * np.sqrt(crlb_pos_sq)

    keep = converged & success if correctness_filter else converged
    preds = [o.pred_rmse_pos for o in outcomes if o.pred_rmse_pos is not None]
    return SweepPointSummary(
        sweep_value=sweep_value,
        mode=label,
        n_trials=len(outcomes),
        n_converged=int(np.sum(converged)),
        pos_rmse_m=_rmse(pos_err[keep]),
        clk_rmse_m=_rmse(clk_err[keep]),
        pos_crlb_m=float(np.sqrt(np.mean(crlb_pos_sq))),
        clk_crlb_m=float(np.sqrt(np.mean(crlb_clk_sq))),
        pred_rmse_m=_rmse(np.asarray(preds)) if preds else None,
        success_rate=float(np.mean(success)),
        mean_solve_us=float(np.mean([o.solve_time_s for o in outcomes]) * 1e6),
        pos_rmse_unfiltered_m=_rmse(pos_err[np.isfinite(pos_err)]),
    )


def _block_batch(args) -> list[list[list[TrialRecord]]]:
    config, points, start, stop, block = args
    return [
        [_run_block(config, i, range(first, min(first + block, stop))) for i in points]
        for first in range(start, stop, block)
    ]


def _run_points(config: ExperimentConfig, points) -> list[list[TrialRecord]]:
    """Trial records at each sweep point of ``points``, in trial-index order.

    Trials run in blocks of at most BLOCK, in-process or in pool chunks of
    whole blocks; each block runs its points back to back. The records do
    not depend on ``jobs`` or on the block size."""
    blocks = -(-config.trials // BLOCK)
    chunk = BLOCK * max(1, blocks // (config.jobs * 8))
    batches = [
        (config, points, start, min(start + chunk, config.trials), BLOCK)
        for start in range(0, config.trials, chunk)
    ]
    if config.jobs == 1:
        results = map(_block_batch, batches)
    else:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB; single-process runs skip it

        workers = min(config.jobs, len(batches), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_block_batch, batches))
    per_point: list[list[TrialRecord]] = [[] for _ in points]
    for batch in results:
        for block in batch:
            for records, block_records in zip(per_point, block):
                records.extend(block_records)
    return per_point


def run_sweep_point(config: ExperimentConfig, sweep_index: int) -> list[TrialRecord]:
    """All trial records for one sweep point, in trial-index order."""
    return _run_points(config, (sweep_index,))[0]


def run_experiment(config: ExperimentConfig) -> list[SweepPointSummary]:
    """Execute the full sweep and aggregate each point per outcome label."""
    # the stationary baseline and mismatch studies measure biased estimators,
    # so the 6*sqrt(CRLB) wrong-solution filter does not apply to them
    correctness_filter = config.kind not in (STATIONARY_BASELINE, VELOCITY_MISMATCH)
    points = range(len(config.sweep_values))
    # every budget replays the same trials: running the budgets of one trial
    # back to back pairs their solve timings too, so that drift in machine
    # speed cannot bend the per-iteration cost curve. Other kinds run one
    # point at a time, so that only one point's records are held at once.
    groups = [points] if config.kind == ITERATION_PROFILE else [(i,) for i in points]
    per_point = (records for group in groups for records in _run_points(config, group))
    summaries: list[SweepPointSummary] = []
    for sweep_value, records in zip(config.sweep_values, per_point):
        for label in sorted(records[0].outcomes.keys()):
            summaries.append(aggregate(records, label, sweep_value, correctness_filter))
    return summaries


def write_csv(summaries: list[SweepPointSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for summary in summaries:
            writer.writerow(summary.to_row())


def write_manifest(config: ExperimentConfig, summaries: list[SweepPointSummary], path) -> None:
    """JSON manifest with the full configuration, seed, and any sweep points
    where filtering non-converged/wrong trials moved the RMSE by > 0.1%."""
    divergent = [
        {
            "sweep_value": s.sweep_value,
            "mode": s.mode,
            "pos_rmse_m": s.pos_rmse_m,
            "pos_rmse_unfiltered_m": s.pos_rmse_unfiltered_m,
        }
        for s in summaries
        if np.isfinite(s.pos_rmse_unfiltered_m)
        and np.isfinite(s.pos_rmse_m)
        and s.pos_rmse_m > 0
        and abs(s.pos_rmse_unfiltered_m - s.pos_rmse_m) / s.pos_rmse_m > 1e-3
    ]
    doc = {"config": config.to_dict(), "filter_divergences": divergent}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
