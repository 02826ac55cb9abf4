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
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import analysis
from .estimator import Mode, SolverConfig, default_initial, solve
from .measurement import generate
from .scenario import ResponseSchedule, Scenario, benchmark_scenario

_MASK64 = (1 << 64) - 1

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
            trials=int(d["trials"]),
            base_seed=int(d["base_seed"]),
            modes=tuple(Mode(m) for m in d["modes"]),
            initial_radius_m=float(d["initial_radius_m"]),
            sigma_m=float(d["sigma_m"]),
            delay_step_ms=tuple(float(v) for v in d["delay_step_ms"]),
            jobs=int(d["jobs"]),
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


def _runs(config: ExperimentConfig, scenario: Scenario, rng: np.random.Generator, sweep_value):
    """Every solve of one trial of the configured kind, as (label, scenario,
    measurements, mode, velocity for the solver, assumed velocity for the
    bias predictor or None). Measurements and the deviated velocity are drawn
    from rng as the solves are reached, in a fixed order."""
    ud = scenario.ud
    if config.kind == STATIONARY_BASELINE:
        # the stationary baseline and the known-velocity estimator on the
        # same truth for every response-delay step in the configured grid
        zeros = np.zeros(scenario.anchors.n_dim)
        for step_ms in config.delay_step_ms:
            schedule = ResponseSchedule(step_ms * 1e-3 * np.arange(1, scenario.anchors.count + 1))
            stepped = replace(scenario, schedule=schedule)
            measurements = generate(stepped, rng)
            yield f"stationary@dt{step_ms:g}ms", stepped, measurements, Mode.STATIONARY, None, zeros
            yield (f"known-velocity@dt{step_ms:g}ms", stepped, measurements, Mode.KNOWN_VELOCITY,
                   ud.velocity, None)
        return
    measurements = generate(scenario, rng)
    if config.kind == VELOCITY_MISMATCH:
        # the known-velocity estimator fed a velocity deviated from the truth
        # in a random direction by the swept norm
        angle = rng.uniform(0.0, 2.0 * np.pi)
        assumed = ud.velocity + sweep_value * np.array([np.cos(angle), np.sin(angle)])
        yield (Mode.KNOWN_VELOCITY.value, scenario, measurements, Mode.KNOWN_VELOCITY,
               assumed, assumed)
        return
    for mode in config.modes:
        known = ud.velocity if mode is Mode.KNOWN_VELOCITY else None
        yield mode.value, scenario, measurements, mode, known, None


def run_trial(config: ExperimentConfig, sweep_index: int, trial_index: int) -> TrialRecord:
    """Execute one seeded trial at one sweep point.

    Draws the scenario, synthesizes measurements, runs every estimator of the
    experiment kind from the prescribed random initial position, and records
    errors against the truth at request-transmission time, the solver wall
    time, the mode's CRLB and, where the kind has one, the predicted RMSE.
    Solver failures are recorded in the outcome, never raised.
    """
    sweep_value = config.sweep_values[sweep_index]
    # the iteration profile varies only the solver budget, so every sweep
    # point replays the same trials to make the per-budget RMSEs paired
    seed_sweep = 0 if config.kind == ITERATION_PROFILE else sweep_index
    rng = np.random.default_rng(derive_seed(config.base_seed, seed_sweep, trial_index))

    sigma = sweep_value if config.kind == NOISE_SWEEP else config.sigma_m
    speed = sweep_value if config.kind in (SPEED_SWEEP, STATIONARY_BASELINE) else None
    radius = sweep_value if config.kind == SUCCESS_RATE else config.initial_radius_m

    scenario = benchmark_scenario(rng, sigma_m=sigma, speed_mps=speed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    initial_position = scenario.ud.position + radius * np.array([np.cos(angle), np.sin(angle)])
    # the iteration profile forces exactly max_iter iterations
    profile = config.kind == ITERATION_PROFILE
    threshold = 1e-300 if profile else sigma / 10.0
    max_iter = int(sweep_value) if profile else 10

    record = TrialRecord()
    for label, s, meas, mode, velocity, assumed in _runs(config, scenario, rng, sweep_value):
        solver = SolverConfig(max_iter, threshold, velocity)
        initial = default_initial(mode, initial_position, meas)
        t0 = time.perf_counter()
        report = solve(meas, s.anchors, solver, initial)
        elapsed = time.perf_counter() - t0
        fim_report = analysis.fim(mode, s.anchors, s.ud, s.schedule, s.noise)
        failed = report.failure_reason is not None
        outcome = ModeOutcome(
            # a profiled run spends its whole iteration budget by construction;
            # completing it counts as converged for aggregation purposes
            converged=report.iterations_used == max_iter if profile and not failed
            else report.converged,
            iterations=report.iterations_used,
            pos_err_m=float(np.linalg.norm(report.estimate.position - s.ud.position)),
            clk_err_m=float(abs(report.estimate.clock_offset_m - s.ud.clock_offset_m)),
            solve_time_s=elapsed,
            crlb_pos_sq=fim_report.position_crlb_rss**2,
            crlb_clk_sq=fim_report.clock_crlb**2,
            failed=failed,
        )
        if assumed is not None:
            bias = analysis.velocity_mismatch_bias(s.anchors, s.ud, s.schedule, s.noise, assumed)
            outcome.pred_rmse_pos = bias.predicted_rmse_position
            outcome.pred_rmse_clk = bias.predicted_rmse_clock
        record.outcomes[label] = outcome
    return record


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


def _trial_batch(args) -> list[list[TrialRecord]]:
    config, points, start, stop = args
    return [[run_trial(config, i, t) for i in points] for t in range(start, stop)]


def _run_points(config: ExperimentConfig, points) -> list[list[TrialRecord]]:
    """Trial records at each sweep point of ``points``, in trial-index order.

    Each trial runs its points back to back, in-process or in pool workers
    over chunks of trials; the records do not depend on ``jobs``."""
    chunk = max(1, config.trials // (config.jobs * 8))
    batches = [
        (config, points, start, min(start + chunk, config.trials))
        for start in range(0, config.trials, chunk)
    ]
    if config.jobs == 1:
        results = map(_trial_batch, batches)
    else:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB; single-process runs skip it

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_trial_batch, batches))
    rows = [row for batch in results for row in batch]
    return [list(column) for column in zip(*rows)]


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
