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
import time
from dataclasses import dataclass, field, fields, replace

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
        if self.kind == ITERATION_PROFILE and any(
            v < 1 or v != int(v) for v in self.sweep_values
        ):
            raise ValueError("iteration-profile sweep values must be positive integers")
        if self.kind == NOISE_SWEEP and any(v <= 0 for v in self.sweep_values):
            raise ValueError("noise sweep values must be positive")
        if self.kind in (SPEED_SWEEP, STATIONARY_BASELINE, VELOCITY_MISMATCH, SUCCESS_RATE) and any(
            v < 0 for v in self.sweep_values
        ):
            raise ValueError("sweep values must be non-negative")

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "sweep_values": list(self.sweep_values),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "modes": [m.value for m in self.modes],
            "initial_radius_m": self.initial_radius_m,
            "sigma_m": self.sigma_m,
            "delay_step_ms": list(self.delay_step_ms),
            "jobs": self.jobs,
        }

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
    seed: int
    truth_position: np.ndarray
    truth_clock_offset_m: float
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)


def _solve_mode(
    scenario: Scenario, measurements, mode: Mode, initial_position: np.ndarray,
    threshold: float, known_velocity: np.ndarray | None, max_iterations: int = 10,
) -> ModeOutcome:
    """Solve one mode from the initial position and record its errors
    against the truth, the solver wall time and the mode's CRLB."""
    solver = SolverConfig(max_iterations, threshold, known_velocity)
    initial = default_initial(mode, initial_position, measurements)
    t0 = time.perf_counter()
    report = solve(measurements, scenario.anchors, solver, initial)
    elapsed = time.perf_counter() - t0
    fim_report = analysis.fim(
        mode, scenario.anchors, scenario.ud, scenario.schedule, scenario.noise
    )
    est = report.estimate
    return ModeOutcome(
        converged=report.converged,
        iterations=report.iterations_used,
        pos_err_m=float(np.linalg.norm(est.position - scenario.ud.position)),
        clk_err_m=float(abs(est.clock_offset_m - scenario.ud.clock_offset_m)),
        solve_time_s=elapsed,
        crlb_pos_sq=fim_report.position_crlb_rss**2,
        crlb_clk_sq=fim_report.clock_crlb**2,
        failed=report.failure_reason is not None,
    )


def run_trial(config: ExperimentConfig, sweep_index: int, trial_index: int) -> TrialRecord:
    """Execute one seeded trial at one sweep point.

    Draws the scenario, synthesizes measurements, runs every configured
    estimator from the prescribed random initial position, and records
    errors against the truth at request-transmission time. Solver failures
    are recorded in the outcome, never raised.
    """
    sweep_value = config.sweep_values[sweep_index]
    # the iteration profile varies only the solver budget, so every sweep
    # point replays the same trials to make the per-budget RMSEs paired
    seed_sweep = 0 if config.kind == ITERATION_PROFILE else sweep_index
    seed = derive_seed(config.base_seed, seed_sweep, trial_index)
    rng = np.random.default_rng(seed)

    sigma = sweep_value if config.kind == NOISE_SWEEP else config.sigma_m
    speed = sweep_value if config.kind in (SPEED_SWEEP, STATIONARY_BASELINE) else None
    radius = sweep_value if config.kind == SUCCESS_RATE else config.initial_radius_m

    scenario = benchmark_scenario(rng, sigma_m=sigma, speed_mps=speed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    initial_position = scenario.ud.position + radius * np.array(
        [np.cos(angle), np.sin(angle)]
    )

    record = TrialRecord(
        seed=seed,
        truth_position=scenario.ud.position,
        truth_clock_offset_m=scenario.ud.clock_offset_m,
    )

    if config.kind == STATIONARY_BASELINE:
        _run_stationary_baseline(config, scenario, rng, initial_position, record)
        return record
    if config.kind == VELOCITY_MISMATCH:
        _run_velocity_mismatch(config, scenario, rng, sweep_value, initial_position, record)
        return record

    measurements = generate(scenario, rng)
    # the iteration profile forces exactly max_iter iterations
    profile = config.kind == ITERATION_PROFILE
    threshold = 1e-300 if profile else sigma / 10.0
    max_iter = int(sweep_value) if profile else 10

    for mode in config.modes:
        known = scenario.ud.velocity if mode is Mode.KNOWN_VELOCITY else None
        outcome = _solve_mode(
            scenario, measurements, mode, initial_position, threshold, known, max_iter
        )
        # a profiled run spends its whole iteration budget by construction;
        # completing it counts as converged for aggregation purposes
        if profile and not outcome.failed:
            outcome.converged = outcome.iterations == max_iter
        record.outcomes[mode.value] = outcome
    return record


def _run_stationary_baseline(config, scenario, rng, initial_position, record):
    """Run the stationary baseline and the known-velocity estimator on the
    same truth for every response-delay step in the configured grid."""
    for step_ms in config.delay_step_ms:
        schedule = ResponseSchedule(step_ms * 1e-3 * np.arange(1, scenario.anchors.count + 1))
        trial_scenario = replace(scenario, schedule=schedule)
        measurements = generate(trial_scenario, rng)
        for mode in (Mode.STATIONARY, Mode.KNOWN_VELOCITY):
            known = scenario.ud.velocity if mode is Mode.KNOWN_VELOCITY else None
            outcome = _solve_mode(
                trial_scenario, measurements, mode, initial_position, config.sigma_m / 10.0, known
            )
            if mode is Mode.STATIONARY:
                s = trial_scenario
                bias = analysis.stationary_assumption_bias(s.anchors, s.ud, s.schedule, s.noise)
                outcome.pred_rmse_pos = bias.predicted_rmse_position
                outcome.pred_rmse_clk = bias.predicted_rmse_clock
            record.outcomes[f"{mode.value}@dt{step_ms:g}ms"] = outcome


def _run_velocity_mismatch(config, scenario, rng, deviation_norm, initial_position, record):
    """Run the known-velocity estimator with a velocity deviated from truth
    by a random direction of the swept norm, recording the analytic
    predictions alongside."""
    measurements = generate(scenario, rng)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    assumed = scenario.ud.velocity + deviation_norm * np.array(
        [np.cos(angle), np.sin(angle)]
    )
    outcome = _solve_mode(
        scenario, measurements, Mode.KNOWN_VELOCITY, initial_position, config.sigma_m / 10.0,
        assumed,
    )
    bias = analysis.velocity_mismatch_bias(
        scenario.anchors, scenario.ud, scenario.schedule, scenario.noise, assumed
    )
    outcome.pred_rmse_pos = bias.predicted_rmse_position
    outcome.pred_rmse_clk = bias.predicted_rmse_clock
    record.outcomes[Mode.KNOWN_VELOCITY.value] = outcome


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


def _trial_batch(args) -> list[TrialRecord]:
    config, sweep_index, start, stop = args
    return [run_trial(config, sweep_index, t) for t in range(start, stop)]


def run_sweep_point(config: ExperimentConfig, sweep_index: int) -> list[TrialRecord]:
    """All trial records for one sweep point, in trial-index order."""
    if config.jobs <= 1:
        return [run_trial(config, sweep_index, t) for t in range(config.trials)]
    from concurrent.futures import ProcessPoolExecutor  # 2 MB; single-process runs skip it

    chunk = max(1, config.trials // (config.jobs * 8))
    batches = [
        (config, sweep_index, start, min(start + chunk, config.trials))
        for start in range(0, config.trials, chunk)
    ]
    records: list[TrialRecord] = []
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        for batch in pool.map(_trial_batch, batches):
            records.extend(batch)
    return records


def run_experiment(config: ExperimentConfig) -> list[SweepPointSummary]:
    """Execute the full sweep and aggregate each point per outcome label."""
    # the stationary baseline and mismatch studies measure biased estimators,
    # so the 6*sqrt(CRLB) wrong-solution filter does not apply to them
    correctness_filter = config.kind not in (STATIONARY_BASELINE, VELOCITY_MISMATCH)
    points = range(len(config.sweep_values))
    if config.kind == ITERATION_PROFILE and config.jobs <= 1:
        # every budget replays the same trials: running the budgets of one
        # trial back to back pairs their solve timings too, so that drift in
        # machine speed cannot bend the per-iteration cost curve
        rows = [[run_trial(config, i, t) for i in points] for t in range(config.trials)]
        per_point = [list(column) for column in zip(*rows)]
    else:
        per_point = (run_sweep_point(config, i) for i in points)
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
