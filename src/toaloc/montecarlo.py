"""Seeded Monte-Carlo experiment harness.

Reproduces the benchmark studies at configurable scale: RMSE vs noise level,
RMSE vs device speed, the stationary-baseline comparison, the deviated
velocity study, initialization success rates, and iteration/runtime
profiling. Per-trial seeds are derived from (base seed, sweep index, trial
index) with a splitmix64-style mix, so results are byte-identical regardless
of how trials are scheduled across workers.

A block is one range of trial indices taken at every sweep point: each of
its outcome labels is one batched solve, one batched CRLB and, given an
assumed velocity, one batched bias prediction over all those points' rows.
The iteration profile draws its trials once and times one solve per budget.

Each trial draws from the stream ``np.random.default_rng(seed)`` would give.
A block of at least ``_HASHED_BLOCK`` seeds (trials times drawn points)
does not build a generator per trial: it hashes all its seeds at once as
``SeedSequence`` does (NEP 19), in numpy over uint32 words, and reseeds one
shared ``PCG64`` per trial as its ``srandom`` does (O'Neill 2014). Shorter
blocks, one-trial units among them, seed ``default_rng`` per trial: below
that length the hash's fixed cost is more than it saves.
"""

from __future__ import annotations

import csv
import gc
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
from .scenario import SPEED_OF_LIGHT, benchmark_parts, benchmark_scenario  # noqa: F401
from .scenario import BENCHMARK_ANCHORS_M, benchmark_states, direction

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# Trials per block, taken at every sweep point. Larger blocks gain little
# speed, and time the budgets of the iteration profile further apart.
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


def _hash_constants(init: int, multiplier: int, count: int) -> np.ndarray:
    """The (xor, multiply) constants of ``count`` successive hashmix calls of
    SeedSequence from hash constant ``init``: shape (2, count, 1), uint32."""
    pairs, h = [], init
    for _ in range(count):
        pairs.append((h, h * multiplier & _MASK32))
        h = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value with (xor, multiply) ``constants``."""
    value = (value ^ constants[0]) * constants[1]
    return value ^ value >> np.uint32(16)


# SeedSequence's hash constants for a 4-word pool, precomputed: 4 calls to
# fill the pool, then 4 mixing rounds of 3 destinations; 8 output words
_MIX = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# pool words 2 and 3 of a seed below 2**64 hash the zero padding
_PAD = _hashmix(np.zeros((2, 1), np.uint32), _MIX[:, 2:4])
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# Blocks of at least this many seeds (trials times drawn points) hash them
# together; shorter ones seed default_rng per trial. Measured crossover: 6
# to 8 seeds.
_HASHED_BLOCK = 8
# the one bit generator that hashed blocks reseed per trial, and its
# Generator: blocks of one process must not draw from it concurrently
_PCG = np.random.PCG64(0)
_SHARED = np.random.Generator(_PCG)


def _seed_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every 64-bit seed
    ``s`` of ``seeds``, one row each, computed for all seeds at once."""
    words = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T  # words x seeds
    pool = np.empty((4, words.shape[1]), np.uint32)
    pool[:2] = _hashmix(words, _MIX[:, :2])
    pool[2:] = _PAD
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], _MIX[:, 4 + 3 * src : 7 + 3 * src])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")  # word pairs, low first


def _generators(seeds):
    """One generator per seed, in order, each at the start of the stream of
    ``np.random.default_rng(seed)``. A hashed block yields the same shared
    Generator each time: draw from it before taking the next."""
    if len(seeds) < _HASHED_BLOCK:
        yield from map(np.random.default_rng, seeds)
        return
    for s0, s1, s2, s3 in _seed_states(seeds).tolist():
        # PCG64's srandom: state and increment from the two 128-bit halves
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _MASK128
        _PCG.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield _SHARED


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
        if len({f"{v:g}" for v in self.delay_step_ms}) < len(self.delay_step_ms):
            raise ValueError("delay_step_ms values must differ in 6 significant digits")
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
    """One outcome label's results as columns, one entry per trial."""

    converged: np.ndarray
    iterations: np.ndarray
    pos_err_m: np.ndarray
    clk_err_m: np.ndarray
    solve_time_s: np.ndarray
    crlb_pos_sq: np.ndarray  # sum of position variances from the CRLB, m^2
    crlb_clk_sq: np.ndarray  # clock-offset CRLB variance, m^2
    pred_rmse_pos: np.ndarray | None  # None for a label without bias predictions
    pred_rmse_clk: np.ndarray | None
    failed: np.ndarray


@dataclass
class TrialRecord:
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)


def _join(arrays):
    """Arrays of consecutive rows joined (None stays None)."""
    return None if arrays[0] is None else np.concatenate(arrays)


def _concat(records: list[TrialRecord], label: str) -> ModeOutcome:
    """One label's columns of consecutive records, joined in record order."""
    columns = [[getattr(r.outcomes[label], f.name) for r in records] for f in fields(ModeOutcome)]
    return ModeOutcome(*map(_join, columns))


def _run_block(config: ExperimentConfig, points, trial_indices) -> list[TrialRecord]:
    """Execute a block of seeded trials at every sweep point of ``points``:
    one record per point, its columns in the order of ``trial_indices``.

    Only the draw is per trial: each (point, trial) generator fills its row
    of raw variates in the order benchmark_scenario, the start angle,
    generate (per response-delay step) and the deviation angle draw them.
    Each label's solve, CRLB and bias prediction then take every drawn
    point's rows at once, and the iteration profile's one draw is solved
    once per budget. A one-point block joins no arrays. The columns depend
    neither on the block's size nor on the points that share it.
    """
    # the iteration profile varies only the solver budget: it draws its trials
    # once and solves them at every budget, so that the per-budget RMSEs are paired
    profile = config.kind == ITERATION_PROFILE
    stationary, mismatch = config.kind == STATIONARY_BASELINE, config.kind == VELOCITY_MISMATCH
    t = len(trial_indices)
    draws = points[:1] if profile else points
    seeds = [derive_seed(config.base_seed, 0 if profile else i, trial)
             for i in draws for trial in trial_indices]
    u = np.empty((len(seeds), 8 if mismatch else 7))
    z = np.empty((len(seeds), len(config.delay_step_ms) if stationary else 1,
                  2 * len(BENCHMARK_ANCHORS_M)))
    for row, rng in enumerate(_generators(seeds)):
        rng.random(out=u[row, :7])
        rng.standard_normal(out=z[row])
        if mismatch:
            rng.random(out=u[row, 7:])

    # per drawn point: truths, start, threshold and the mismatch study's assumed velocity,
    # then each epoch's anchors, delays and weights (repeated per row) and measurements
    columns = []
    for p, sweep_index in enumerate(draws):
        sweep_value = config.sweep_values[sweep_index]
        sigma = sweep_value if config.kind == NOISE_SWEEP else config.sigma_m
        speed = sweep_value if config.kind in (SPEED_SWEEP, STATIONARY_BASELINE) else None
        radius = sweep_value if config.kind == SUCCESS_RATE else config.initial_radius_m
        # anchors, schedule and noise of each epoch a trial synthesizes: the
        # stationary baseline has one per response-delay step in its grid
        parts = (
            [benchmark_parts(sigma, step_ms * 1e-3) for step_ms in config.delay_step_ms]
            if stationary else [benchmark_parts(sigma)]
        )
        u_p, z_p = (u, z) if len(draws) == 1 else (u[p * t : (p + 1) * t], z[p * t : (p + 1) * t])
        position, velocity, offset, drift = benchmark_states(u_p[:, :6], speed)
        offset_m, drift_mps = SPEED_OF_LIGHT * offset, SPEED_OF_LIGHT * drift
        columns.append([
            position, velocity, offset_m, position + radius * direction(u_p[:, 6]),
            # the iteration profile forces exactly max_iter iterations
            np.array([1e-300 if profile else sigma / 10.0] * t),
            # the known-velocity estimator fed a velocity deviated from the
            # truth in a random direction by the swept norm
            velocity + sweep_value * direction(u_p[:, 7]) if mismatch else None,
        ])
        for k, (anchors, schedule, noise) in enumerate(parts):
            stacked, weights = synthesize(
                anchors.positions, schedule.delays, position, velocity, offset_m[:, None],
                drift_mps[:, None], noise, z_p[:, k],
            )
            repeat = [x[None].repeat(t, 0) for x in (anchors.positions, schedule.delays, weights)]
            columns[-1] += [*repeat, stacked]
    position, velocity, offset_m, start, threshold, deviated, *epochs = (
        columns[0] if len(draws) == 1 else map(_join, zip(*columns))
    )
    rows, (m, n) = len(position), parts[0][0].positions.shape

    # each label's mode, epoch, velocity for the solver (zeros if None) and
    # assumed velocity for the bias predictor (no prediction if None)
    if stationary:  # both estimators on the same truth at every response-delay step
        runs = {}
        for k, step_ms in enumerate(config.delay_step_ms):
            runs[f"stationary@dt{step_ms:g}ms"] = (Mode.STATIONARY, k, None, np.zeros((rows, n)))
            runs[f"known-velocity@dt{step_ms:g}ms"] = (Mode.KNOWN_VELOCITY, k, velocity, None)
    elif mismatch:
        runs = {Mode.KNOWN_VELOCITY.value: (Mode.KNOWN_VELOCITY, 0, deviated, deviated)}
    else:
        runs = {mode.value: (mode, 0, velocity if mode is Mode.KNOWN_VELOCITY else None, None)
                for mode in config.modes}

    # one timed solve per label, or per label and budget for the iteration profile
    budgets = [int(config.sweep_values[i]) for i in points] if profile else [10]
    records = [TrialRecord() for _ in points]
    for label, (mode, k, known, assumed) in runs.items():
        anchors_m, delays, weights, stacked = epochs[4 * k : 4 * k + 4]
        fitted = m if mode is Mode.ONE_WAY else 2 * m
        observed, weights = stacked[:, :fitted], weights[:, :fitted]
        # default_initial's iterate: the start, the first response as clock
        # offset, zero drift and velocity
        initial = np.zeros((rows, mode.param_dim(n)))
        initial[:, :n] = start
        initial[:, n] = stacked[:, m]
        known = np.zeros((rows, n)) if known is None else known
        # synthesize weights by weight_vector(noise), as fim does: every sigma
        # of an ExperimentConfig is positive. A label with an assumed velocity
        # fits all 2M rows, so its fitted weights are the predictor's too
        pos_crlb, clk_crlb = analysis.position_clock_crlb(
            mode, anchors_m, delays, position, velocity, weights
        )
        predicted = (None,) * 4 if assumed is None else analysis.mismatch_bias_rows(
            anchors_m, delays, position, velocity, assumed, weights)
        # squares of Python floats: numpy's array square rounds some differently
        crlb_pos_sq = np.array([c**2 for c in pos_crlb.tolist()])
        crlb_clk_sq = np.array([c**2 for c in clk_crlb.tolist()])
        for b, max_iter in enumerate(budgets):
            # the cyclic collector is paused for the timed solve only, as timeit
            # does, so that a pass over the run's live records is charged to no
            # trial; it runs at the next allocation after the solve. A caller
            # that turned the collector off keeps it off
            collecting = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                est = solve_batch(mode, anchors_m, delays, observed, weights, initial, known,
                                  threshold, max_iter)
                elapsed = (time.perf_counter() - t0) / rows  # every trial is charged the mean
            finally:
                if collecting:
                    gc.enable()
            err = est.theta[:, :n] - position
            iterations = np.array(est.iterations)
            failed = np.array([exc is not None for exc in est.failures])
            outcome = ModeOutcome(
                # a profiled run spends its whole iteration budget by
                # construction; completing it counts as converged
                converged=(np.where(failed, est.converged, iterations == max_iter) if profile
                           else np.array(est.converged)),
                iterations=iterations,
                pos_err_m=np.sqrt(err[:, None] @ err[..., None])[:, 0, 0],  # np.linalg.norm's ddot
                clk_err_m=np.abs(est.theta[:, n] - offset_m),
                solve_time_s=np.full(rows, elapsed),
                crlb_pos_sq=crlb_pos_sq,
                crlb_clk_sq=crlb_clk_sq,
                pred_rmse_pos=predicted[2],
                pred_rmse_clk=predicted[3],
                failed=failed,
            )
            for q in range(len(draws)):  # each point's rows of the joined columns
                records[b + q].outcomes[label] = outcome if len(draws) == 1 else ModeOutcome(
                    *(c if c is None else c[q * t : (q + 1) * t] for c in vars(outcome).values())
                )
    return records


def run_trial(config: ExperimentConfig, sweep_index: int, trial_index: int) -> TrialRecord:
    """Execute one seeded trial at one sweep point: the record of a block of
    one trial at one point, every column of length one.

    Solver failures are recorded in the outcome, never raised.
    """
    return _run_block(config, (sweep_index,), (trial_index,))[0]


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
    """Fold one label's outcome columns at one sweep point, read from each
    record of ``records`` in turn, into RMSEs, CRLB references, success
    rate, and mean solver wall time.

    The solver wall time is each block's timed solve, run with the cyclic
    garbage collector paused, divided among its trials: collection passes
    are charged to no trial.

    RMSEs are computed over converged trials; when ``correctness_filter`` is
    set, trials whose position error exceeds the 6*sqrt(CRLB) correctness
    threshold are excluded as well (they converged to a wrong solution).
    Success rates always use all trials in the denominator.
    """
    if not records:
        raise ValueError(f"no outcomes recorded for label {label!r}")
    o = _concat(records, label)
    success = o.pos_err_m < 6.0 * np.sqrt(o.crlb_pos_sq)

    keep = o.converged & success if correctness_filter else o.converged
    return SweepPointSummary(
        sweep_value=sweep_value,
        mode=label,
        n_trials=len(o.converged),
        n_converged=int(np.sum(o.converged)),
        pos_rmse_m=_rmse(o.pos_err_m[keep]),
        clk_rmse_m=_rmse(o.clk_err_m[keep]),
        pos_crlb_m=float(np.sqrt(np.mean(o.crlb_pos_sq))),
        clk_crlb_m=float(np.sqrt(np.mean(o.crlb_clk_sq))),
        pred_rmse_m=None if o.pred_rmse_pos is None else _rmse(o.pred_rmse_pos),
        success_rate=float(np.mean(success)),
        mean_solve_us=float(np.mean(o.solve_time_s) * 1e6),
        pos_rmse_unfiltered_m=_rmse(o.pos_err_m[np.isfinite(o.pos_err_m)]),
    )


def _one_blas_thread() -> None:
    """Pool initializer: one thread for numpy's and scipy's OpenBLAS copies,
    which forked workers would oversubscribe the CPUs with; these tiny
    systems gain nothing from more. A copy without the setter is left alone."""
    import ctypes
    import numpy.linalg._umath_linalg as numpy_blas  # each is linked to its package's copy
    import scipy.linalg._flapack as scipy_blas

    for module, setter in ((numpy_blas, "scipy_openblas_set_num_threads64_"),
                           (scipy_blas, "scipy_openblas_set_num_threads")):
        set_threads = getattr(ctypes.CDLL(module.__file__), setter, None)
        if set_threads is not None:
            set_threads(1)


def _run_points(config: ExperimentConfig, points) -> list[list[TrialRecord]]:
    """One record per block of trials at each sweep point of ``points``, in order.

    Trials run in blocks of at most BLOCK, each block one _run_block call
    that takes its trials at every point of ``points``, in-process or in
    pool chunks of whole blocks, about 8 per worker: one pool serves every
    point. The columns do not depend on ``jobs`` or on the block size."""
    blocks = [range(first, min(first + BLOCK, config.trials))
              for first in range(0, config.trials, BLOCK)]
    items = ([config] * len(blocks), [points] * len(blocks), blocks)
    if config.jobs == 1:
        results = list(map(_run_block, *items))
    else:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB; single-process runs skip it

        per_chunk = max(1, len(blocks) // (config.jobs * 8))
        workers = min(config.jobs, -(-len(blocks) // per_chunk), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            results = list(pool.map(_run_block, *items, chunksize=per_chunk))
    return [list(records) for records in zip(*results)]


def run_sweep_point(config: ExperimentConfig, sweep_index: int) -> list[TrialRecord]:
    """One sweep point's trials as a list of one record, in trial-index order."""
    records = _run_points(config, (sweep_index,))[0]
    return [TrialRecord({label: _concat(records, label) for label in records[0].outcomes})]


def run_experiment(config: ExperimentConfig) -> list[SweepPointSummary]:
    """Execute the full sweep and aggregate each point per outcome label."""
    # the stationary baseline and mismatch studies measure biased estimators,
    # so the 6*sqrt(CRLB) wrong-solution filter does not apply to them
    correctness_filter = config.kind not in (STATIONARY_BASELINE, VELOCITY_MISMATCH)
    # every block runs its points back to back: the iteration profile solves
    # one draw at every budget in turn, so that pairs their solve timings too,
    # and drift in machine speed cannot bend the per-iteration cost curve
    per_point = _run_points(config, range(len(config.sweep_values)))
    summaries: list[SweepPointSummary] = []
    for sweep_value, records in zip(config.sweep_values, per_point):
        for label in sorted(records[0].outcomes):
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
