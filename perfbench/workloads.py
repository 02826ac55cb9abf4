"""The benchmark's workloads, driven in-process through toaloc's public API.

Each workload builds its inputs from the seed and offers:

* ``batch()``      - one fixed unit of measured work (a whole experiment, one
                     CLI call, one pass over pre-generated epochs); the same
                     seed gives the same batch, so every batch of a run must
                     give the same digest;
* ``unit(k)``      - single unit ``k % POOL`` of a fixed pool of inputs (one
                     trial, one geometry, one epoch solve), called one after
                     another for latency; each input recurs, so that its
                     latency can be taken as the median of its calls;
* ``first_unit(seed)`` - class method: the first unit a fresh process
                     completes, through the same entry point as ``batch``, for
                     set-up time;
* ``digest(out)``  - a hash of a batch's results; it calls no traced
                     function, so it may run while tracing is on;
* ``outcome(out)`` - the checked statistics and digest of a batch.

Expensive checks (the CRLB of every epoch) run in ``outcome``, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from toaloc import analysis, cli, estimator, measurement, montecarlo, scenario
from toaloc.estimator import Mode, SolverConfig
from toaloc.scenario import AnchorSet, NoiseSpec, ResponseSchedule, UdState

# The seed whose digests are recorded in digests.json.
DEFAULT_SEED = 20260823

# Inputs the latency units cycle through; p99 over them has 10 beyond it.
POOL = 1000

# CSV columns the digest covers: every column of the experiment CSV except
# the wall-clock mean_solve_us. Listed here rather than read from
# montecarlo.CSV_COLUMNS, so that adding a column does not change the digest.
DIGEST_COLUMNS = (
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
)

# Criterion 1 wants |RMSE/CRLB - 1| <= 5% at 5000 trials per point. A batch
# has far fewer trials, so the check only catches an estimator that is
# broken, not one that is slightly off.
CRLB_GAP_SANITY = 0.5

# Criterion 6's per-cell floors on the initialization success rate.
SUCCESS_FLOORS = {
    ("known-velocity", 10.0): 0.999,
    ("known-velocity", 50.0): 0.999,
    ("known-velocity", 100.0): 0.999,
    ("known-velocity", 200.0): 0.998,
    ("estimated-velocity", 10.0): 0.999,
    ("estimated-velocity", 50.0): 0.999,
    ("estimated-velocity", 100.0): 0.998,
    ("estimated-velocity", 200.0): 0.980,
}
# A cell fails when its failure count would have a smaller probability than
# this if the true success rate sat exactly on the floor.
FLOOR_P_VALUE = 1e-6


@dataclass
class Outcome:
    digest: str
    success_rate: float  # share of units whose result is correct
    failed_share: float  # failed operations / operations attempted
    failed_units: int  # units whose output failed a check
    crlb_gap: float | None = None
    errors: list[str] = field(default_factory=list)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _binomial_tail(n: int, k: int, q: float) -> float:
    """P(X >= k) for X ~ Binomial(n, q)."""
    return sum(math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(k, n + 1))


class MonteCarlo:
    """``run_experiment`` on one of the paper's Monte-Carlo configurations."""

    def __init__(self, config: montecarlo.ExperimentConfig):
        self.config = config
        self.units_per_batch = config.trials * len(config.sweep_values)

    def batch(self):
        return montecarlo.run_experiment(self.config)

    def unit(self, k: int):
        points = len(self.config.sweep_values)
        return montecarlo.run_trial(self.config, k % points, (k // points) % (POOL // points))

    @classmethod
    def first_unit(cls, seed: int):
        config = cls(seed).config
        return montecarlo.run_experiment(
            replace(config, sweep_values=config.sweep_values[:1], trials=1)
        )

    def digest(self, summaries) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for s in summaries:
            row = s.to_row()
            writer.writerow([row[c] for c in DIGEST_COLUMNS])
        return _sha(buf.getvalue())

    def outcome(self, summaries) -> Outcome:
        trials = sum(s.n_trials for s in summaries)
        out = Outcome(
            digest=self.digest(summaries),
            success_rate=sum(s.success_rate * s.n_trials for s in summaries) / trials,
            failed_share=1.0 - sum(s.n_converged for s in summaries) / trials,
            failed_units=0,
        )
        self.check(summaries, out)
        if out.errors:
            out.failed_units = self.units_per_batch
        return out

    def check(self, summaries, out: Outcome) -> None:
        pass


class NoiseSweep(MonteCarlo):
    """Criterion 1's configuration: three modes over four noise levels."""

    TRIALS = 60

    def __init__(self, seed: int):
        super().__init__(
            montecarlo.ExperimentConfig(
                kind=montecarlo.NOISE_SWEEP,
                sweep_values=(0.01, 0.1, 1.0, 10.0),
                trials=self.TRIALS,
                base_seed=seed,
                modes=(Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY, Mode.ONE_WAY),
            )
        )

    def check(self, summaries, out: Outcome) -> None:
        gaps = [
            abs(rmse / crlb - 1.0)
            for s in summaries
            if s.mode in (Mode.KNOWN_VELOCITY.value, Mode.ESTIMATED_VELOCITY.value)
            for rmse, crlb in ((s.pos_rmse_m, s.pos_crlb_m), (s.clk_rmse_m, s.clk_crlb_m))
        ]
        out.crlb_gap = max(gaps)
        if len(gaps) != 16 or not out.crlb_gap <= CRLB_GAP_SANITY:
            out.errors.append(f"crlb_gap {out.crlb_gap!r} over {len(gaps)} cells")


class SuccessRate(MonteCarlo):
    """Criterion 6's configuration: sigma 5 m, four start radii, two modes."""

    TRIALS = 100

    def __init__(self, seed: int):
        super().__init__(
            montecarlo.ExperimentConfig(
                kind=montecarlo.SUCCESS_RATE,
                sweep_values=(10.0, 50.0, 100.0, 200.0),
                trials=self.TRIALS,
                base_seed=seed,
                sigma_m=5.0,
                modes=(Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY),
            )
        )

    def check(self, summaries, out: Outcome) -> None:
        cells = {(s.mode, s.sweep_value): s for s in summaries}
        for key, floor in SUCCESS_FLOORS.items():
            s = cells.get(key)
            if s is None:
                out.errors.append(f"missing success-rate cell {key}")
                continue
            misses = round((1.0 - s.success_rate) * s.n_trials)
            if _binomial_tail(s.n_trials, misses, 1.0 - floor) < FLOOR_P_VALUE:
                out.errors.append(f"{key}: success rate {s.success_rate} far below floor {floor}")


def random_geometry(rng: np.random.Generator):
    """Random 2D instance like the CLI's: 4 to 8 anchors, moving device."""
    m = int(rng.integers(4, 9))
    anchors = AnchorSet(rng.uniform(-400.0, 400.0, size=(m, 2)))
    ud = UdState(
        position=rng.uniform(-250.0, 250.0, size=2),
        velocity=rng.uniform(-50.0, 50.0, size=2),
        clock_offset=rng.uniform(-1.0, 1.0),
        clock_drift=rng.uniform(-10e-6, 10e-6),
    )
    return anchors, ud, ResponseSchedule(0.010 * np.arange(1, m + 1)), NoiseSpec.uniform(0.1, m)


# Fields of the verify-theorems report the digest covers.
REPORT_KEYS = ("instances", "violations", "two_way_equality_instances", "all_hold")


class VerifyTheorems:
    """``toaloc verify-theorems`` in-process; the unit is one geometry."""

    INSTANCES = 400

    def __init__(self, seed: int):
        self.seed = seed
        self.units_per_batch = self.INSTANCES
        rng = np.random.default_rng(seed)
        self.geometries = [random_geometry(rng) for _ in range(POOL)]

    @staticmethod
    def _main(seed: int, instances: int):
        argv = ["verify-theorems", "--instances", str(instances), "--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def batch(self):
        return self._main(self.seed, self.INSTANCES)

    def unit(self, k: int):
        geometry = self.geometries[k % POOL]
        kv = analysis.check_known_velocity_advantage(*geometry)
        tw = analysis.check_two_way_advantage(*geometry)
        return kv["holds"] and tw["holds"]

    @classmethod
    def first_unit(cls, seed: int):
        return cls._main(seed, 1)

    def digest(self, result) -> str:
        code, text = result
        doc = json.loads(text)
        report = {key: doc.get(key) for key in REPORT_KEYS}
        return _sha(json.dumps([code, report], sort_keys=True))

    def outcome(self, result) -> Outcome:
        code, text = result
        doc = json.loads(text)
        violations = len(doc.get("violations", [])) if code == 0 else self.INSTANCES
        out = Outcome(
            digest=self.digest(result),
            success_rate=1.0 - violations / self.INSTANCES,
            failed_share=violations / self.INSTANCES,
            failed_units=violations,
        )
        if code != 0 or doc.get("all_hold") is not True or doc.get("instances") != self.INSTANCES:
            out.errors.append(f"verify-theorems exit {code}, all_hold {doc.get('all_hold')}")
        return out


class EpochStream:
    """Closed loop with one caller: one estimated-velocity solve per epoch,
    from a start 50 m off the truth, on epochs pre-generated from the seed."""

    SIGMA_M = 0.1
    START_RADIUS_M = 50.0
    CONFIG = SolverConfig()

    def __init__(self, seed: int, epochs: int = POOL):
        rng = np.random.default_rng(seed)
        self.epochs = [self._epoch(rng) for _ in range(epochs)]
        self.units_per_batch = epochs

    def _epoch(self, rng):
        trial = scenario.benchmark_scenario(rng, sigma_m=self.SIGMA_M)
        data = measurement.generate(trial, rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        start = trial.ud.position + self.START_RADIUS_M * np.array([np.cos(angle), np.sin(angle)])
        return trial, data, estimator.default_initial(Mode.ESTIMATED_VELOCITY, start, data)

    def batch(self):
        return [self.unit(k) for k in range(self.units_per_batch)]

    def unit(self, k: int):
        trial, data, initial = self.epochs[k % self.units_per_batch]
        return estimator.solve(data, trial.anchors, self.CONFIG, initial)

    @classmethod
    def first_unit(cls, seed: int):
        return cls(seed, epochs=1).unit(0)

    def digest(self, reports) -> str:
        digest = hashlib.sha256()
        for report in reports:
            digest.update(report.estimate.to_array().tobytes())
            digest.update(f"{report.iterations_used},{report.converged};".encode())
        return digest.hexdigest()[:16]

    def outcome(self, reports) -> Outcome:
        failed = misses = 0
        for (trial, _, _), report in zip(self.epochs, reports):
            est = report.estimate
            failed += not report.converged or report.failure_reason is not None
            bound = analysis.fim(
                Mode.ESTIMATED_VELOCITY, trial.anchors, trial.ud, trial.schedule, trial.noise
            ).position_crlb_rss
            misses += not np.linalg.norm(est.position - trial.ud.position) < 6.0 * bound
        n = len(reports)
        out = Outcome(
            digest=self.digest(reports),
            success_rate=1.0 - misses / n,
            failed_share=failed / n,
            failed_units=max(failed, misses),
        )
        if out.failed_units:
            out.errors.append(f"{failed} epochs did not converge, {misses} outside 6*sqrt(CRLB)")
        return out


WORKLOADS = {
    "noise-sweep": NoiseSweep,
    "success-rate": SuccessRate,
    "verify-theorems": VerifyTheorems,
    "epoch-stream": EpochStream,
}
