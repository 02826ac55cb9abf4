import concurrent.futures
import csv
import hashlib
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from toaloc import analysis, montecarlo
from toaloc.estimator import Mode, default_initial
from toaloc.measurement import generate
from toaloc.montecarlo import (
    CSV_COLUMNS,
    ExperimentConfig,
    ModeOutcome,
    TrialRecord,
    aggregate,
    derive_seed,
    run_experiment,
    run_sweep_point,
    run_trial,
    write_csv,
    write_manifest,
)
from toaloc.scenario import ResponseSchedule, Scenario, benchmark_scenario


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {
            derive_seed(b, s, t)
            for b in range(3)
            for s in range(10)
            for t in range(100)
        }
        assert len(seeds) == 3 * 10 * 100

    def test_64_bit_range(self):
        for t in range(100):
            s = derive_seed(20260823, 0, t)
            assert 0 <= s < 2**64


def untimed(record):
    """A record's outcomes without the solver wall time, as comparable text."""
    return repr({k: {**asdict(o), "solve_time_s": None} for k, o in record.outcomes.items()})


class TestRunTrial:
    def test_deterministic_across_calls(self):
        config = ExperimentConfig(kind="noise-sweep", sweep_values=(0.1, 1.0), trials=4)
        a = run_trial(config, 1, 7)
        b = run_trial(config, 1, 7)
        assert set(a.outcomes) == {"known-velocity", "estimated-velocity"}
        assert untimed(a) == untimed(b)

    def test_vanishing_noise_recovers_truth(self):
        config = ExperimentConfig(kind="noise-sweep", sweep_values=(1e-9,), trials=1)
        record = run_trial(config, 0, 0)
        # the sigma/10 step threshold is below the float64 residual floor at
        # this noise level, so only the recovered error is meaningful
        for label, outcome in record.outcomes.items():
            assert outcome.pos_err_m < 1e-3, label

    def test_noise_sweep_labels(self):
        config = ExperimentConfig(kind="noise-sweep", sweep_values=(0.1,), trials=1)
        record = run_trial(config, 0, 0)
        assert set(record.outcomes) == {"known-velocity", "estimated-velocity"}

    def test_stationary_baseline_labels_and_predictions(self):
        config = ExperimentConfig(
            kind="stationary-baseline",
            sweep_values=(50.0,),
            trials=1,
            delay_step_ms=(5.0, 20.0),
        )
        record = run_trial(config, 0, 0)
        assert set(record.outcomes) == {
            "stationary@dt5ms",
            "known-velocity@dt5ms",
            "stationary@dt20ms",
            "known-velocity@dt20ms",
        }
        for label in ("stationary@dt5ms", "stationary@dt20ms"):
            assert record.outcomes[label].pred_rmse_pos is not None
        assert (
            record.outcomes["stationary@dt20ms"].pred_rmse_pos
            > record.outcomes["stationary@dt5ms"].pred_rmse_pos
        )

    def test_velocity_mismatch_attaches_prediction(self):
        config = ExperimentConfig(kind="velocity-mismatch", sweep_values=(8.0,), trials=1)
        record = run_trial(config, 0, 0)
        outcome = record.outcomes["known-velocity"]
        assert outcome.pred_rmse_pos is not None and outcome.pred_rmse_pos > 0

    def test_iteration_profile_forces_iteration_count(self):
        for budget in (2, 5):
            config = ExperimentConfig(
                kind="iteration-profile", sweep_values=(float(budget),), trials=1
            )
            record = run_trial(config, 0, 0)
            for outcome in record.outcomes.values():
                assert outcome.iterations == budget


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bogus", sweep_values=(1.0,))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="noise-sweep", sweep_values=(0.0,))

    @pytest.mark.parametrize(
        "change",
        [
            {"sweep_values": [float("nan")]},
            {"sweep_values": [float("inf")]},
            {"modes": []},
            {"jobs": 0},
            {"jobs": -3},
            {"initial_radius_m": float("nan")},
            {"initial_radius_m": -1.0},
            {"sigma_m": 0.0},
            {"sigma_m": -1.0},
            {"sigma_m": float("nan")},
            {"delay_step_ms": []},
            {"delay_step_ms": [-5.0]},
            {"delay_step_ms": [0.0]},
            {"delay_step_ms": [float("inf")]},
            {"trials": 2.7},
            {"jobs": 1.9},
            {"base_seed": 3.5},
            {"trials": True},
            {"jobs": "3"},
            {"base_seed": float("nan")},
        ],
        ids=lambda change: ",".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_unusable_values_rejected(self, change):
        doc = {"kind": "stationary-baseline", "sweep_values": [10.0], **change}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)

    def test_non_finite_iteration_budget_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExperimentConfig(kind="iteration-profile", sweep_values=(value,))

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            kind="speed-sweep",
            sweep_values=(0.0, 25.0, 50.0),
            trials=12,
            base_seed=99,
            modes=(Mode.ESTIMATED_VELOCITY,),
            sigma_m=0.5,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_whole_number_floats_are_counts(self):
        doc = {"kind": "noise-sweep", "sweep_values": [1.0], "trials": 3.0, "jobs": 2.0}
        config = ExperimentConfig.from_dict(doc)
        assert (config.trials, config.jobs) == (3, 2)
        assert type(config.trials) is int and type(config.jobs) is int

    def test_absent_keys_take_the_dataclass_defaults(self):
        for kind in ("noise-sweep", "success-rate"):
            doc = {"kind": kind, "sweep_values": [1.0, 5.0]}
            assert ExperimentConfig.from_dict(doc) == ExperimentConfig(kind, (1.0, 5.0))


def make_outcome(pos_err, clk_err=0.5, converged=True, crlb=1.0):
    return ModeOutcome(
        converged=converged,
        iterations=4,
        pos_err_m=pos_err,
        clk_err_m=clk_err,
        solve_time_s=1e-3,
        crlb_pos_sq=crlb,
        crlb_clk_sq=crlb,
    )


def make_records(outcomes, label="m"):
    return [TrialRecord(outcomes={label: o}) for o in outcomes]


class TestAggregate:
    def test_hand_rmse(self):
        records = make_records([make_outcome(3.0), make_outcome(4.0)])
        summary = aggregate(records, "m", 1.0)
        assert summary.pos_rmse_m == pytest.approx(np.sqrt(12.5))
        assert summary.n_trials == 2
        assert summary.n_converged == 2
        assert summary.success_rate == 1.0

    def test_correctness_filter_excludes_wrong_solutions(self):
        # threshold is 6*sqrt(1.0) = 6 m; the 100 m outlier converged but wrong
        records = make_records([make_outcome(1.0), make_outcome(100.0)])
        summary = aggregate(records, "m", 1.0, correctness_filter=True)
        assert summary.pos_rmse_m == pytest.approx(1.0)
        assert summary.success_rate == 0.5
        assert summary.n_converged == 2
        unfiltered = aggregate(records, "m", 1.0, correctness_filter=False)
        assert unfiltered.pos_rmse_m == pytest.approx(np.sqrt((1.0 + 100.0**2) / 2))

    def test_non_converged_excluded_from_rmse_but_counted(self):
        records = make_records([make_outcome(2.0), make_outcome(2.0, converged=False)])
        summary = aggregate(records, "m", 1.0)
        assert summary.pos_rmse_m == pytest.approx(2.0)
        assert summary.n_converged == 1
        assert summary.n_trials == 2


class TestRunExperiment:
    def test_parallel_matches_serial(self):
        base = ExperimentConfig(kind="noise-sweep", sweep_values=(0.5,), trials=24)
        serial = run_sweep_point(base, 0)
        parallel = run_sweep_point(
            ExperimentConfig(kind="noise-sweep", sweep_values=(0.5,), trials=24, jobs=2), 0
        )
        assert len(serial) == len(parallel) == 24
        assert [untimed(r) for r in serial] == [untimed(r) for r in parallel]
        # distinct trials draw distinct scenarios
        assert len({r.outcomes["known-velocity"].pos_err_m for r in serial}) == 24

    def test_interleaved_iteration_profile_matches_per_point_runs(self):
        # run_experiment runs the budgets of each trial back to back, in
        # process with jobs=1 and in workers with jobs=2; running one budget
        # at a time must agree with both in everything but timing
        config = ExperimentConfig(
            kind="iteration-profile", sweep_values=(1.0, 2.0, 4.0), trials=6
        )
        per_point = [
            aggregate(run_sweep_point(config, i), label, value)
            for i, value in enumerate(config.sweep_values)
            for label in ("estimated-velocity", "known-velocity")
        ]
        interleaved = [run_experiment(c) for c in (config, replace(config, jobs=2))]
        rows = [
            [repr({**s.to_row(), "mean_solve_us": None}) for s in summaries]
            for summaries in (per_point, *interleaved)
        ]
        assert rows[0] == rows[1] == rows[2]  # repr, so that NaN RMSEs compare equal

    def test_summary_rows_per_sweep_point(self):
        config = ExperimentConfig(kind="noise-sweep", sweep_values=(0.1, 1.0), trials=5)
        summaries = run_experiment(config)
        assert len(summaries) == 4  # 2 sweep points x 2 modes
        assert [s.sweep_value for s in summaries] == [0.1, 0.1, 1.0, 1.0]

    def test_csv_and_manifest(self, tmp_path):
        config = ExperimentConfig(kind="noise-sweep", sweep_values=(0.2,), trials=5)
        summaries = run_experiment(config)
        csv_path = tmp_path / "out.csv"
        manifest_path = tmp_path / "out.manifest.json"
        write_csv(summaries, csv_path)
        write_manifest(config, summaries, manifest_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 2
        assert float(rows[0]["success_rate"]) == 1.0
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["kind"] == "noise-sweep"
        assert manifest["config"]["base_seed"] == 20260823
        assert "filter_divergences" in manifest


# SHA-256 of the repr of every summary row but mean_solve_us, from
# run_experiment with 3 trials at 2 sweep values and the default config
# otherwise. Recorded before the experiment kinds shared one trial loop.
GOLDEN_ROWS = {
    "noise-sweep": (
        (0.1, 1.0), "b9c8c78adabce53472d40540a466c26f10701ab34d08d1ed98c3c30eb6006ffc"
    ),
    "speed-sweep": (
        (0.0, 50.0), "1e150f8f0dec48125bd313e3be878f2da365dc79b4f0a2d2320d2a5a3de86fd3"
    ),
    "stationary-baseline": (
        (0.0, 50.0), "dc71544f48e90ff0f8f15f1b7bbc8a8b33b5ebe0b991e936101247163234d5ff"
    ),
    "velocity-mismatch": (
        (2.0, 8.0), "54ab7235c9ec35b9ff4260062509bca24121dfeea98560f778a2a80b4fcb6728"
    ),
    "success-rate": (
        (10.0, 200.0), "1f7c59b1dec227ae70a0d2c381fef27dc56835c13cbf930a3683325d7b8ac1c2"
    ),
    "iteration-profile": (
        (1.0, 3.0), "bde752a1c0926f7ac76473d8b648cc47c6726b0700c8f553b915b7fde9bc00f0"
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_ROWS))
def test_golden_rows(kind):
    values, digest = GOLDEN_ROWS[kind]
    summaries = run_experiment(ExperimentConfig(kind, values, trials=3))
    rows = [repr({**s.to_row(), "mean_solve_us": None}) for s in summaries]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_manifest_config_golden():
    config = ExperimentConfig(
        "stationary-baseline", (0.0, 25.0), trials=12, base_seed=99,
        modes=(Mode.ESTIMATED_VELOCITY, Mode.ONE_WAY), initial_radius_m=20.0,
        sigma_m=0.5, delay_step_ms=(5.0, 20.0), jobs=2,
    )
    assert json.dumps(config.to_dict()) == (
        '{"schema": 1, "kind": "stationary-baseline", "sweep_values": [0.0, 25.0], '
        '"trials": 12, "base_seed": 99, "modes": ["estimated-velocity", "one-way"], '
        '"initial_radius_m": 20.0, "sigma_m": 0.5, "delay_step_ms": [5.0, 20.0], "jobs": 2}'
    )


ALL_MODES = tuple(Mode)

# SHA-256 over untimed() of every record at both sweep values, 150 trials
# each, recorded when every trial was solved on its own; the block runner
# must reproduce them for any block size and any jobs setting.
RECORD_GOLDENS = {
    "noise-sweep": (
        ExperimentConfig("noise-sweep", (0.1, 3.0), trials=150, modes=ALL_MODES),
        "962a234335d084275bed7151adaa42980fcead0ea575cdbc0628711bd36b9fe9",
    ),
    "speed-sweep": (
        ExperimentConfig("speed-sweep", (0.0, 50.0), trials=150),
        "f98e6caebc25feb6569f0d79a31b89e267f09e674fa3da537878b9f8cc2623b1",
    ),
    "stationary-baseline": (
        ExperimentConfig("stationary-baseline", (0.0, 50.0), trials=150, delay_step_ms=(5.0, 20.0)),
        "27a5089d6bfc6b87bd6e130279ffeeec5b600516dea009a941dd8ea6e573f3ea",
    ),
    "velocity-mismatch": (
        ExperimentConfig("velocity-mismatch", (2.0, 8.0), trials=150),
        "2b46fa7e0708bee2301b15fb9440bad9b4e90dd31fe1f9ba53ef511e60bdc757",
    ),
    "success-rate": (
        ExperimentConfig("success-rate", (10.0, 200.0), trials=150, sigma_m=5.0),
        "095c10a68fbaef814575f5355d0ef4f78366803199a970f103a8eb67e8c5308c",
    ),
    # starts 1 and 5 km out: most rows end in singular normal equations
    "success-rate-far": (
        ExperimentConfig(
            "success-rate", (1000.0, 5000.0), trials=150, sigma_m=5.0, modes=ALL_MODES
        ),
        "886a02c2cf1abddda4703724931ae11447248baf39dbe2a94c388055e727c0a0",
    ),
    "iteration-profile": (
        ExperimentConfig("iteration-profile", (1.0, 3.0), trials=150),
        "0aea7cd6263b3c20b3404f907ecb6e8d9ff1971513590b3c11bb75ec5df1ebee",
    ),
}


@pytest.mark.parametrize("block,jobs", [(1, 1), (7, 1), (128, 1), (1, 2), (7, 2), (128, 2)])
@pytest.mark.parametrize("name", sorted(RECORD_GOLDENS))
def test_records_match_goldens_for_any_block_size(name, block, jobs, monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK", block)
    config, digest = RECORD_GOLDENS[name]
    per_point = montecarlo._run_points(replace(config, jobs=jobs), range(len(config.sweep_values)))
    sha = hashlib.sha256()
    for records in per_point:
        assert len(records) == config.trials
        for record in records:
            sha.update(untimed(record).encode())
    assert sha.hexdigest() == digest


def test_run_trial_is_a_block_of_one():
    config = RECORD_GOLDENS["noise-sweep"][0]
    block = montecarlo._run_block(config, 1, range(10, 20))
    assert [untimed(r) for r in block] == [untimed(run_trial(config, 1, t)) for t in range(10, 20)]


def one_trial_reference(config, sweep_index, trial_index):
    """One trial drawn through the public one-trial API in the draw order
    of the block runner: per label (mode, delays, observed, weights,
    initial, solver velocity, assumed velocity or None), and the truth."""
    value = config.sweep_values[sweep_index]
    kind = config.kind
    sigma = value if kind == "noise-sweep" else config.sigma_m
    speed = value if kind in ("speed-sweep", "stationary-baseline") else None
    radius = value if kind == "success-rate" else config.initial_radius_m
    seed_sweep = 0 if kind == "iteration-profile" else sweep_index
    rng = np.random.default_rng(derive_seed(config.base_seed, seed_sweep, trial_index))
    sc = benchmark_scenario(rng, sigma_m=sigma, speed_mps=speed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    start = sc.ud.position + radius * np.array([np.cos(angle), np.sin(angle)])

    def label(mode, meas, velocity, assumed=None):
        fitted = 4 if mode is Mode.ONE_WAY else 8
        initial = default_initial(mode, start, meas).to_array()
        velocity = np.zeros(2) if velocity is None else velocity
        return (mode, meas.schedule.delays, meas.stacked[:fitted], meas.weights[:fitted],
                initial, velocity, assumed)

    if kind == "stationary-baseline":
        labels = []
        for step_ms in config.delay_step_ms:
            schedule = ResponseSchedule(step_ms * 1e-3 * np.arange(1, 5))
            meas = generate(Scenario(sc.anchors, sc.ud, schedule, sc.noise), rng)
            labels.append(label(Mode.STATIONARY, meas, None, np.zeros(2)))
            labels.append(label(Mode.KNOWN_VELOCITY, meas, sc.ud.velocity))
        return sc, labels
    meas = generate(sc, rng)
    if kind == "velocity-mismatch":
        angle = rng.uniform(0.0, 2.0 * np.pi)
        assumed = sc.ud.velocity + value * np.array([np.cos(angle), np.sin(angle)])
        return sc, [label(Mode.KNOWN_VELOCITY, meas, assumed, assumed)]
    known = {Mode.KNOWN_VELOCITY: sc.ud.velocity}
    return sc, [label(mode, meas, known.get(mode)) for mode in config.modes]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(RECORD_GOLDENS))
def test_block_draw_matches_the_one_trial_api(name, monkeypatch):
    # the block's solver inputs, truths and bias inputs, captured at the
    # calls the block runner makes, against benchmark_scenario, the start
    # angle and generate drawn trial by trial from the same streams
    config, _ = RECORD_GOLDENS[name]
    solves, crlbs, biases = [], [], []
    real = (montecarlo.solve_batch, analysis.position_clock_crlb, analysis.velocity_mismatch_bias)

    def solve_batch(mode, anchors, delays, observed, weights, initial, velocity, *rest):
        solves.append((mode, anchors, delays, observed, weights, initial, velocity))
        return real[0](mode, anchors, delays, observed, weights, initial, velocity, *rest)

    def position_clock_crlb(mode, anchors, delays, truth, truth_velocity, weights):
        crlbs.append((truth, truth_velocity))
        return real[1](mode, anchors, delays, truth, truth_velocity, weights)

    def velocity_mismatch_bias(anchors, ud, schedule, noise, assumed):
        biases.append((ud.position, ud.velocity, schedule.delays, assumed))
        return real[2](anchors, ud, schedule, noise, assumed)

    monkeypatch.setattr(montecarlo, "solve_batch", solve_batch)
    monkeypatch.setattr(analysis, "position_clock_crlb", position_clock_crlb)
    monkeypatch.setattr(analysis, "velocity_mismatch_bias", velocity_mismatch_bias)
    trials = range(5, 18)
    montecarlo._run_block(config, 1, trials)
    references = [one_trial_reference(config, 1, t) for t in trials]
    assert len(solves) == len(crlbs) == len(references[0][1])
    pending_biases = iter(biases)
    for k, ((mode, anchors, delays, observed, weights, initial, velocity), (truth, truth_v)) in (
        enumerate(zip(solves, crlbs))
    ):
        for row, (sc, labels) in enumerate(references):
            ref_mode, ref_delays, ref_observed, ref_weights, ref_initial, ref_velocity, assumed = (
                labels[k]
            )
            assert mode is ref_mode
            assert same_bits(anchors[row], sc.anchors.positions)
            assert same_bits(delays[row], ref_delays)
            assert same_bits(observed[row], ref_observed)
            assert same_bits(weights[row], ref_weights)
            assert same_bits(initial[row], ref_initial)
            assert same_bits(velocity[row], ref_velocity)
            assert same_bits(truth[row], sc.ud.position)
            assert same_bits(truth_v[row], sc.ud.velocity)
            if assumed is not None:
                bias_position, bias_velocity, bias_delays, bias_assumed = next(pending_biases)
                assert same_bits(bias_position, sc.ud.position)
                assert same_bits(bias_velocity, sc.ud.velocity)
                assert same_bits(bias_delays, ref_delays)
                assert same_bits(bias_assumed, assumed)
    assert next(pending_biases, None) is None


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

    seen: list = []

    def __init__(self, max_workers):
        RecordingPool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs,trials,cpus,expected",
    [(5000, 6, 3, 3), (5000, 2, 16, 2), (4, 40, 16, 4), (5000, 6, None, 1)],
)
def test_pool_workers_bounded_by_chunks_and_cpus(monkeypatch, jobs, trials, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK", 1)
    RecordingPool.seen = []
    config = ExperimentConfig("noise-sweep", (0.1,), trials=trials, jobs=jobs)
    records = run_sweep_point(config, 0)
    assert RecordingPool.seen == [expected]
    expected = [untimed(run_trial(config, 0, t)) for t in range(trials)]
    assert [untimed(r) for r in records] == expected
