import csv
import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from toaloc.estimator import Mode
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
