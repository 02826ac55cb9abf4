import concurrent.futures
import csv
import ctypes
import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from toaloc import analysis, linalg, montecarlo
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


# a seed's 64 bits as SeedSequence reads them: one uint32 word below 2**32,
# two from there on, at the extremes of both
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestBlockGenerators:
    def seeds(self) -> list[int]:
        random = np.random.default_rng(8).integers(0, 2**64, 3000, dtype=np.uint64).tolist()
        derived = [derive_seed(20260823, s, t) for s in range(3) for t in range(300)]
        return EDGE_SEEDS + derived + random

    def test_seed_states_match_seed_sequence(self):
        seeds = self.seeds()
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        assert np.array_equal(montecarlo._seed_states(seeds), expected)

    @pytest.mark.parametrize(
        "length", [1, montecarlo._HASHED_BLOCK - 1, montecarlo._HASHED_BLOCK, 128]
    )
    def test_streams_match_default_rng(self, length):
        # either side of the crossover, each generator gives the raw doubles
        # and normals the block draws, in its order, that default_rng gives
        seeds = self.seeds()[:length]
        u, z = np.empty((2, length, 7)), np.empty((2, length, 16))
        for row, rng in enumerate(montecarlo._generators(seeds)):
            rng.random(out=u[0, row])
            rng.standard_normal(out=z[0, row])
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.random(out=u[1, row])
            rng.standard_normal(out=z[1, row])
        assert u[0].tobytes() == u[1].tobytes() and z[0].tobytes() == z[1].tobytes()


def untimed(record) -> list[str]:
    """Each trial's row of a record's columns without the solver wall time,
    as comparable text: the repr of the per-label outcome dicts, with Python
    scalars, that a record of one trial's outcomes gave."""
    columns = {
        label: {name: None if column is None else column.tolist() for name, column in vars(o).items()}
        for label, o in record.outcomes.items()
    }
    trials = len(next(iter(columns.values()))["converged"])
    return [
        repr({label: {name: None if column is None or name == "solve_time_s" else column[i]
                      for name, column in outcome.items()}
              for label, outcome in columns.items()})
        for i in range(trials)
    ]


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
            assert outcome.pos_err_m.tolist() < [1e-3], label

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
            assert record.outcomes[label].pred_rmse_pos.shape == (1,)
        assert (
            record.outcomes["stationary@dt20ms"].pred_rmse_pos[0]
            > record.outcomes["stationary@dt5ms"].pred_rmse_pos[0]
        )

    def test_velocity_mismatch_attaches_prediction(self):
        config = ExperimentConfig(kind="velocity-mismatch", sweep_values=(8.0,), trials=1)
        record = run_trial(config, 0, 0)
        outcome = record.outcomes["known-velocity"]
        assert outcome.pred_rmse_pos.shape == (1,) and outcome.pred_rmse_pos[0] > 0

    def test_iteration_profile_forces_iteration_count(self):
        for budget in (2, 5):
            config = ExperimentConfig(
                kind="iteration-profile", sweep_values=(float(budget),), trials=1
            )
            record = run_trial(config, 0, 0)
            for outcome in record.outcomes.values():
                assert outcome.iterations.tolist() == [budget]


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
            # steps whose labels print alike: the later would overwrite the earlier
            {"delay_step_ms": [10, 10]},
            {"delay_step_ms": [10.0, 10.0000001]},
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


def make_records(pos_err, converged=None, label="m"):
    """A record of one label's columns: the given position errors, clock
    errors of 0.5 m, CRLB variances of 1 m^2, and every trial converged
    unless ``converged`` says otherwise."""
    t = len(pos_err)
    outcome = ModeOutcome(
        converged=np.array([True] * t if converged is None else converged),
        iterations=np.full(t, 4),
        pos_err_m=np.array(pos_err, dtype=float),
        clk_err_m=np.full(t, 0.5),
        solve_time_s=np.full(t, 1e-3),
        crlb_pos_sq=np.ones(t),
        crlb_clk_sq=np.ones(t),
        pred_rmse_pos=None,
        pred_rmse_clk=None,
        failed=np.zeros(t, dtype=bool),
    )
    return [TrialRecord(outcomes={label: outcome})]


class TestAggregate:
    def test_hand_rmse(self):
        records = make_records([3.0, 4.0])
        summary = aggregate(records, "m", 1.0)
        assert summary.pos_rmse_m == pytest.approx(np.sqrt(12.5))
        assert summary.n_trials == 2
        assert summary.n_converged == 2
        assert summary.success_rate == 1.0

    def test_correctness_filter_excludes_wrong_solutions(self):
        # threshold is 6*sqrt(1.0) = 6 m; the 100 m outlier converged but wrong
        records = make_records([1.0, 100.0])
        summary = aggregate(records, "m", 1.0, correctness_filter=True)
        assert summary.pos_rmse_m == pytest.approx(1.0)
        assert summary.success_rate == 0.5
        assert summary.n_converged == 2
        unfiltered = aggregate(records, "m", 1.0, correctness_filter=False)
        assert unfiltered.pos_rmse_m == pytest.approx(np.sqrt((1.0 + 100.0**2) / 2))

    def test_non_converged_excluded_from_rmse_but_counted(self):
        records = make_records([2.0, 2.0], converged=[True, False])
        summary = aggregate(records, "m", 1.0)
        assert summary.pos_rmse_m == pytest.approx(2.0)
        assert summary.n_converged == 1
        assert summary.n_trials == 2


    def test_blocks_aggregate_as_their_concatenation(self, monkeypatch):
        # a point's block records fold to the bits of one record holding
        # their columns end to end, bias predictions and wall times included
        monkeypatch.setattr(montecarlo, "BLOCK", 7)
        config = ExperimentConfig("velocity-mismatch", (8.0,), trials=30)
        (blocks,) = montecarlo._run_points(config, (0,))
        assert len(blocks) == 5
        joined = {}
        for f in fields(ModeOutcome):
            columns = [getattr(r.outcomes["known-velocity"], f.name) for r in blocks]
            joined[f.name] = np.concatenate(columns)
        whole = [TrialRecord(outcomes={"known-velocity": ModeOutcome(**joined)})]
        for correctness_filter in (True, False):
            a, b = (aggregate(records, "known-velocity", 8.0, correctness_filter)
                    for records in (blocks, whole))
            assert a.pred_rmse_m is not None
            assert repr(a) == repr(b)


class TestRunExperiment:
    def test_parallel_matches_serial(self):
        base = ExperimentConfig(kind="noise-sweep", sweep_values=(0.5,), trials=24)
        serial = run_sweep_point(base, 0)
        parallel = run_sweep_point(
            ExperimentConfig(kind="noise-sweep", sweep_values=(0.5,), trials=24, jobs=2), 0
        )
        assert len(serial) == len(parallel) == 1
        assert len(untimed(serial[0])) == 24
        assert untimed(serial[0]) == untimed(parallel[0])
        # distinct trials draw distinct scenarios
        assert len(set(serial[0].outcomes["known-velocity"].pos_err_m.tolist())) == 24

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

    def test_one_pool_serves_every_point(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        RecordingPool.seen = []
        config = ExperimentConfig("noise-sweep", (0.1, 1.0, 3.0), trials=20, jobs=2)
        pooled = run_experiment(config)
        assert len(RecordingPool.seen) == 1
        serial = run_experiment(replace(config, jobs=1))
        assert [repr({**s.to_row(), "mean_solve_us": None}) for s in pooled] == [
            repr({**s.to_row(), "mean_solve_us": None}) for s in serial
        ]

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


# block sizes either side of the seed hash's crossover, _HASHED_BLOCK seeds,
# and of the stacked substitution's, linalg.STACKED_ROWS rows: at two sweep
# points, blocks of 1 trial seed default_rng, and 7 and up hash; a label's
# stack of 15 trials takes the dtrtrs pairs, of 16 the stacked order until
# its first row converges, and of 128 the stacked order until few are left
BLOCK_SIZES = sorted({
    1, 7, montecarlo._HASHED_BLOCK - 1, montecarlo._HASHED_BLOCK,
    linalg.STACKED_ROWS // 2 - 1, linalg.STACKED_ROWS // 2, 128,
})


@pytest.mark.parametrize("block,jobs", [(block, jobs) for jobs in (1, 2) for block in BLOCK_SIZES])
@pytest.mark.parametrize("name", sorted(RECORD_GOLDENS))
def test_records_match_goldens_for_any_block_size(name, block, jobs, monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK", block)
    config, digest = RECORD_GOLDENS[name]
    per_point = montecarlo._run_points(replace(config, jobs=jobs), range(len(config.sweep_values)))
    sha = hashlib.sha256()
    for records in per_point:
        assert len(records) == -(-config.trials // block)  # one record per block
        rows = [row for record in records for row in untimed(record)]
        assert len(rows) == config.trials
        for row in rows:
            sha.update(row.encode())
    assert sha.hexdigest() == digest


# noise-sweep's golden records at blocks of 1 and 128 trials, as digests,
# and whether the stacked substitution is on
KERNEL_CHECK = """
import hashlib, json
from test_montecarlo import RECORD_GOLDENS, linalg, montecarlo, untimed
config = RECORD_GOLDENS["noise-sweep"][0]
digests = []
for montecarlo.BLOCK in (1, 128):
    sha = hashlib.sha256()
    for records in montecarlo._run_points(config, range(len(config.sweep_values))):
        for row in (row for record in records for row in untimed(record)):
            sha.update(row.encode())
    digests.append(sha.hexdigest())
print(json.dumps({"digests": digests, "stacked": linalg._STACKED_EXACT}))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_block_sizes_agree_under_each_blas_kernel(coretype):
    # the import check keeps the stacked substitution bit-exact: on x86-64 it
    # is on but under the Prescott kernels, whose ddot keeps SSE2 partial sums
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), src])
    done = subprocess.run(
        [sys.executable, "-c", KERNEL_CHECK], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout)
    one, many = result["digests"]
    assert one == many
    assert result["stacked"] == (coretype != "Prescott")


def test_run_trial_is_a_block_of_one():
    # a block at both sweep points gives each point the rows of its trials
    # run one at a time
    config = RECORD_GOLDENS["noise-sweep"][0]
    block = montecarlo._run_block(config, (0, 1), range(10, 20))
    assert len(block) == 2
    for sweep_index, record in enumerate(block):
        trials = [run_trial(config, sweep_index, t) for t in range(10, 20)]
        for one in trials:
            for outcome in one.outcomes.values():
                assert all(len(c) == 1 for c in vars(outcome).values() if c is not None)
        assert untimed(record) == [row for one in trials for row in untimed(one)]


def collector_at_solve(monkeypatch, fail=False) -> list[bool]:
    """gc.isenabled() at every solve_batch call of the block runner; with
    ``fail`` the stand-in raises in place of solving."""
    states, real = [], montecarlo.solve_batch

    def solve_batch(*args):
        states.append(gc.isenabled())
        if fail:
            raise RuntimeError("solver stand-in failed")
        return real(*args)

    monkeypatch.setattr(montecarlo, "solve_batch", solve_batch)
    return states


@pytest.fixture
def restore_collector():
    yield
    gc.enable()


@pytest.mark.usefixtures("restore_collector")
class TestCollectorPause:
    # the timed solve runs with the cyclic collector paused, and the
    # caller's collector state comes back whatever the solve does

    def test_paused_during_every_timed_solve(self, monkeypatch):
        # one timed solve per label per block, over every sweep point's rows,
        # but one per label per point for the iteration profile
        states = collector_at_solve(monkeypatch)
        assert gc.isenabled()
        config = RECORD_GOLDENS["noise-sweep"][0]
        run_trial(config, 0, 3)
        assert states == [False] * len(config.modes)
        assert gc.isenabled()
        run_experiment(replace(config, sweep_values=(0.1, 1.0, 3.0), trials=5))
        assert states == [False] * 2 * len(config.modes)
        profile = ExperimentConfig("iteration-profile", (1.0, 2.0, 3.0), trials=5)
        run_experiment(profile)
        assert states == [False] * (2 * len(config.modes) + 3 * len(profile.modes))
        assert gc.isenabled()

    def test_caller_that_disabled_the_collector_keeps_it_off(self, monkeypatch):
        states = collector_at_solve(monkeypatch)
        gc.disable()
        run_trial(RECORD_GOLDENS["noise-sweep"][0], 0, 3)
        assert states and not any(states)
        assert not gc.isenabled()

    def test_failing_solve_restores_the_collector(self, monkeypatch):
        states = collector_at_solve(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="stand-in"):
            run_trial(RECORD_GOLDENS["noise-sweep"][0], 0, 3)
        assert states == [False]
        assert gc.isenabled()


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
    # the block's solver, CRLB and bias-prediction inputs, captured at the
    # calls the block runner makes, against benchmark_scenario, the start
    # angle and generate drawn trial by trial from the same streams
    config, _ = RECORD_GOLDENS[name]
    solves, crlbs, biases = [], [], []
    real = (montecarlo.solve_batch, analysis.position_clock_crlb, analysis.mismatch_bias_rows)

    def solve_batch(mode, anchors, delays, observed, weights, initial, velocity, threshold,
                    max_iter):
        solves.append((mode, anchors, delays, observed, weights, initial, velocity, max_iter))
        return real[0](mode, anchors, delays, observed, weights, initial, velocity, threshold,
                       max_iter)

    def position_clock_crlb(mode, anchors, delays, truth, truth_velocity, weights):
        crlbs.append((mode, truth, truth_velocity))
        return real[1](mode, anchors, delays, truth, truth_velocity, weights)

    def mismatch_bias_rows(anchors, delays, truth, truth_velocity, assumed, weights):
        out = real[2](anchors, delays, truth, truth_velocity, assumed, weights)
        biases.append((len(crlbs) - 1, anchors, delays, truth, truth_velocity, assumed, weights,
                       out))
        return out

    monkeypatch.setattr(montecarlo, "solve_batch", solve_batch)
    monkeypatch.setattr(analysis, "position_clock_crlb", position_clock_crlb)
    monkeypatch.setattr(analysis, "mismatch_bias_rows", mismatch_bias_rows)
    points, trials = (1, 0), range(5, 18)
    montecarlo._run_block(config, points, trials)
    references = {(i, t): one_trial_reference(config, i, t) for i in points for t in trials}
    n_labels = len(references[points[0], trials[0]][1])
    # per label one CRLB and at most one prediction over every point's rows,
    # and one solve; the iteration profile draws its trials once, at its
    # first point, and times one solve per budget over them
    profile = config.kind == "iteration-profile"
    keys = [(i, t) for i in (points[:1] if profile else points) for t in trials]
    budgets = [int(config.sweep_values[i]) for i in points] if profile else [10]
    assert len(crlbs) == n_labels
    assert len(solves) == n_labels * len(budgets)
    predicted = {call[0]: call[1:] for call in biases}
    assert len(predicted) == len(biases)  # one prediction per label at most
    for k, (crlb_mode, truth, truth_v) in enumerate(crlbs):
        label_solves = solves[k * len(budgets) : (k + 1) * len(budgets)]
        assert [call[-1] for call in label_solves] == budgets
        assert (k in predicted) == (references[keys[0]][1][k][-1] is not None)
        for row, key in enumerate(keys):
            sc, labels = references[key]
            ref_mode, ref_delays, ref_observed, ref_weights, ref_initial, ref_velocity, assumed = (
                labels[k]
            )
            assert crlb_mode is ref_mode
            assert same_bits(truth[row], sc.ud.position)
            assert same_bits(truth_v[row], sc.ud.velocity)
            for mode, anchors, delays, observed, weights, initial, velocity, _ in label_solves:
                assert len(initial) == len(keys)
                assert mode is ref_mode
                assert same_bits(anchors[row], sc.anchors.positions)
                assert same_bits(delays[row], ref_delays)
                assert same_bits(observed[row], ref_observed)
                assert same_bits(weights[row], ref_weights)
                assert same_bits(initial[row], ref_initial)
                assert same_bits(velocity[row], ref_velocity)
            if assumed is None:
                continue
            anchors, delays, bias_truth, bias_v, bias_assumed, weights, out = predicted[k]
            assert same_bits(anchors[row], sc.anchors.positions)
            assert same_bits(delays[row], ref_delays)
            assert same_bits(bias_truth[row], sc.ud.position)
            assert same_bits(bias_v[row], sc.ud.velocity)
            assert same_bits(bias_assumed[row], assumed)
            assert same_bits(weights[row], ref_weights)  # all 2M rows: the label fits them all
            report = analysis.velocity_mismatch_bias(
                sc.anchors, sc.ud, ResponseSchedule(ref_delays), sc.noise, assumed
            )
            assert same_bits(out[0][row], report.bias)
            assert same_bits([x[row] for x in out[1:]], [
                report.predicted_rmse_total, report.predicted_rmse_position,
                report.predicted_rmse_clock,
            ])


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, the worker
    initializer and each map's chunk size, and maps in-process."""

    seen: list = []
    chunks: list = []
    initializers: list = []

    def __init__(self, max_workers, initializer=None):
        RecordingPool.seen.append(max_workers)
        RecordingPool.initializers.append(initializer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        RecordingPool.chunks.append(chunksize)
        return map(fn, *iterables)


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
    (record,) = run_sweep_point(config, 0)
    assert RecordingPool.seen == [expected]
    assert untimed(record) == [row for t in range(trials) for row in untimed(run_trial(config, 0, t))]


@pytest.mark.parametrize(
    "jobs,trials,chunksize", [(2, 40, 2), (2, 100, 6), (2, 10, 1), (1000, 40, 1)]
)
def test_pool_chunks_hold_whole_blocks(monkeypatch, jobs, trials, chunksize):
    # three iteration-profile budgets: a pool item is a whole block at every
    # point, and a chunk holds about 1/8 of a worker's blocks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "BLOCK", 1)
    RecordingPool.seen, RecordingPool.chunks, RecordingPool.initializers = [], [], []
    config = ExperimentConfig("iteration-profile", (1.0, 2.0, 3.0), trials=trials, jobs=jobs)
    per_point = montecarlo._run_points(config, range(3))
    assert RecordingPool.chunks == [chunksize]
    assert RecordingPool.initializers == [montecarlo._one_blas_thread]
    serial = montecarlo._run_points(replace(config, jobs=1), range(3))
    assert [[untimed(r) for r in records] for records in per_point] == [
        [untimed(r) for r in records] for records in serial
    ]


# reads both OpenBLAS copies' thread counts before and after the pool
# initializer, in a process that asked for two threads
BLAS_THREADS = """
import ctypes, json
import numpy.linalg._umath_linalg as numpy_blas, scipy.linalg._flapack as scipy_blas
from toaloc import montecarlo
getters = [getattr(ctypes.CDLL(m.__file__), name, None) for m, name in (
    (numpy_blas, "scipy_openblas_get_num_threads64_"),
    (scipy_blas, "scipy_openblas_get_num_threads"),
)]
counts = lambda: [None if g is None else g() for g in getters]
before = counts()
montecarlo._one_blas_thread()
print(json.dumps([before, counts()]))
"""


def test_pool_initializer_pins_one_blas_thread():
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True,
                          text=True, check=True)
    before, after = json.loads(done.stdout)
    if None in before:
        pytest.skip("an OpenBLAS copy does not export its thread count")
    assert after == [1, 1]


def test_pool_initializer_skips_a_copy_without_the_setter(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
    montecarlo._one_blas_thread()  # nothing to set, nothing raised
