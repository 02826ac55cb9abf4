import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from toaloc import cli
from toaloc.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main
from toaloc.estimator import Mode
from toaloc.scenario import benchmark_scenario

FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "noisefree.json")


def write_scenario_config(tmp_path, name="scenario.json", mode="estimated-velocity", seed=3):
    sc = benchmark_scenario(np.random.default_rng(17), sigma_m=0.1)
    doc = {
        "mode": mode,
        "scenario": json.loads(sc.to_json()),
        "seed": seed,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path), sc


def record_solve(seen: list, config: bool = False):
    """A stand-in for cli.solve that records the initial iterate, or with
    ``config`` the solver config, of each call and then solves."""
    real = cli.solve

    def solve(measurements, anchors, solver, initial):
        seen.append(solver if config else initial)
        return real(measurements, anchors, solver, initial)

    return solve


class TestSolve:
    def test_fixture_recovers_truth(self, tmp_path, capsys):
        assert main(["solve", FIXTURE]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["position_error_m"] < 1e-6

    def test_scenario_config_deterministic(self, tmp_path, capsys):
        config, _ = write_scenario_config(tmp_path)
        assert main(["solve", config]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["solve", config]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_seed_changes_result(self, tmp_path, capsys):
        config, _ = write_scenario_config(tmp_path)
        main(["solve", config, "--seed", "1"])
        a = json.loads(capsys.readouterr().out)
        main(["solve", config, "--seed", "2"])
        b = json.loads(capsys.readouterr().out)
        assert a["theta"] != b["theta"]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        config, _ = write_scenario_config(tmp_path)
        main(["solve", config, "--seed", "1"])
        baseline = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("TOA_SEED", "2")
        main(["solve", config, "--seed", "1"])
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["theta"] != baseline["theta"]
        monkeypatch.setenv("TOA_SEED", "1")
        main(["solve", config, "--seed", "99"])
        restored = json.loads(capsys.readouterr().out)
        assert restored["theta"] == baseline["theta"]

    def test_output_file(self, tmp_path):
        config, _ = write_scenario_config(tmp_path)
        out_path = tmp_path / "report.json"
        assert main(["solve", config, "--output", str(out_path)]) == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert set(doc) >= {"mode", "theta", "iterations", "converged", "trace"}

    def test_insufficient_measurements_is_config_error(self, tmp_path, capsys):
        # two anchors give 4 measurements; estimated-velocity needs 6 unknowns
        doc = {
            "mode": "estimated-velocity",
            "scenario": {
                "anchors": [[0.0, 0.0], [100.0, 0.0]],
                "ud": {
                    "position_m": [30.0, 40.0],
                    "velocity_mps": [5.0, 0.0],
                    "clock_offset_s": 1e-7,
                    "clock_drift": 1e-6,
                },
                "schedule_ms": [10.0, 20.0],
                "noise_m": {"request": [0.1, 0.1], "response": 0.1},
            },
        }
        path = tmp_path / "under.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_missing_mode(self, tmp_path, capsys):
        path = tmp_path / "nomode.json"
        path.write_text(json.dumps({"scenario": {}}))
        assert main(["solve", str(path)]) == EXIT_CONFIG

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        config, _ = write_scenario_config(tmp_path)
        doc = json.loads(Path(config).read_text())
        doc["solver"] = {"max_iterations": 1, "convergence_threshold_m": 1e-300}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_NOT_CONVERGED
        assert json.loads(capsys.readouterr().out)["converged"] is False

    @pytest.mark.parametrize("mode", [mode.value for mode in Mode])
    @pytest.mark.parametrize("start", [[1e308, 1e308], [1e200, 0.0]])
    def test_huge_start_blames_the_estimate_not_the_truth(self, tmp_path, capsys, mode, start):
        # the truth is the scenario's own finite position; the estimate
        # stays out at the start and its error overflows
        config, _ = write_scenario_config(tmp_path, mode=mode)
        doc = json.loads(Path(config).read_text())
        doc["initial"] = {"position_m": start}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: estimate too far from the truth")
        assert "initial iterate" in captured.err


    def test_non_finite_measurement_is_config_error(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["measurements"]["request_m"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "measurements, delays and weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: doc["initial"].update(velocity_mps=[1.0, 2.0, 3.0]),
            lambda doc: doc["initial"].update(position_m=[100.0, -20.0, 5.0]),
            lambda doc: doc.update(
                mode="known-velocity", solver={"known_velocity_mps": [1.0, 2.0, 3.0]}
            ),
            lambda doc: doc.update(anchors=doc["anchors"][:3]),
        ],
        ids=["initial-velocity", "initial-position", "known-velocity", "three-anchors"],
    )
    def test_dimension_mismatch_is_config_error(self, tmp_path, capsys, malform):
        doc = json.loads(Path(FIXTURE).read_text())
        malform(doc)
        config = tmp_path / "mismatch.json"
        config.write_text(json.dumps(doc))
        assert main(["solve", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["known-velocity", "one-way"])
    def test_initial_clock_overrides_reach_the_solver(self, tmp_path, capsys, monkeypatch, mode):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["mode"] = mode
        doc["solver"] = {"known_velocity_mps": [0.0, 0.0]}
        doc["initial"].update(clock_offset_m=12.5, clock_drift_mps=-3.25)
        seen = []
        monkeypatch.setattr(cli, "solve", record_solve(seen))
        path = tmp_path / "initial.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
        (initial,) = seen
        assert initial.clock_offset_m == 12.5
        # the one-way iterate has no drift to override
        assert initial.clock_drift_mps == (None if mode == "one-way" else -3.25)

    def test_known_velocity_defaults_to_the_scenario_velocity(self, tmp_path, capsys, monkeypatch):
        config, sc = write_scenario_config(tmp_path, mode="known-velocity")
        seen = []
        monkeypatch.setattr(cli, "solve", record_solve(seen, config=True))
        assert main(["solve", config]) == EXIT_OK
        (solver,) = seen
        assert solver.known_velocity_mps.tobytes() == sc.ud.velocity.tobytes()
        assert json.loads(capsys.readouterr().out)["position_error_m"] < 1.0

    def test_non_integer_toa_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        config, _ = write_scenario_config(tmp_path)
        monkeypatch.setenv("TOA_SEED", "1.5")
        assert main(["solve", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TOA_SEED must be an integer, got '1.5'\n"

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        for path in (tmp_path / "absent.json", tmp_path):
            assert main(["solve", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read config {str(path)!r}: ")
            assert err.count("\n") == 1

    def test_internal_value_error_propagates(self, monkeypatch):
        # a ValueError from inside the program is a fault, not a config error
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr("toaloc.cli.solve", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["solve", FIXTURE])


class TestCrlb:
    def test_reports_all_default_modes(self, tmp_path, capsys):
        config, _ = write_scenario_config(tmp_path)
        doc = {"scenario": json.loads(Path(config).read_text())["scenario"]}
        path = tmp_path / "crlb.json"
        path.write_text(json.dumps(doc))
        assert main(["crlb", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"known-velocity", "estimated-velocity", "one-way"}
        assert (
            out["known-velocity"]["position_crlb_rss_m"]
            < out["estimated-velocity"]["position_crlb_rss_m"]
            < out["one-way"]["position_crlb_rss_m"]
        )

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_response_sigma_without_float_weight_is_config_error(self, tmp_path, capsys, sigma):
        config, _ = write_scenario_config(tmp_path)
        scenario = json.loads(Path(config).read_text())["scenario"]
        scenario["noise_m"]["response"] = sigma
        path = tmp_path / "crlb.json"
        path.write_text(json.dumps({"scenario": scenario}))
        assert main(["crlb", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: response sigma out of range for weighting\n"


class TestPredictBias:
    def test_stationary_default(self, tmp_path, capsys):
        config, sc = write_scenario_config(tmp_path)
        doc = {"scenario": json.loads(Path(config).read_text())["scenario"]}
        path = tmp_path / "bias.json"
        path.write_text(json.dumps(doc))
        assert main(["predict-bias", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["predicted_rmse_position_m"] > 0
        assert len(out["bias"]) == 4

    def test_true_velocity_gives_noise_floor(self, tmp_path, capsys):
        config, sc = write_scenario_config(tmp_path)
        doc = {
            "scenario": json.loads(Path(config).read_text())["scenario"],
            "assumed_velocity_mps": sc.ud.velocity.tolist(),
        }
        path = tmp_path / "bias.json"
        path.write_text(json.dumps(doc))
        assert main(["predict-bias", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert max(abs(b) for b in out["bias"]) < 1e-9


class TestVerifyTheorems:
    def test_all_hold(self, capsys):
        assert main(["verify-theorems", "--instances", "40", "--seed", "5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["all_hold"] is True
        assert out["instances"] == 40
        assert out["violations"] == []

    def test_equal_delays_equality_count(self, capsys):
        code = main(
            ["verify-theorems", "--instances", "25", "--seed", "6", "--equal-delays"]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["two_way_equality_instances"] == 25


class TestCountsAndSeeds:
    @pytest.mark.parametrize(
        "command,change",
        [
            ("verify-theorems", {"instances": 2.7}),
            ("verify-theorems", {"seed": 3.9}),
            ("verify-theorems", {"equal_delays": "no"}),
            ("verify-theorems", {"seed": None}),
            ("solve", {"seed": 3.9}),
            ("solve", {"seed": None}),
            ("solve", {"solver": {"max_iterations": 2.9}}),
        ],
        ids=lambda value: value if isinstance(value, str) else json.dumps(value),
    )
    def test_fractional_count_or_seed_and_non_bool_flag_are_config_errors(
        self, tmp_path, capsys, command, change
    ):
        if command == "solve":
            path, _ = write_scenario_config(tmp_path)
            doc = {**json.loads(Path(path).read_text()), **change}
        else:
            doc = {"instances": 3, **change}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        argv = [command, str(config)] if command == "solve" else [command, "--config", str(config)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_whole_number_floats_are_counts_and_seeds(self, tmp_path, capsys):
        config = tmp_path / "whole.json"
        config.write_text(json.dumps({"instances": 3.0, "seed": 5.0, "equal_delays": True}))
        assert main(["verify-theorems", "--config", str(config)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["instances"] == 3 and out["two_way_equality_instances"] == 3


class TestExperiment:
    def test_config_run_writes_csv_and_manifest(self, tmp_path, capsys):
        doc = {
            "kind": "noise-sweep",
            "sweep_values": [0.1, 1.0],
            "trials": 4,
            "modes": ["known-velocity", "estimated-velocity"],
        }
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        out_csv = tmp_path / "sweep.csv"
        code = main(["experiment", "--config", str(config), "--output", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 sweep points x 2 modes
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["config"]["kind"] == "noise-sweep"

    def test_preset_with_trial_override(self, tmp_path):
        out_csv = tmp_path / "speed.csv"
        code = main(
            [
                "experiment", "--preset", "paper-speed-sweep",
                "--trials", "2", "--output", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12  # 6 speeds x 2 modes

    @pytest.mark.parametrize(
        "change",
        [
            {"delay_step_ms": [-5]},
            # steps whose labels print alike: the later would overwrite the earlier
            {"delay_step_ms": [10, 10]},
            {"delay_step_ms": [10.0, 10.0000001]},
            {"sigma_m": 0},
            {"sigma_m": -1},
            {"sweep_values": [float("nan")]},
            {"modes": []},
            {"jobs": -3},
            {"initial_radius_m": float("nan")},
            {"trials": 2.7},
            {"jobs": 1.9},
            {"base_seed": 3.5},
            {"trials": True},
            {"trials": "3"},
        ],
        ids=lambda change: ",".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_unusable_config_is_config_error(self, tmp_path, capsys, change):
        doc = {"kind": "stationary-baseline", "sweep_values": [10.0], "trials": 1, **change}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        out_csv = tmp_path / "never.csv"
        code = main(["experiment", "--config", str(config), "--output", str(out_csv)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config") and err.count("\n") == 1
        assert not out_csv.exists()

    def test_each_delay_step_gets_its_labels(self, tmp_path, capsys):
        doc = {"kind": "stationary-baseline", "sweep_values": [10.0], "trials": 2,
               "delay_step_ms": [10.0, 10.001]}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        out_csv = tmp_path / "steps.csv"
        assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == EXIT_OK
        with open(out_csv, newline="") as fh:
            labels = [row["mode"] for row in csv.DictReader(fh)]
        assert labels == ["known-velocity@dt10.001ms", "known-velocity@dt10ms",
                          "stationary@dt10.001ms", "stationary@dt10ms"]

    def test_unknown_preset(self, capsys):
        assert main(["experiment", "--preset", "nope"]) == EXIT_CONFIG

    def test_kind_runs_its_default_sweep(self, tmp_path, capsys):
        out_csv = tmp_path / "kind.csv"
        argv = ["experiment", "--kind", "speed-sweep", "--trials", "2", "--output", str(out_csv)]
        assert main(argv) == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = [(row["sweep_value"], row["mode"]) for row in csv.DictReader(fh)]
        assert rows == [(f"{v:.1f}", mode) for v in range(0, 60, 10)
                        for mode in ("estimated-velocity", "known-velocity")]
        config = json.loads((tmp_path / "kind.manifest.json").read_text())["config"]
        assert (config["kind"], config["trials"], config["sigma_m"]) == ("speed-sweep", 2, 0.1)

    def test_unknown_kind(self, capsys):
        assert main(["experiment", "--kind", "nope"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown kind 'nope'; available: noise-sweep, speed-sweep, "
            "stationary-baseline, velocity-mismatch, success-rate, iteration-profile\n"
        )

    def test_jobs_flag_overrides_the_config(self, tmp_path, capsys):
        doc = {"kind": "noise-sweep", "sweep_values": [0.5], "trials": 6, "jobs": 1}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        tables = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            argv = ["experiment", "--config", str(config), "--jobs", jobs, "--output", str(out_csv)]
            assert main(argv) == EXIT_OK
            manifest = json.loads((tmp_path / f"jobs{jobs}.manifest.json").read_text())
            assert manifest["config"]["jobs"] == int(jobs)
            with open(out_csv, newline="") as fh:
                tables.append([{**row, "mean_solve_us": None} for row in csv.DictReader(fh)])
        assert tables[0] == tables[1]

    def test_requires_some_source(self, capsys):
        assert main(["experiment"]) == EXIT_CONFIG

    def test_seed_changes_rmse(self, tmp_path):
        doc = {"kind": "noise-sweep", "sweep_values": [1.0], "trials": 6}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(doc))
        rows = []
        for seed in ("101", "202"):
            out_csv = tmp_path / f"s{seed}.csv"
            main(
                ["experiment", "--config", str(config), "--seed", seed,
                 "--output", str(out_csv)]
            )
            with open(out_csv, newline="") as fh:
                rows.append(list(csv.DictReader(fh))[0]["pos_rmse_m"])
        assert rows[0] != rows[1]


def verify_digest(capsys, runs) -> tuple[str, set]:
    """SHA-256 over the exit code, stdout and stderr of each verify-theorems
    argv in runs, and the set of exit codes."""
    sha, codes = hashlib.sha256(), set()
    for argv in runs:
        code = main(["verify-theorems", *argv])
        captured = capsys.readouterr()
        sha.update(repr((code, captured.out, captured.err)).encode())
        codes.add(code)
    return sha.hexdigest(), codes


def fixed_geometry(m, fault=None):
    """A 2-D instance of analysis.check_instances with m anchors on a circle.
    ``fault`` puts the device on an anchor, the anchors and device on one
    line, a zero request sigma, request sigmas whose weights overflow, or
    the second anchor on the first."""
    angles = 2.0 * np.pi * np.arange(m) / m
    anchors = 300.0 * np.c_[np.cos(angles), np.sin(angles)]
    position, sigma = np.array([10.0, 20.0]), np.full(m, 0.1)
    if fault == "degenerate":
        position = anchors[0].copy()
    elif fault == "singular":
        anchors, position = np.c_[np.linspace(-300.0, 300.0, m), np.zeros(m)], np.array([10.0, 0.0])
    elif fault == "zero-sigma":
        sigma = np.r_[0.0, np.full(m - 1, 0.1)]
    elif fault == "overflow":
        sigma = np.full(m, 1e-200)
    elif fault == "coincident":
        anchors[1] = anchors[0]
    return anchors, position, np.array([5.0, -3.0]), 0.01 * np.arange(1, m + 1), sigma, 0.1


def uniform_draw(rng):
    """The anchors, position and velocity of one instance from one
    Generator.integers call and five Generator.uniform calls: the reference
    that cli._random_geometry's raw-double draw must equal."""
    m = int(rng.integers(4, 9))
    anchors = rng.uniform(-400.0, 400.0, size=(m, 2))
    position = rng.uniform(-250.0, 250.0, size=2)
    velocity = rng.uniform(-50.0, 50.0, size=2)
    rng.uniform(-1.0, 1.0)  # clock offset, s
    rng.uniform(-10e-6, 10e-6)  # clock drift
    return anchors, position, velocity


def chunk_fields(chunk):
    """Each array field of a chunk's instances as its shapes, dtypes and
    bytes, and the response sigmas with their types."""
    *arrays, responses = zip(*chunk)
    fields = [([x.shape for x in c], {x.dtype for x in c}, np.concatenate(c).tobytes())
              for c in arrays]
    return fields, [(type(r), r) for r in responses]


class TestRandomGeometryDraw:
    def test_equals_uniform_draws_bit_for_bit(self):
        # chunks of 1, 127, 128 and 129 instances from each seed, with equal
        # and stepped delays; after each chunk every generator must give the
        # same next double. The delays and request sigmas each reference
        # instance gets:
        fixed = {
            (flag, m): (np.full(m, 0.010) if flag else 0.010 * np.arange(1, m + 1), np.full(m, 0.1))
            for flag in (False, True) for m in range(4, 9)
        }
        for seed in range(200):
            old = np.random.default_rng(seed)
            new = {flag: np.random.default_rng(seed) for flag in (False, True)}
            for count in (1, 127, 128, 129):
                expected = [uniform_draw(old) for _ in range(count)]
                for flag, rng in new.items():
                    drawn = [cli._random_geometry(rng, flag) for _ in range(count)]
                    reference = [(*xs, *fixed[flag, len(xs[0])], 0.1) for xs in expected]
                    assert chunk_fields(drawn) == chunk_fields(reference), (seed, count, flag)
                after = old.random()
                assert [rng.random() for rng in new.values()] == [after, after], (seed, count)


class TestVerifyTheoremsGolden:
    # SHA-256 over verify_digest at seeds 0, 7 and 2026, each without and
    # with --equal-delays, recorded when every instance was checked on its own.
    GOLDENS = {
        1: "0103c65cb8f2988307da859b6f28dea71aa7fc141d827a5ba56b8ed69efbde9a",
        127: "7bd5d829ed287c0908f3a76b8acd0b56f5228fc57f54c7f4924aeac8e3e28274",
        128: "2abbc51c83bffc17327ac519f392ca0763a2cd795328dca80c9ae54e2125e0c8",
        129: "efe5fea1f48947bd9f5bd1756d4ce793c996f7d5df1ef48e4baa20cc6645f95c",
        400: "901d486df7ebb5b72058a66c89e60e8c7880c6627b0164782f7ee204566083dc",
    }

    @pytest.mark.parametrize("instances", sorted(GOLDENS))
    def test_output_matches_golden(self, capsys, instances):
        runs = [
            ["--instances", str(instances), "--seed", str(seed), *flag]
            for seed in (0, 7, 2026)
            for flag in ([], ["--equal-delays"])
        ]
        assert verify_digest(capsys, runs)[0] == self.GOLDENS[instances]

    # The same over seeds 0-5 at 40 and 200 instances, without and with
    # --equal-delays, on draws whose response sigmas are 100 to 1000 times
    # finer than the request sigmas: at equal delays some two-way margins
    # are round-off beyond the tolerance (exit 2, violations listed) and some
    # FIMs fall below the pivot floor (exit 1).
    STIFF_GOLDEN = "57b1ae0cf2b32b328405642be17231f81ce47d3af5caaabe04470c6994d96ff0"

    def test_stiff_noise_matches_golden(self, capsys, monkeypatch):
        draw = cli._random_geometry

        def stiff(rng, equal_delays):
            *arrays, _ = draw(rng, equal_delays)
            return (*arrays, float(10.0 ** rng.uniform(-4.0, -3.0)))

        monkeypatch.setattr(cli, "_random_geometry", stiff)
        runs = [
            ["--instances", str(instances), "--seed", str(seed), *flag]
            for seed in range(6)
            for instances in (40, 200)
            for flag in ([], ["--equal-delays"])
        ]
        digest, codes = verify_digest(capsys, runs)
        assert codes == {EXIT_OK, EXIT_CONFIG, EXIT_NOT_CONVERGED}
        assert digest == self.STIFF_GOLDEN

    DEGENERATE = "error: position coincides with an anchor\n"
    # instance index -> (anchor count, fault) injected among seeded draws, and
    # the outcome recorded when every instance was checked on its own: the
    # fault of the first failing instance in instance order decides it, even
    # where a later instance's anchor count appears first
    INJECTED = {
        "singular-at-3": (
            10, {3: (5, "singular")}, (EXIT_CONFIG, "error: pivot below singularity tolerance\n")
        ),
        "degenerate-in-second-chunk": (200, {130: (6, "degenerate")}, (EXIT_CONFIG, DEGENERATE)),
        "degenerate-before-singular": (
            8, {0: (4, None), 1: (6, None), 2: (6, "degenerate"), 3: (4, "singular")},
            (EXIT_CONFIG, DEGENERATE),
        ),
        "singular-before-degenerate": (
            8, {0: (4, None), 1: (6, None), 2: (6, "singular"), 3: (4, "degenerate")},
            (EXIT_CONFIG, "error: Matrix is not positive definite\n"),
        ),
        "zero-sigma-at-5": (
            9, {5: (4, "zero-sigma")},
            (EXIT_CONFIG, "error: weighting requires strictly positive sigmas\n"),
        ),
        "overflow-at-2": (
            6, {2: (7, "overflow")},
            (EXIT_CONFIG, "error: request sigma out of range for weighting\n"),
        ),
        # coincident anchors fail the whole chunk before any of its instances
        # is checked, as when each drawn instance built an AnchorSet
        "coincident-after-degenerate-in-chunk": (
            8, {2: (6, "degenerate"), 5: (5, "coincident")}, ("ValueError", "two anchors coincide")
        ),
        "coincident-in-second-chunk": (
            140, {3: (6, "degenerate"), 130: (5, "coincident")}, (EXIT_CONFIG, DEGENERATE)
        ),
    }

    @pytest.mark.parametrize("case", sorted(INJECTED))
    def test_injected_fault_matches_golden(self, capsys, monkeypatch, case):
        instances, plan, expected = self.INJECTED[case]
        draw, calls = cli._random_geometry, []

        def injected(rng, equal_delays):
            calls.append(None)
            index = len(calls) - 1
            return fixed_geometry(*plan[index]) if index in plan else draw(rng, equal_delays)

        monkeypatch.setattr(cli, "_random_geometry", injected)
        try:
            outcome = main(["verify-theorems", "--instances", str(instances), "--seed", "4"])
        except ValueError as exc:  # a fault the CLI does not report as an input error
            outcome, message = type(exc).__name__, str(exc)
        else:
            captured = capsys.readouterr()
            assert captured.out == ""
            message = captured.err
        assert (outcome, message) == expected


class TestNegativeSeeds:
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("command", ["verify-theorems", "solve"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, command, source):
        if command == "solve":
            path, _ = write_scenario_config(tmp_path)
            doc = json.loads(Path(path).read_text())
        else:
            doc = {"instances": 2}
        if source == "config":
            doc["seed"] = -2
        elif source == "env":
            monkeypatch.setenv("TOA_SEED", "-1")
        config = tmp_path / "negative.json"
        config.write_text(json.dumps(doc))
        argv = [command, str(config)] if command == "solve" else [command, "--config", str(config)]
        if source == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
