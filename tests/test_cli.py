import csv
import json
from pathlib import Path

import numpy as np
import pytest

from toaloc.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main
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
            {"sigma_m": 0},
            {"sigma_m": -1},
            {"sweep_values": [float("nan")]},
            {"modes": []},
            {"jobs": -3},
            {"initial_radius_m": float("nan")},
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

    def test_unknown_preset(self, capsys):
        assert main(["experiment", "--preset", "nope"]) == EXIT_CONFIG

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
