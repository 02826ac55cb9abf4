"""Command-line front end.

Subcommands:

* ``solve``            - run one estimator on a measurement set or a
                         synthesized scenario
* ``crlb``             - Fisher information / CRLB report for a scenario
* ``predict-bias``     - analytic bias/RMSE prediction for a mismatched or
                         zero assumed velocity
* ``verify-theorems``  - accuracy-ordering checks on random geometries
* ``experiment``       - Monte-Carlo sweep, CSV + JSON manifest output

Exit codes: 0 success, 1 usage/config error, 2 solver non-convergence or
property violation. Diagnostics go to stderr; stdout carries only JSON/CSV.
The ``TOA_SEED`` environment variable overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import analysis, montecarlo
from .estimator import InsufficientMeasurements, MissingKnownVelocity, Mode, SolverConfig
from .estimator import default_initial, solve
from .linalg import DimensionMismatch, NonFiniteMatrix, SingularMatrix
from .measurement import DegenerateGeometry, InvalidMeasurements, InvalidNoise
from .measurement import ToaMeasurementSet, generate
from .scenario import AnchorSet, Scenario, direction

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2

PRESETS = {
    "paper-noise-sweep": {
        "kind": montecarlo.NOISE_SWEEP,
        "sweep_values": list(np.round(np.logspace(-2, 1, 6), 6)),
        "trials": 40_000,
        "modes": ["known-velocity", "estimated-velocity", "one-way"],
    },
    "paper-speed-sweep": {
        "kind": montecarlo.SPEED_SWEEP,
        "sweep_values": [0, 10, 20, 30, 40, 50],
        "trials": 40_000,
        "sigma_m": 0.1,
        "modes": ["known-velocity", "estimated-velocity"],
    },
    "paper-stationary-baseline": {
        "kind": montecarlo.STATIONARY_BASELINE,
        "sweep_values": [0, 10, 20, 30, 40, 50],
        "trials": 40_000,
        "sigma_m": 0.1,
        "delay_step_ms": [5, 10, 20],
    },
    "paper-deviated-velocity": {
        "kind": montecarlo.VELOCITY_MISMATCH,
        "sweep_values": [0, 4, 8, 12, 16, 20],
        "trials": 40_000,
        "sigma_m": 0.1,
    },
    "paper-success-rate": {
        "kind": montecarlo.SUCCESS_RATE,
        "sweep_values": [10, 50, 100, 200],
        "trials": 100_000,
        "sigma_m": 5.0,
        "modes": ["known-velocity", "estimated-velocity"],
    },
    "paper-iteration-profile": {
        "kind": montecarlo.ITERATION_PROFILE,
        "sweep_values": list(range(1, 11)),
        "trials": 10_000,
        "sigma_m": 0.1,
        "modes": ["known-velocity", "estimated-velocity"],
    },
}

DEFAULT_KIND_SWEEPS = {preset["kind"]: preset for preset in PRESETS.values()}


class ConfigError(ValueError):
    pass


# Errors that report unusable input rather than a fault in the program:
# main turns them into exit code 1 and lets every other exception through.
# A non-finite matrix can come only from document values here: solve turns
# its own into non-converged reports.
INPUT_ERRORS = (ConfigError, InvalidMeasurements, InvalidNoise, InsufficientMeasurements,
                MissingKnownVelocity, DegenerateGeometry, SingularMatrix, NonFiniteMatrix,
                DimensionMismatch)


@contextmanager
def _reading(what: str = "config"):
    """Report a malformed value met while parsing ``what`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _seed_override(seed) -> int | None:
    env = os.environ.get("TOA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"TOA_SEED must be an integer, got {env!r}") from None
    with _reading():
        return None if seed is None else montecarlo.whole_number(seed, "seed")


def _generator_seed(args, doc: dict) -> int:
    """TOA_SEED, --seed, the config's seed or 0, for a generator: not negative."""
    seed = _seed_override(args.seed if args.seed is not None else doc.get("seed", 0))
    if seed is None:  # the config's "seed": null
        raise ConfigError("invalid config: seed must be a whole number, got None")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config field {key!r} is missing")
    return doc[key]


def _solver_from(doc: dict) -> SolverConfig:
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError(f"solver must be an object, got {solver!r}")
    return SolverConfig(
        max_iterations=montecarlo.whole_number(solver.get("max_iterations", 10), "max_iterations"),
        convergence_threshold_m=solver.get("convergence_threshold_m"),
        known_velocity_mps=solver.get("known_velocity_mps"),
    )


def cmd_solve(args) -> int:
    doc = _load_config(args.config)
    with _reading():
        mode = Mode(_require(doc, "mode"))
        solver = _solver_from(doc)
        if "measurements" in doc:
            anchors = AnchorSet(np.asarray(_require(doc, "anchors"), dtype=float))
            measurements = ToaMeasurementSet.from_dict(doc["measurements"])
            scenario = None
        elif "scenario" in doc:
            scenario = Scenario.from_dict(doc["scenario"])
            anchors = scenario.anchors
        else:
            raise ConfigError("config needs either 'measurements' or 'scenario'")

    if scenario is not None:
        seed = _generator_seed(args, doc)
        rng = np.random.default_rng(seed)
        measurements = generate(scenario, rng)
        if mode is Mode.KNOWN_VELOCITY and solver.known_velocity_mps is None:
            solver = replace(solver, known_velocity_mps=scenario.ud.velocity)

    if "initial" in doc:
        init_doc = doc["initial"]
        with _reading():
            position = np.asarray(_require(init_doc, "position_m"), dtype=float)
            initial = default_initial(mode, position, measurements)
            if "clock_offset_m" in init_doc:
                initial.clock_offset_m = float(init_doc["clock_offset_m"])
            if "clock_drift_mps" in init_doc and mode is not Mode.ONE_WAY:
                initial.clock_drift_mps = float(init_doc["clock_drift_mps"])
            if "velocity_mps" in init_doc and mode is Mode.ESTIMATED_VELOCITY:
                initial.velocity = np.asarray(init_doc["velocity_mps"], dtype=float)
        # checked part by part: a misshapen part is solve's DimensionMismatch
        parts = (initial.position, initial.clock_offset_m, initial.clock_drift_mps, initial.velocity)
        if not all(np.isfinite(part).all() for part in parts if part is not None):
            raise ConfigError("initial iterate must be finite")
    elif scenario is not None:
        offset = 50.0 * direction(np.random.default_rng(seed).random())
        initial = default_initial(mode, scenario.ud.position + offset, measurements)
    else:
        raise ConfigError("config field 'initial' is missing (required with raw measurements)")

    report = solve(measurements, anchors, solver, initial)

    out = json.loads(report.to_json())
    truth = doc.get("truth")
    if truth is None and scenario is not None:
        truth = {
            "position_m": scenario.ud.position.tolist(),
            "clock_offset_m": scenario.ud.clock_offset_m,
        }
    if truth is not None:
        est = report.estimate
        with _reading():
            out["position_error_m"] = float(
                np.linalg.norm(est.position - np.asarray(truth["position_m"], dtype=float))
            )
            if "clock_offset_m" in truth:
                out["clock_offset_error_m"] = float(
                    abs(est.clock_offset_m - float(truth["clock_offset_m"]))
                )
        errors = [out[key] for key in ("position_error_m", "clock_offset_error_m") if key in out]
        # a finite estimate's error overflows when the truth is out of float
        # range on its own, or else when the estimate is too far from it
        if np.isfinite(est.to_array()).all() and not np.isfinite(errors).all():
            own = [np.linalg.norm(np.asarray(truth["position_m"], dtype=float)),
                   float(truth.get("clock_offset_m", 0.0))]  # both were read above
            if not np.isfinite(own).all():
                raise ConfigError("truth out of float range for the error report")
            raise ConfigError("estimate too far from the truth for the error report; "
                              "check the initial iterate")
    _emit(json.dumps(out, indent=2), args.output)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_crlb(args) -> int:
    doc = _load_config(args.config)
    with _reading():
        scenario = Scenario.from_dict(_require(doc, "scenario"))
        default_modes = [m.value for m in Mode if m is not Mode.STATIONARY]
        modes = [Mode(m) for m in doc.get("modes", default_modes)]
    reports = {
        mode.value: json.loads(
            analysis.fim(
                mode, scenario.anchors, scenario.ud, scenario.schedule, scenario.noise
            ).to_json()
        )
        for mode in modes
    }
    _emit(json.dumps(reports, indent=2), args.output)
    return EXIT_OK


def cmd_predict_bias(args) -> int:
    doc = _load_config(args.config)
    with _reading():
        scenario = Scenario.from_dict(_require(doc, "scenario"))
        n = scenario.anchors.n_dim
        assumed = np.asarray(doc.get("assumed_velocity_mps", np.zeros(n)), dtype=float)
        if assumed.shape != (n,) or not np.isfinite(assumed).all():
            raise ConfigError(f"assumed_velocity_mps must be {n} finite numbers")
    report = analysis.velocity_mismatch_bias(
        scenario.anchors, scenario.ud, scenario.schedule, scenario.noise, assumed
    )
    if not np.isfinite(report.predicted_rmse_total):  # a NaN or inf anywhere reaches it
        raise ConfigError("scenario out of float range for the bias prediction")
    _emit(report.to_json(), args.output)
    return EXIT_OK


def cmd_verify_theorems(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    with _reading():
        instances = args.instances if args.instances is not None else doc.get("instances", 1000)
        instances = montecarlo.whole_number(instances, "instances")
    if instances < 1:
        raise ConfigError("instance count must be >= 1")
    seed = _generator_seed(args, doc)
    if type(doc.get("equal_delays", False)) is not bool:
        raise ConfigError(f"equal_delays must be true or false, got {doc['equal_delays']!r}")
    equal_delays = doc.get("equal_delays", False) or args.equal_delays
    rng = np.random.default_rng(seed)

    violations = []
    equalities = 0
    for start in range(0, instances, montecarlo.BLOCK):  # chunks bound the memory held
        count = min(montecarlo.BLOCK, instances - start)
        chunk = [_random_geometry(rng, equal_delays) for _ in range(count)]
        for index, (kv, tw) in enumerate(analysis.check_instances(chunk), start):
            if not kv["holds"] or not tw["holds"]:
                violations.append(
                    {
                        "instance": index,
                        "known_velocity_margins": kv["margins"].tolist(),
                        "two_way_margins": tw["margins"].tolist(),
                    }
                )
            if tw["equality"]:
                equalities += 1

    out = {
        "instances": instances,
        "violations": violations,
        "two_way_equality_instances": equalities if equal_delays else None,
        "all_hold": not violations,
    }
    _emit(json.dumps(out, indent=2), args.output)
    return EXIT_OK if not violations else EXIT_NOT_CONVERGED


# Generator.uniform(low, high) maps a raw double u to low + (high - low) * u: the
# lows and spans of anchor coordinates (8 anchors at most), position and
# velocity in draw order; an instance of m anchors maps the last 2m + 4
_LOW = np.r_[np.full(16, -400.0), -250.0, -250.0, -50.0, -50.0]
_SPAN = np.r_[np.full(16, 400.0), 250.0, 250.0, 50.0, 50.0] - _LOW
# read-only equal and stepped delays and request sigmas; an instance takes m
_DELAYS = {True: np.full(8, 0.010), False: 0.010 * np.arange(1, 9)}
_SIGMA = np.full(8, 0.1)
for _array in (*_DELAYS.values(), _SIGMA):
    _array.flags.writeable = False


def _random_geometry(rng: np.random.Generator, equal_delays: bool):
    """Random non-degenerate 2D instance of analysis.check_instances: 4..8
    anchors, device in the hull area. Two generator calls: the anchor count,
    then the 2m + 6 raw doubles the five Generator.uniform calls of anchors,
    position, velocity, clock offset and drift would take (the last two are
    drawn to keep the stream; nothing reads them)."""
    m = int(rng.integers(4, 9))
    k = 16 - 2 * m
    v = _LOW[k:] + _SPAN[k:] * rng.random(2 * m + 6)[: 2 * m + 4]
    return (v[: 2 * m].reshape(m, 2), v[2 * m : 2 * m + 2], v[2 * m + 2 :],
            _DELAYS[equal_delays][:m], _SIGMA[:m], 0.1)


def cmd_experiment(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        doc = dict(PRESETS[args.preset])
    elif args.config:
        doc = _load_config(args.config)
    elif args.kind:
        if args.kind not in DEFAULT_KIND_SWEEPS:
            raise ConfigError(
                f"unknown kind {args.kind!r}; available: {', '.join(montecarlo.EXPERIMENT_KINDS)}"
            )
        doc = dict(DEFAULT_KIND_SWEEPS[args.kind])
    else:
        raise ConfigError("experiment needs --preset, --config, or --kind")

    if args.kind:
        doc["kind"] = args.kind
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.jobs is not None:
        doc["jobs"] = args.jobs
    seed = _seed_override(args.seed)
    if seed is not None:
        doc["base_seed"] = seed

    with _reading("experiment config"):
        config = montecarlo.ExperimentConfig.from_dict(doc)

    montecarlo._one_blas_thread()  # as in pool workers: a --jobs 1 run solves in this process
    summaries = montecarlo.run_experiment(config)
    csv_path = args.output or "experiment.csv"
    montecarlo.write_csv(summaries, csv_path)
    manifest_path = os.path.splitext(csv_path)[0] + ".manifest.json"
    montecarlo.write_manifest(config, summaries, manifest_path)
    print(f"wrote {csv_path} and {manifest_path}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toaloc",
        description="Round-trip TOA localization and synchronization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one estimator on a config")
    p_solve.add_argument("config", help="JSON config with measurements or a scenario")
    p_solve.add_argument("--output", help="write the JSON report here instead of stdout")
    p_solve.add_argument("--seed", type=int, help="override the config seed")
    p_solve.set_defaults(func=cmd_solve)

    p_crlb = sub.add_parser("crlb", help="CRLB/Fisher-information report")
    p_crlb.add_argument("config")
    p_crlb.add_argument("--output")
    p_crlb.set_defaults(func=cmd_crlb)

    p_bias = sub.add_parser("predict-bias", help="analytic bias/RMSE prediction")
    p_bias.add_argument("config")
    p_bias.add_argument("--output")
    p_bias.set_defaults(func=cmd_predict_bias)

    p_thm = sub.add_parser("verify-theorems", help="accuracy-ordering checks on random geometries")
    p_thm.add_argument("--config")
    p_thm.add_argument("--instances", type=int)
    p_thm.add_argument("--seed", type=int)
    p_thm.add_argument("--equal-delays", action="store_true")
    p_thm.add_argument("--output")
    p_thm.set_defaults(func=cmd_verify_theorems)

    p_exp = sub.add_parser("experiment", help="Monte-Carlo sweep")
    p_exp.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    p_exp.add_argument("--config", help="JSON experiment config")
    p_exp.add_argument("--kind", help=f"one of: {', '.join(montecarlo.EXPERIMENT_KINDS)}")
    p_exp.add_argument("--trials", type=int, help="override trials per sweep point")
    p_exp.add_argument("--jobs", type=int, help="parallel worker count")
    p_exp.add_argument("--seed", type=int, help="override the base seed")
    p_exp.add_argument("--output", help="CSV output path (default experiment.csv)")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # out-of-range input fails as an error or report
            return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
