"""Property tests of the CLI boundary: whatever a ``verify-theorems --config``
document holds, and whatever one field of a valid ``solve`` (in its scenario
and its measurements form), ``crlb``, ``predict-bias`` or ``experiment
--config`` document is replaced by, the command exits 0, 1 or 2, and a
rejected document gives exactly one ``error:`` line and no report, never a
traceback. Below the CLI: ``estimator.solve`` on random geometries returns a
finite report or raises a documented error, and the Monte-Carlo block's
seed hash gives ``default_rng``'s streams for any 64-bit seeds."""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toaloc import cli, montecarlo  # noqa: E402
from toaloc.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main  # noqa: E402
from toaloc.estimator import InsufficientMeasurements, Mode, SolverConfig  # noqa: E402
from toaloc.estimator import default_initial, solve  # noqa: E402
from toaloc.measurement import generate  # noqa: E402
from toaloc.scenario import AnchorSet, NoiseSpec, ResponseSchedule, Scenario  # noqa: E402
from toaloc.scenario import UdState, benchmark_scenario  # noqa: E402


# quotes, a backslash, a newline, non-ASCII and a lone surrogate among plain
# characters (an explicit alphabet spares building a Unicode character map)
TEXT = 'a0 -."\\\n\u00e9\u2603\ud800'


def json_values(numbers):
    """Any JSON value whose numbers come from ``numbers``: null, bools,
    numbers, strings, and lists of them."""
    scalars = st.none() | st.booleans() | numbers | st.text(TEXT, max_size=4)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=4)


NUMBERS = st.integers() | st.floats()
# a whole-number count above 3 is replaced by a small one, so that every
# document runs in milliseconds; fractional and non-finite floats stay
COUNTS = st.integers(max_value=3) | st.floats().map(
    lambda x: x % 4 if x.is_integer() and x > 3 else x
)
# "instances" is always given: the default count is 1000
DOCUMENTS = st.fixed_dictionaries(
    {"instances": json_values(COUNTS)},
    optional={"seed": json_values(NUMBERS), "equal_delays": json_values(NUMBERS)},
) | json_values(NUMBERS)


@pytest.fixture(autouse=True, scope="module")
def quick_main():
    """While this module runs: TOA_SEED unset, as it would override the
    documents' seeds, and one argument parser for every call of main. Set
    once, because restoring the environment and building the parser take a
    few milliseconds, a third of an example."""
    parser = cli.build_parser()
    with mock.patch.dict(os.environ), mock.patch.object(cli, "build_parser", lambda: parser):
        os.environ.pop("TOA_SEED", None)
        yield


def run(argv: list, document) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv + [config path]) on a
    document. A warning would print to stderr: it fails."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, path])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code: int, out: str, err: str) -> None:
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NOT_CONVERGED)
    if code == EXIT_CONFIG:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_verify_theorems_config_exits_cleanly(document):
    code, out, err = run(["verify-theorems", "--config"], document)
    assert_clean_exit(code, out, err)
    if code != EXIT_CONFIG:
        assert err == ""
        assert json.loads(out)["instances"] in (1, 2, 3)


SCENARIO = json.loads(benchmark_scenario(np.random.default_rng(17)).to_json())
# one valid document for all three commands: the benchmark's scenario, and
# solve keys that set every override cmd_solve reads
VALID = {
    "scenario": SCENARIO,
    "mode": "estimated-velocity",
    "seed": 3,
    "solver": {"max_iterations": 3, "convergence_threshold_m": 0.01,
               "known_velocity_mps": SCENARIO["ud"]["velocity_mps"]},
    "initial": {"position_m": [5.0, -7.0], "clock_offset_m": 1.0, "clock_drift_mps": 0.5,
                "velocity_mps": [1.0, 2.0]},
    "truth": {"position_m": SCENARIO["ud"]["position_m"], "clock_offset_m": 0.0},
    "modes": ["known-velocity", "one-way"],
    "assumed_velocity_mps": [3.0, -4.0],
}
SCENARIO_FIELDS = [("scenario",)] + [("scenario", key) for key in SCENARIO] + [
    ("scenario", parent, key) for parent in ("ud", "noise_m") for key in SCENARIO[parent]
]
# the measurements form of solve: one epoch drawn from the same scenario,
# with the anchors, solver and initial iterate of VALID
MEASUREMENTS = json.loads(
    generate(benchmark_scenario(np.random.default_rng(17)), np.random.default_rng(4)).to_json()
)
MEASURED = {"anchors": SCENARIO["anchors"], "measurements": MEASUREMENTS,
            "solver": VALID["solver"], "initial": VALID["initial"]}
FIELDS = {
    "solve": SCENARIO_FIELDS + [("mode",), ("seed",), ("truth",), ("solver",), ("initial",)] + [
        (parent, key) for parent in ("solver", "initial", "truth") for key in VALID[parent]
    ],
    "crlb": SCENARIO_FIELDS + [("modes",)],
    "predict-bias": SCENARIO_FIELDS + [("assumed_velocity_mps",)],
}
MEASURED_FIELDS = [("anchors",), ("measurements",)] + [
    ("measurements", key) for key in MEASUREMENTS
] + [("measurements", "sigma_m", key) for key in MEASUREMENTS["sigma_m"]] + [
    ("initial", key) for key in MEASURED["initial"]
]
MISSING = object()  # the field is deleted


def replaced(document: dict, field: tuple, value) -> dict:
    """A copy of document with the field at path ``field`` set to value, or
    deleted for MISSING."""
    document = json.loads(json.dumps(document))
    *parents, key = field
    target = document
    for parent in parents:
        target = target[parent]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    return document


# built once: a recursive strategy built anew for every example costs more than the example
VALUES = {budget: json_values(COUNTS if budget else NUMBERS) | st.just(MISSING)
          for budget in (False, True)}


def edits(fields: list):
    """(field, value) pairs: every one of ``fields`` equally likely, the
    solver's iteration budget kept small like the counts above."""
    def values(field):
        return VALUES[field == ("solver", "max_iterations")]

    return st.sampled_from(fields).flatmap(lambda f: st.tuples(st.just(f), values(f)))


def finite_json(text: str):
    """json.loads that fails on NaN and infinities."""
    def reject(constant):
        raise AssertionError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


def check_edit(
    command: str, field: tuple, value, mode: str = "estimated-velocity", base: dict = VALID
) -> None:
    code, out, err = run([command], replaced(dict(base, mode=mode), field, value))
    assert_clean_exit(code, out, err)
    if code != EXIT_CONFIG:
        assert err == ""
        # a report, converged or not, holds only finite numbers
        report = finite_json(out)
        assert isinstance(report, dict)


MODES = st.sampled_from(["known-velocity", "estimated-velocity", "stationary", "one-way"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(FIELDS["solve"]), MODES)
def test_solve_document_exits_cleanly(edit, mode):
    check_edit("solve", *edit, mode)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(MEASURED_FIELDS), MODES)
def test_solve_measurements_document_exits_cleanly(edit, mode):
    check_edit("solve", *edit, mode, base=MEASURED)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(FIELDS["crlb"]))
def test_crlb_document_exits_cleanly(edit):
    check_edit("crlb", *edit)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(FIELDS["predict-bias"]))
def test_predict_bias_document_exits_cleanly(edit):
    check_edit("predict-bias", *edit)


@pytest.mark.parametrize(
    "command,field,value",
    [
        ("predict-bias", ("assumed_velocity_mps",), []),
        ("predict-bias", ("assumed_velocity_mps",), None),
        ("predict-bias", ("assumed_velocity_mps",), [1, 2, 3]),
        ("predict-bias", ("assumed_velocity_mps",), [1.0, float("inf")]),
        ("solve", ("solver",), [1]),
        ("solve", ("solver",), "x"),
        ("solve", ("solver",), None),
        ("solve", ("initial", "position_m"), [[5.0], [-7.0]]),
        ("crlb", ("scenario", "noise_m", "request"), [[0.1, 0.1], [0.1, 0.1]]),
        ("crlb", ("scenario", "ud", "position_m"), [0.0, 1.3407807929942597e154]),
        ("predict-bias", ("scenario", "ud", "velocity_mps"), [0.0, 1.1286776992816053e163]),
        ("solve", ("solver", "convergence_threshold_m"), float("nan")),
        ("solve", ("solver", "known_velocity_mps"), [float("nan"), 0.0]),
        ("solve", ("truth", "position_m"), [float("nan"), 0.0]),
        ("solve", ("truth", "position_m"), [1e308, 1e308]),
        ("solve", ("initial", "position_m"), [float("nan"), 0.0]),
        ("solve", ("initial", "clock_offset_m"), float("nan")),
        ("solve", ("initial", "clock_drift_mps"), float("inf")),
        ("solve", ("initial", "velocity_mps"), [float("inf"), 0.0]),
        ("solve", ("initial", "position_m"), [1e308, 1e308]),
        ("solve", ("initial", "position_m"), [1e200, 0.0]),
    ],
)
def test_known_counterexamples_exit_cleanly(command, field, value):
    # each of these once ended in a traceback, a numpy warning on stderr, a
    # NaN report or a spent iteration budget
    code, out, err = run([command], replaced(VALID, field, value))
    assert (code, out, err.count("\n")) == (EXIT_CONFIG, "", 1) and err.startswith("error:")


# one small valid experiment document per kind: every field set, one sweep
# point of two trials
EXPERIMENTS = {
    "noise-sweep": [0.1],
    "speed-sweep": [10.0],
    "stationary-baseline": [10.0],
    "velocity-mismatch": [4.0],
    "success-rate": [50.0],
    "iteration-profile": [2.0],
}
EXPERIMENT_FIELDS = ["kind", "sweep_values", "trials", "base_seed", "modes",
                     "initial_radius_m", "sigma_m", "delay_step_ms"]


def experiment_document(kind: str) -> dict:
    return {"kind": kind, "sweep_values": EXPERIMENTS[kind], "trials": 2, "base_seed": 5,
            "modes": ["known-velocity", "one-way"], "initial_radius_m": 50.0, "sigma_m": 0.1,
            "delay_step_ms": [10.0], "jobs": 1}


def run_experiment_document(document) -> tuple[int, str, str]:
    """run() on ``experiment --config``, the CSV and manifest written to a
    temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return run(["experiment", "--output", os.path.join(tmp, "out.csv"), "--config"], document)


def experiment_edits():
    """(kind, field, value): the trial count kept small like the counts
    above, and never deleted (the default is 40 000 trials), and the sweep
    values kept small too where they are iteration budgets."""
    trials = json_values(COUNTS)

    def values(kind, field):
        if field == "trials":
            return trials
        return VALUES[(kind, field) == ("iteration-profile", "sweep_values")]

    edits = st.tuples(st.sampled_from(sorted(EXPERIMENTS)), st.sampled_from(EXPERIMENT_FIELDS))
    return edits.flatmap(lambda kf: st.tuples(st.just(kf[0]), st.just(kf[1]), values(*kf)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(experiment_edits())
def test_experiment_document_exits_cleanly(edit):
    kind, field, value = edit
    code, out, err = run_experiment_document(replaced(experiment_document(kind), (field,), value))
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert out == ""
    if code == EXIT_OK:
        assert err.startswith("wrote ") and err.count("\n") == 1
    else:
        assert err.startswith("error:") and err.count("\n") == 1


def test_overflowing_fisher_matrix_exits_cleanly():
    # the response delay's Fisher matrix overflows: once a NonFiniteMatrix traceback
    document = {"kind": "stationary-baseline", "sweep_values": [1.0], "trials": 1,
                "delay_step_ms": [1e300]}
    code, out, err = run_experiment_document(document)
    assert (code, out, err.count("\n")) == (EXIT_CONFIG, "", 1) and err.startswith("error:")


GEOMETRIES = st.sampled_from(["spread", "near-collinear", "near-anchor"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(Mode)), st.integers(2, 6), st.sampled_from([2, 3]), GEOMETRIES,
       st.floats(-6.0, 300.0), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_solve_on_random_geometries(mode, m, n, geometry, log_radius, budget, seed):
    # anchors spread out or within 1e-9 m of a line, the device anywhere or
    # within 1e-6 m of an anchor, the start up to 1e300 m away: solve returns
    # a report holding only finite numbers, or raises a documented error.
    # Any warning fails but numpy's overflow warnings, which an iterate
    # beyond about 1e153 m gives before its row is retired as not finite
    rng = np.random.default_rng(seed)
    if geometry == "near-collinear":
        axis = rng.standard_normal(n)
        anchors = np.outer(rng.uniform(-500.0, 500.0, m), axis / np.linalg.norm(axis))
        anchors += 1e-9 * rng.uniform(-1.0, 1.0, (m, n))
    else:
        anchors = rng.uniform(-500.0, 500.0, (m, n))
    device = rng.uniform(-300.0, 300.0, n)
    if geometry == "near-anchor":
        device = anchors[0] + 1e-6 / n * rng.uniform(-1.0, 1.0, n)
    velocity = rng.uniform(-50.0, 50.0, n)
    ud = UdState(device, velocity, rng.uniform(-1.0, 1.0), rng.uniform(-1e-5, 1e-5))
    scenario = Scenario(AnchorSet(anchors), ud, ResponseSchedule(0.01 * np.arange(1, m + 1)),
                        NoiseSpec.uniform(0.1, m))
    measurements = generate(scenario, rng)
    away = rng.standard_normal(n)
    start = device + 10.0**log_radius * away / np.linalg.norm(away)
    known = velocity if mode is Mode.KNOWN_VELOCITY else None
    config = SolverConfig(max_iterations=budget, known_velocity_mps=known)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        try:
            report = solve(measurements, scenario.anchors, config,
                           default_initial(mode, start, measurements))
        except InsufficientMeasurements:
            assert (m if mode is Mode.ONE_WAY else 2 * m) < mode.param_dim(n)
            return
    numbers = [*report.estimate.to_array(), *(x for step in report.trace for x in step)]
    assert np.isfinite(numbers).all()
    assert len(report.trace) == report.iterations_used <= budget
    assert not report.converged or report.failure_reason is None


SEEDS = st.lists(st.integers(0, 2**64 - 1), max_size=3 * montecarlo._HASHED_BLOCK)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SEEDS)
def test_block_generators_draw_default_rng_streams(seeds):
    # whichever side of the block-length crossover: the raw doubles and
    # normals of each seed's default_rng
    draws = []
    for rng in montecarlo._generators(seeds):
        draws.append((rng.random(3).tolist(), rng.standard_normal(5).tolist()))
    expected = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        expected.append((rng.random(3).tolist(), rng.standard_normal(5).tolist()))
    assert draws == expected
    states = [np.random.SeedSequence(s).generate_state(4, np.uint64).tolist() for s in seeds]
    assert montecarlo._seed_states(seeds).tolist() == states
