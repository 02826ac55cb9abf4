import hashlib
import json

import numpy as np
import pytest

from toaloc.estimator import (
    EstimateReport,
    InsufficientMeasurements,
    Mode,
    NonFiniteIterate,
    ParamVector,
    SolverConfig,
    default_initial,
    design_matrix,
    gauss_newton_step,
    model_h,
    solve,
    solve_batch,
)
from toaloc.linalg import DimensionMismatch
from toaloc.measurement import forward, generate
from toaloc.scenario import (
    AnchorSet,
    NoiseSpec,
    ResponseSchedule,
    Scenario,
    UdState,
    benchmark_scenario,
)

ALL_MODES = [Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY, Mode.STATIONARY, Mode.ONE_WAY]


def random_geometry(rng):
    """A random anchor set, schedule and parameter point clear of anchors."""
    m = int(rng.integers(4, 8))
    anchors = AnchorSet(rng.uniform(-400, 400, (m, 2)))
    schedule = ResponseSchedule(np.sort(rng.uniform(0.002, 0.08, m)))
    while True:
        p = rng.uniform(-250, 250, 2)
        if np.min(np.linalg.norm(anchors.positions - p, axis=1)) > 5.0:
            break
    return anchors, schedule, p


def random_params(rng, mode, p):
    return ParamVector(
        mode=mode,
        position=p,
        # moderate clock states keep the model values near the geometry scale,
        # so central differences stay well above the float64 cancellation floor
        clock_offset_m=float(rng.uniform(-1e3, 1e3)),
        clock_drift_mps=None if mode is Mode.ONE_WAY else float(rng.uniform(-1e2, 1e2)),
        velocity=rng.uniform(-50, 50, 2) if mode is Mode.ESTIMATED_VELOCITY else None,
    )


def fd_jacobian(theta, anchors, schedule, known_velocity, step=1e-4):
    """Central finite-difference oracle for the measurement Jacobian."""
    base = theta.to_array()
    n = theta.n_dim
    cols = []
    for j in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        f_hi = model_h(ParamVector.from_array(theta.mode, hi, n), anchors, schedule, known_velocity)
        f_lo = model_h(ParamVector.from_array(theta.mode, lo, n), anchors, schedule, known_velocity)
        cols.append((f_hi - f_lo) / (2.0 * step))
    return np.column_stack(cols)


def oracle_model(mode, anchors, schedule, theta, v):
    """The model and Jacobian written out block by block with
    np.linalg.norm, hstack and vstack: the reference forward() must
    reproduce bit for bit."""
    pos, dt = anchors.positions, schedule.delays
    m, n = anchors.count, theta.n_dim
    diff_tx = pos - theta.position
    d_req = np.linalg.norm(diff_tx, axis=-1)
    e = diff_tx / d_req[:, None]
    ones = np.ones((m, 1))
    g0 = np.hstack([-e, -ones])
    if mode is Mode.ONE_WAY:
        return d_req - theta.clock_offset_m, g0
    diff_rx = pos - theta.position - v * dt[:, None]
    d_resp = np.linalg.norm(diff_rx, axis=-1)
    l = diff_rx / d_resp[:, None]
    h = np.concatenate(
        [d_req - theta.clock_offset_m, d_resp + theta.clock_offset_m + theta.clock_drift_mps * dt]
    )
    g1 = np.hstack([-l, ones])
    zeros = np.zeros((m, 1))
    if mode is Mode.ESTIMATED_VELOCITY:
        top = np.hstack([g0, zeros, np.zeros((m, n))])
        bottom = np.hstack([g1, dt[:, None], -l * dt[:, None]])
    else:
        top = np.hstack([g0, zeros])
        bottom = np.hstack([g1, dt[:, None]])
    return h, np.vstack([top, bottom])


class TestForward:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_bit_identical_to_block_oracle(self, mode):
        rng = np.random.default_rng(116)
        for _ in range(50):
            m = int(rng.integers(4, 9))
            anchors = AnchorSet(rng.uniform(-400, 400, (m, 2)))
            schedule = ResponseSchedule(np.sort(rng.uniform(0.002, 0.08, m)))
            theta = random_params(rng, mode, rng.uniform(-250, 250, 2))
            kv = rng.uniform(-50, 50, 2) if mode is Mode.KNOWN_VELOCITY else None
            if mode is Mode.ESTIMATED_VELOCITY:
                v = theta.velocity
            else:
                v = kv if kv is not None else np.zeros(2)
            h, g = forward(
                anchors.positions,
                schedule.delays,
                theta.position,
                v,
                theta.clock_offset_m,
                theta.clock_drift_mps,
                response=mode is not Mode.ONE_WAY,
                jacobian=True,
                velocity_columns=mode is Mode.ESTIMATED_VELOCITY,
            )
            h_ref, g_ref = oracle_model(mode, anchors, schedule, theta, v)
            assert np.array_equal(h, h_ref)
            assert np.array_equal(g, g_ref)
            assert g.flags.c_contiguous
            assert np.array_equal(model_h(theta, anchors, schedule, kv), h_ref)
            assert np.array_equal(design_matrix(theta, anchors, schedule, kv), g_ref)


class TestDesignMatrix:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(100)
        for _ in range(30):
            anchors, schedule, p = random_geometry(rng)
            theta = random_params(rng, mode, p)
            kv = rng.uniform(-50, 50, 2) if mode is Mode.KNOWN_VELOCITY else None
            g = design_matrix(theta, anchors, schedule, kv)
            g_fd = fd_jacobian(theta, anchors, schedule, kv)
            assert np.max(np.abs(g - g_fd)) <= 1e-6

    def test_shapes(self):
        rng = np.random.default_rng(101)
        anchors, schedule, p = random_geometry(rng)
        m = anchors.count
        for mode in ALL_MODES:
            g = design_matrix(random_params(rng, mode, p), anchors, schedule)
            rows = m if mode is Mode.ONE_WAY else 2 * m
            assert g.shape == (rows, mode.param_dim(2))

    def test_equal_delay_velocity_block_is_scaled_position_block(self):
        # With every response delay identical the velocity columns of the
        # response rows are exactly delta_t times the position columns.
        rng = np.random.default_rng(102)
        anchors = AnchorSet(rng.uniform(-400, 400, (5, 2)))
        schedule = ResponseSchedule(np.full(5, 0.03))
        theta = random_params(rng, Mode.ESTIMATED_VELOCITY, rng.uniform(-200, 200, 2))
        g = design_matrix(theta, anchors, schedule)
        bottom = g[5:]
        assert np.allclose(bottom[:, 4:], 0.03 * bottom[:, :2], rtol=1e-12)

    def test_los_vectors_unit_norm(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            anchors, schedule, p = random_geometry(rng)
            theta = random_params(rng, Mode.ESTIMATED_VELOCITY, p)
            # the position columns are the negated unit line-of-sight vectors
            los = design_matrix(theta, anchors, schedule)[:, :2]
            assert np.allclose(np.linalg.norm(los, axis=1), 1.0, atol=1e-12)


class TestGaussNewtonStep:
    def test_zero_step_at_truth(self):
        rng = np.random.default_rng(104)
        sc = benchmark_scenario(rng)
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, rng)
        truth = ParamVector(
            Mode.ESTIMATED_VELOCITY,
            sc.ud.position,
            sc.ud.clock_offset_m,
            sc.ud.clock_drift_mps,
            sc.ud.velocity,
        )
        delta, res = gauss_newton_step(truth, meas, sc.anchors, SolverConfig())
        # residuals carry ~2e8 m clock terms, so the float64 floor is ~1e-7 m
        assert np.linalg.norm(delta) <= 1e-6
        assert res <= 1e-5

    def test_clock_offset_restored_in_one_step(self):
        # The model is linear in the clock offset, so a pure offset error
        # vanishes after a single update.
        rng = np.random.default_rng(105)
        sc = benchmark_scenario(rng)
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, rng)
        start = ParamVector(
            Mode.KNOWN_VELOCITY,
            sc.ud.position,
            sc.ud.clock_offset_m + 1000.0,
            sc.ud.clock_drift_mps,
        )
        config = SolverConfig(known_velocity_mps=sc.ud.velocity)
        delta, _ = gauss_newton_step(start, meas, sc.anchors, config)
        assert delta[2] == pytest.approx(-1000.0, abs=1e-4)
        assert np.linalg.norm(delta[:2]) <= 1e-4


class TestSolve:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_noise_free_recovery(self, mode):
        rng = np.random.default_rng(106)
        for _ in range(10):
            sc = benchmark_scenario(rng)
            quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
            meas = generate(quiet, rng)
            initial = default_initial(mode, sc.ud.position + [40.0, -40.0], meas)
            config = SolverConfig(
                convergence_threshold_m=1e-7,
                known_velocity_mps=sc.ud.velocity if mode is Mode.KNOWN_VELOCITY else None,
            )
            if mode is Mode.STATIONARY:
                # the conventional baseline is biased when the device moves;
                # evaluate it on a stationary truth instead
                still = UdState(sc.ud.position, np.zeros(2), sc.ud.clock_offset, sc.ud.clock_drift)
                quiet = Scenario(sc.anchors, still, sc.schedule, NoiseSpec.uniform(0.0, 4))
                meas = generate(quiet, rng)
                initial = default_initial(mode, sc.ud.position + [40.0, -40.0], meas)
            report = solve(meas, sc.anchors, config, initial)
            assert report.converged
            assert np.linalg.norm(report.estimate.position - sc.ud.position) < 1e-6

    def test_noise_free_velocity_recovery(self):
        rng = np.random.default_rng(107)
        sc = benchmark_scenario(rng, speed_mps=40.0)
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, rng)
        initial = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + [30.0, 30.0], meas)
        report = solve(meas, sc.anchors, SolverConfig(convergence_threshold_m=1e-7), initial)
        assert report.converged
        assert np.linalg.norm(report.estimate.velocity - sc.ud.velocity) < 1e-4

    def test_translation_equivariance(self):
        rng = np.random.default_rng(108)
        sc = benchmark_scenario(rng)
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, rng)
        shift = np.array([1234.0, -987.0])
        shifted_ud = UdState(
            sc.ud.position + shift, sc.ud.velocity, sc.ud.clock_offset, sc.ud.clock_drift
        )
        shifted = Scenario(
            AnchorSet(sc.anchors.positions + shift), shifted_ud, sc.schedule, quiet.noise
        )
        meas_shift = generate(shifted, rng)
        config = SolverConfig(convergence_threshold_m=1e-7)
        a = solve(
            meas, sc.anchors, config,
            default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + [20.0, 20.0], meas),
        )
        b = solve(
            meas_shift, shifted.anchors, config,
            default_initial(
                Mode.ESTIMATED_VELOCITY, shifted_ud.position + [20.0, 20.0], meas_shift
            ),
        )
        assert np.allclose(
            b.estimate.position - shift, a.estimate.position, atol=1e-6
        )

    def test_stationary_equals_known_velocity_zero(self):
        rng = np.random.default_rng(109)
        sc = benchmark_scenario(rng, sigma_m=0.5)
        meas = generate(sc, rng)
        guess = sc.ud.position + [25.0, -25.0]
        config_kv = SolverConfig(known_velocity_mps=np.zeros(2))
        a = solve(meas, sc.anchors, config_kv, default_initial(Mode.KNOWN_VELOCITY, guess, meas))
        b = solve(meas, sc.anchors, SolverConfig(), default_initial(Mode.STATIONARY, guess, meas))
        assert np.array_equal(a.estimate.to_array(), b.estimate.to_array())
        assert a.iterations_used == b.iterations_used

    def test_local_optimality(self):
        # the converged iterate is a local minimum of the weighted SSE
        rng = np.random.default_rng(110)
        sc = benchmark_scenario(rng, sigma_m=0.1)
        meas = generate(sc, rng)
        initial = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + [10.0, 10.0], meas)
        report = solve(meas, sc.anchors, SolverConfig(convergence_threshold_m=1e-7), initial)
        assert report.converged

        def sse(theta_arr):
            theta = ParamVector.from_array(Mode.ESTIMATED_VELOCITY, theta_arr, 2)
            r = meas.stacked - model_h(theta, sc.anchors, meas.schedule)
            w = meas.weights
            return float(r @ (w * r))

        best = report.estimate.to_array()
        center = sse(best)
        for j in range(best.size):
            for sign in (-1.0, 1.0):
                probe = best.copy()
                probe[j] += sign * 1e-3
                assert sse(probe) >= center - 1e-6 * max(center, 1.0)

    def test_insufficient_measurements(self):
        rng = np.random.default_rng(111)
        anchors = AnchorSet(np.array([[0.0, 0.0], [100.0, 0.0]]))
        schedule = ResponseSchedule(np.array([0.01, 0.02]))
        ud = UdState(np.array([30.0, 40.0]), np.array([5.0, 0.0]), 1e-7, 1e-6)
        sc = Scenario(anchors, ud, schedule, NoiseSpec.uniform(0.1, 2))
        meas = generate(sc, rng)
        initial = default_initial(Mode.ESTIMATED_VELOCITY, ud.position + 5.0, meas)
        with pytest.raises(InsufficientMeasurements):
            solve(meas, anchors, SolverConfig(), initial)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(119)
        sc = benchmark_scenario(rng)
        meas = generate(sc, rng)
        est = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + 5.0, meas)
        est.velocity = np.zeros(3)
        three_anchors = AnchorSet(sc.anchors.positions[:3])
        cases = [
            (meas, sc.anchors, SolverConfig(), est),
            (meas, sc.anchors, SolverConfig(),
             default_initial(Mode.ESTIMATED_VELOCITY, np.append(sc.ud.position, 0.0), meas)),
            (meas, sc.anchors, SolverConfig(known_velocity_mps=np.zeros(3)),
             default_initial(Mode.KNOWN_VELOCITY, sc.ud.position, meas)),
            (meas, three_anchors, SolverConfig(),
             default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position, meas)),
        ]
        for case in cases:
            with pytest.raises(DimensionMismatch):
                solve(*case)

    def test_known_velocity_requires_velocity(self):
        rng = np.random.default_rng(112)
        sc = benchmark_scenario(rng)
        meas = generate(sc, rng)
        initial = default_initial(Mode.KNOWN_VELOCITY, sc.ud.position, meas)
        with pytest.raises(ValueError):
            solve(meas, sc.anchors, SolverConfig(), initial)

    def test_non_finite_initial_position_is_reported(self):
        rng = np.random.default_rng(117)
        sc = benchmark_scenario(rng)
        meas = generate(sc, rng)
        for guess in ([np.inf, 0.0], [0.0, np.nan]):
            initial = default_initial(Mode.ESTIMATED_VELOCITY, guess, meas)
            report = solve(meas, sc.anchors, SolverConfig(), initial)
            assert not report.converged
            assert report.iterations_used == 0
            assert report.failure_reason.startswith("NonFiniteIterate")

    def test_non_finite_iterate_stops_the_step(self):
        rng = np.random.default_rng(118)
        sc = benchmark_scenario(rng)
        meas = generate(sc, rng)
        theta = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position, meas)
        theta.clock_offset_m = np.inf
        with pytest.raises(NonFiniteIterate):
            gauss_newton_step(theta, meas, sc.anchors, SolverConfig())

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(113)
        sc = benchmark_scenario(rng, sigma_m=1.0)
        meas = generate(sc, rng)
        initial = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + 50.0, meas)
        report = solve(
            meas, sc.anchors,
            SolverConfig(max_iterations=3, convergence_threshold_m=1e-300),
            initial,
        )
        assert report.iterations_used == 3
        assert not report.converged
        assert len(report.trace) == 3


class TestReport:
    def test_json_fields(self):
        rng = np.random.default_rng(114)
        sc = benchmark_scenario(rng)
        meas = generate(sc, rng)
        initial = default_initial(Mode.ESTIMATED_VELOCITY, sc.ud.position + 10.0, meas)
        report = solve(meas, sc.anchors, SolverConfig(), initial)
        doc = json.loads(report.to_json())
        assert set(doc) == {"mode", "theta", "iterations", "converged", "trace"}
        assert doc["mode"] == "estimated-velocity"
        assert len(doc["theta"]) == 6

    def test_param_round_trip(self):
        rng = np.random.default_rng(115)
        for mode in ALL_MODES:
            theta = random_params(rng, mode, rng.uniform(-100, 100, 2))
            back = ParamVector.from_array(mode, theta.to_array(), 2)
            assert np.array_equal(back.to_array(), theta.to_array())


def seeded_epochs(count=300):
    """Seeded epochs at four noise levels with starts 10 m to 10,000 km out,
    NaN starts and starts on an anchor."""
    radii = (10.0, 50.0, 200.0, 1e4, 1e7)
    for e in range(count):
        rng = np.random.default_rng(1000 + e)
        sc = benchmark_scenario(rng, sigma_m=(0.01, 0.1, 1.0, 5.0)[e % 4])
        meas = generate(sc, rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        start = sc.ud.position + radii[e % 5] * np.array([np.cos(angle), np.sin(angle)])
        if e % 37 == 5:
            start = np.array([np.nan, 0.0])
        if e % 41 == 7:
            start = sc.anchors.positions[e % 4].copy()
        yield e, sc, meas, start


def report_bytes(report):
    text = repr((report.iterations_used, report.converged, report.trace, report.failure_reason))
    return report.estimate.to_array().tobytes() + text.encode()


# SHA-256 over report_bytes of the 1200 solves below, recorded when solve
# iterated on one epoch with its own scalar step.
SOLVE_GOLDEN = "f344c2ce7f6832076ed003c8c34d1ec2775c2c52abc2c3ba3d1dedfbb6258c3f"


def test_solve_golden():
    digest = hashlib.sha256()
    reasons = set()
    for e, sc, meas, start in seeded_epochs():
        for mode in ALL_MODES:
            known = sc.ud.velocity if mode is Mode.KNOWN_VELOCITY else None
            config = SolverConfig(max_iterations=1 + e % 10, known_velocity_mps=known)
            report = solve(meas, sc.anchors, config, default_initial(mode, start, meas))
            reasons.add((report.failure_reason or "").split(":")[0])
            digest.update(report_bytes(report))
    # every way a solve can stop is covered
    assert reasons == {"", "SingularNormalEquations", "NonFiniteIterate", "DegenerateGeometry"}
    assert digest.hexdigest() == SOLVE_GOLDEN


@pytest.mark.parametrize("mode", ALL_MODES)
def test_batch_rows_equal_their_single_epoch_reports(mode):
    # one batch holding converging, budget-limited and failing rows: each row
    # must end exactly as solve leaves its epoch alone
    epochs = list(seeded_epochs())
    config = SolverConfig(max_iterations=6, convergence_threshold_m=0.01)
    reports, initial, velocity = [], [], []
    for _, sc, meas, start in epochs:
        known = sc.ud.velocity if mode is Mode.KNOWN_VELOCITY else np.zeros(2)
        guess = default_initial(mode, start, meas)
        reports.append(solve(meas, sc.anchors, SolverConfig(6, 0.01, known), guess))
        initial.append(guess.to_array())
        velocity.append(known)
    rows = 4 if mode is Mode.ONE_WAY else 8
    out = solve_batch(
        mode,
        np.array([sc.anchors.positions for _, sc, _, _ in epochs]),
        np.array([meas.schedule.delays for _, _, meas, _ in epochs]),
        np.array([meas.stacked[:rows] for _, _, meas, _ in epochs]),
        np.array([meas.weights[:rows] for _, _, meas, _ in epochs]),
        np.array(initial),
        np.array(velocity),
        config.convergence_threshold_m,
        config.max_iterations,
    )
    assert {r.failure_reason is None for r in reports} == {True, False}
    assert {r.converged for r in reports} == {True, False}
    for i, report in enumerate(reports):
        assert out.theta[i].tobytes() == report.estimate.to_array().tobytes(), i
        assert out.iterations[i] == report.iterations_used
        assert out.converged[i] == report.converged
        assert out.traces[i] == report.trace
        assert out.failure_reason(i) == report.failure_reason
