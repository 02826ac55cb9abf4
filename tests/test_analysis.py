import json

import numpy as np
import pytest

from toaloc.analysis import (
    check_known_velocity_advantage,
    check_two_way_advantage,
    fim,
    position_clock_crlb,
    stationary_assumption_bias,
    velocity_mismatch_bias,
)
from toaloc.estimator import (
    Mode,
    ParamVector,
    SolverConfig,
    default_initial,
    model_h,
    solve,
)
from toaloc.linalg import SingularMatrix, is_positive_semidefinite
from toaloc.measurement import generate, weight_vector
from toaloc.scenario import (
    AnchorSet,
    NoiseSpec,
    ResponseSchedule,
    Scenario,
    UdState,
    benchmark_scenario,
)


def random_case(rng, equal_delays=False):
    m = int(rng.integers(4, 8))
    anchors = AnchorSet(rng.uniform(-400, 400, (m, 2)))
    if equal_delays:
        schedule = ResponseSchedule(np.full(m, float(rng.uniform(0.005, 0.05))))
    else:
        schedule = ResponseSchedule(np.sort(rng.uniform(0.002, 0.08, m)))
    while True:
        p = rng.uniform(-250, 250, 2)
        if np.min(np.linalg.norm(anchors.positions - p, axis=1)) > 10.0:
            break
    speed = rng.uniform(0, 50)
    ang = rng.uniform(0, 2 * np.pi)
    ud = UdState(
        p,
        speed * np.array([np.cos(ang), np.sin(ang)]),
        float(rng.uniform(-1e-6, 1e-6)),
        float(rng.uniform(-1e-5, 1e-5)),
    )
    noise = NoiseSpec.uniform(float(rng.uniform(0.05, 2.0)), m)
    return anchors, ud, schedule, noise


def fd_fim(mode, anchors, ud, schedule, noise, step=1e-4):
    """Finite-difference J'WJ oracle built from the measurement model alone."""
    theta = ParamVector(
        mode=mode,
        position=ud.position,
        clock_offset_m=ud.clock_offset_m,
        clock_drift_mps=None if mode is Mode.ONE_WAY else ud.clock_drift_mps,
        velocity=ud.velocity if mode is Mode.ESTIMATED_VELOCITY else None,
    )
    base = theta.to_array()
    kv = ud.velocity if mode is Mode.KNOWN_VELOCITY else None
    cols = []
    for j in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        f_hi = model_h(ParamVector.from_array(mode, hi, 2), anchors, schedule, kv)
        f_lo = model_h(ParamVector.from_array(mode, lo, 2), anchors, schedule, kv)
        cols.append((f_hi - f_lo) / (2.0 * step))
    jac = np.column_stack(cols)
    w = weight_vector(noise)
    if mode is Mode.ONE_WAY:
        w = w[: anchors.count]
    return jac.T @ (jac * w[:, None])


class TestFim:
    @pytest.mark.parametrize(
        "mode", [Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY, Mode.ONE_WAY]
    )
    def test_matches_finite_difference_oracle(self, mode):
        rng = np.random.default_rng(200)
        for _ in range(20):
            anchors, ud, schedule, noise = random_case(rng)
            # keep clock states near zero so the FD oracle stays accurate
            ud = UdState(ud.position, ud.velocity, 1e-9, 1e-9)
            report = fim(mode, anchors, ud, schedule, noise)
            oracle = fd_fim(mode, anchors, ud, schedule, noise)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(report.fim - oracle)) <= 1e-6 * scale

    def test_sigma_scaling(self):
        # CRLB scales as sigma^2: doubling sigma quadruples every diagonal
        rng = np.random.default_rng(201)
        anchors, ud, schedule, _ = random_case(rng)
        a = fim(Mode.ESTIMATED_VELOCITY, anchors, ud, schedule, NoiseSpec.uniform(0.1, anchors.count))
        b = fim(Mode.ESTIMATED_VELOCITY, anchors, ud, schedule, NoiseSpec.uniform(0.2, anchors.count))
        assert np.allclose(b.crlb_diag, 4.0 * a.crlb_diag, rtol=1e-10)

    def test_fim_is_psd(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            anchors, ud, schedule, noise = random_case(rng)
            for mode in [Mode.KNOWN_VELOCITY, Mode.ESTIMATED_VELOCITY, Mode.ONE_WAY]:
                report = fim(mode, anchors, ud, schedule, noise)
                assert is_positive_semidefinite(report.fim, 1e-9)
                assert np.all(report.crlb_diag > 0)

    def test_summary_fields(self):
        rng = np.random.default_rng(203)
        anchors, ud, schedule, noise = random_case(rng)
        report = fim(Mode.KNOWN_VELOCITY, anchors, ud, schedule, noise)
        assert report.position_crlb_rss == pytest.approx(
            np.sqrt(report.crlb_diag[0] + report.crlb_diag[1])
        )
        assert report.clock_crlb == pytest.approx(np.sqrt(report.crlb_diag[2]))
        doc = json.loads(report.to_json())
        assert set(doc) == {
            "mode", "fim", "crlb_diag", "position_crlb_rss_m", "clock_crlb_m",
        }


class TestKnownVelocityAdvantage:
    def test_holds_on_random_geometries(self):
        rng = np.random.default_rng(204)
        for _ in range(200):
            anchors, ud, schedule, noise = random_case(rng)
            out = check_known_velocity_advantage(anchors, ud, schedule, noise)
            assert out["holds"]
            assert out["mechanism_psd"]
            assert np.all(out["margins"] >= 0)

    def test_strict_on_benchmark(self):
        sc = benchmark_scenario(np.random.default_rng(205))
        out = check_known_velocity_advantage(sc.anchors, sc.ud, sc.schedule, sc.noise)
        assert np.all(out["margins"] > 0)


class TestTwoWayAdvantage:
    def test_holds_on_random_geometries(self):
        rng = np.random.default_rng(206)
        for _ in range(200):
            anchors, ud, schedule, noise = random_case(rng)
            out = check_two_way_advantage(anchors, ud, schedule, noise)
            assert out["holds"]
            assert out["d_psd"]

    def test_equality_at_equal_delays(self):
        rng = np.random.default_rng(207)
        for _ in range(50):
            anchors, ud, schedule, noise = random_case(rng, equal_delays=True)
            out = check_two_way_advantage(anchors, ud, schedule, noise)
            assert out["equality"]
            assert np.max(np.abs(out["margins"])) <= 1e-9 * np.max(
                fim(Mode.ONE_WAY, anchors, ud, schedule, noise).crlb_diag
            )
            # the response half contributes no net information at equal delays
            assert np.max(np.abs(out["d_matrix"])) <= 1e-9

    def test_strict_on_distinct_delays(self):
        sc = benchmark_scenario(np.random.default_rng(208))
        out = check_two_way_advantage(sc.anchors, sc.ud, sc.schedule, sc.noise)
        assert not out["equality"]
        assert np.all(out["margins"] > 0)


class TestBiasPredictors:
    def test_zero_when_assumed_velocity_is_true(self):
        rng = np.random.default_rng(209)
        anchors, ud, schedule, noise = random_case(rng)
        report = velocity_mismatch_bias(anchors, ud, schedule, noise, ud.velocity)
        assert np.max(np.abs(report.bias)) <= 1e-9

    def test_stationary_is_zero_velocity_special_case(self):
        rng = np.random.default_rng(210)
        for _ in range(10):
            anchors, ud, schedule, noise = random_case(rng)
            a = stationary_assumption_bias(anchors, ud, schedule, noise)
            b = velocity_mismatch_bias(anchors, ud, schedule, noise, np.zeros(2))
            assert np.max(np.abs(a.bias - b.bias)) <= 1e-12
            assert a.predicted_rmse_position == pytest.approx(
                b.predicted_rmse_position, rel=1e-12
            )

    def test_stationary_bias_zero_for_static_device(self):
        rng = np.random.default_rng(211)
        anchors, ud, schedule, noise = random_case(rng)
        still = UdState(ud.position, np.zeros(2), ud.clock_offset, ud.clock_drift)
        report = stationary_assumption_bias(anchors, still, schedule, noise)
        assert np.max(np.abs(report.bias)) <= 1e-12
        # with no mismatch the prediction reduces to the pure-noise CRLB RMSE
        crlb = fim(Mode.KNOWN_VELOCITY, anchors, still, schedule, noise).crlb_diag
        assert report.predicted_rmse_position == pytest.approx(
            np.sqrt(crlb[0] + crlb[1]), rel=1e-9
        )

    def test_monotone_in_speed(self):
        rng = np.random.default_rng(212)
        sc = benchmark_scenario(rng, sigma_m=0.1)
        direction = np.array([np.cos(0.7), np.sin(0.7)])
        preds = []
        for speed in [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]:
            ud = UdState(
                sc.ud.position, speed * direction, sc.ud.clock_offset, sc.ud.clock_drift
            )
            preds.append(
                stationary_assumption_bias(
                    sc.anchors, ud, sc.schedule, sc.noise
                ).predicted_rmse_position
            )
        assert all(b > a for a, b in zip(preds, preds[1:]))

    def test_prediction_matches_small_monte_carlo(self):
        # empirical RMSE of the stationary baseline vs the analytic predictor
        rng = np.random.default_rng(213)
        sc = benchmark_scenario(rng, sigma_m=0.1, speed_mps=40.0)
        pred = stationary_assumption_bias(sc.anchors, sc.ud, sc.schedule, sc.noise)
        errors = []
        signed = []
        for _ in range(3000):
            meas = generate(sc, rng)
            initial = default_initial(Mode.STATIONARY, sc.ud.position + [30.0, -30.0], meas)
            rep = solve(meas, sc.anchors, SolverConfig(), initial)
            assert rep.converged
            err = rep.estimate.position - sc.ud.position
            errors.append(err @ err)
            signed.append(err)
        empirical_rmse = float(np.sqrt(np.mean(errors)))
        assert empirical_rmse == pytest.approx(pred.predicted_rmse_position, rel=0.05)
        # the mean error equals the negated bias vector (sign convention)
        mean_err = np.mean(signed, axis=0)
        assert np.allclose(mean_err, -pred.bias[:2], atol=4 * 0.1 / np.sqrt(3000))

    def test_report_json(self):
        rng = np.random.default_rng(214)
        anchors, ud, schedule, noise = random_case(rng)
        doc = json.loads(
            stationary_assumption_bias(anchors, ud, schedule, noise).to_json()
        )
        assert set(doc) == {
            "bias",
            "predicted_rmse_total_m",
            "predicted_rmse_position_m",
            "predicted_rmse_clock_m",
        }


class TestPositionClockCrlb:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_rows_equal_fim(self, mode):
        # one stack over random geometries of one anchor count: every row
        # must carry the bits fim reports for its geometry alone
        rng = np.random.default_rng(300)
        cases = []
        while len(cases) < 60:
            case = random_case(rng)
            if case[0].count == 5:
                cases.append(case)
        pos, clk = position_clock_crlb(
            mode,
            np.array([a.positions for a, _, _, _ in cases]),
            np.array([s.delays for _, _, s, _ in cases]),
            np.array([ud.position for _, ud, _, _ in cases]),
            np.array([ud.velocity for _, ud, _, _ in cases]),
            np.array([weight_vector(noise) for _, _, _, noise in cases]),
        )
        for i, case in enumerate(cases):
            report = fim(mode, *case)
            assert pos[i] == report.position_crlb_rss and clk[i] == report.clock_crlb

    def test_singular_row_raises_as_fim(self):
        # a device on the line of collinear anchors cannot be placed across it
        anchors = AnchorSet(np.array([[-300.0, 0.0], [-100.0, 0.0], [100.0, 0.0], [300.0, 0.0]]))
        ud = UdState(np.array([0.0, 0.0]), np.zeros(2), 0.0, 0.0)
        schedule = ResponseSchedule(0.01 * np.arange(1, 5))
        noise = NoiseSpec.uniform(0.1, 4)
        with pytest.raises(SingularMatrix) as single:
            fim(Mode.KNOWN_VELOCITY, anchors, ud, schedule, noise)
        with pytest.raises(SingularMatrix) as batch:
            position_clock_crlb(
                Mode.KNOWN_VELOCITY, anchors.positions[None], schedule.delays[None],
                ud.position[None], ud.velocity[None], weight_vector(noise)[None],
            )
        assert str(batch.value) == str(single.value)
