import hashlib
import json

import numpy as np
import pytest

from toaloc.measurement import (
    DegenerateGeometry,
    InvalidMeasurements,
    InvalidNoise,
    ToaMeasurementSet,
    forward,
    generate,
    weight_vector,
)
from toaloc.scenario import (
    SPEED_OF_LIGHT,
    NoiseSpec,
    ResponseSchedule,
    Scenario,
    UdState,
    benchmark_scenario,
)

C = SPEED_OF_LIGHT


def make_state(p=(0.0, 0.0), v=(0.0, 0.0), b=0.0, w=0.0):
    return UdState(np.asarray(p, float), np.asarray(v, float), b, w)


def rows(anchor, state, delta_t=0.01):
    """forward's request and response rows for one anchor."""
    h = forward(
        np.atleast_2d(np.asarray(anchor, float)), np.array([delta_t]), state.position,
        state.velocity, state.clock_offset_m, state.clock_drift_mps,
    )
    return h[0], h[1]


def model_of(sc):
    ud = sc.ud
    return forward(
        sc.anchors.positions, sc.schedule.delays, ud.position, ud.velocity,
        ud.clock_offset_m, ud.clock_drift_mps,
    )


class TestRequestModel:
    def test_zero_clock(self):
        assert rows([300.0, 0.0], make_state())[0] == pytest.approx(300.0)

    def test_clock_offset_in_range_units(self):
        got = rows([300.0, 0.0], make_state(b=1e-6))[0]
        assert got == pytest.approx(300.0 - C * 1e-6, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            anchor = rng.uniform(-300, 300, 2)
            state = make_state(p=rng.uniform(-200, 200, 2), b=rng.uniform(-1, 1))
            shift = rng.uniform(-1000, 1000, 2)
            shifted = make_state(p=state.position + shift, b=state.clock_offset)
            assert rows(anchor + shift, shifted)[0] == pytest.approx(
                rows(anchor, state)[0], rel=1e-12
            )

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateGeometry):
            rows([1.0, 2.0], make_state(p=(1.0, 2.0)))


class TestResponseModel:
    def test_stationary_zero_clock(self):
        assert rows([300.0, 0.0], make_state())[1] == pytest.approx(300.0)

    def test_direct_evaluation(self):
        got = rows([300.0, 0.0], make_state(v=(10.0, 0.0), w=1e-5), 0.01)[1]
        assert got == pytest.approx(299.9 + C * 1e-5 * 0.01, rel=1e-12)

    def test_round_trip_cancels_geometry(self):
        # stationary, zero drift: response - request = 2*c*b
        request, response = rows([200.0, 100.0], make_state(p=(12.0, -7.0), b=3e-7), 0.02)
        assert response - request == pytest.approx(2.0 * C * 3e-7, rel=1e-12)

    def test_nonpositive_delay_rejected(self):
        # forward trusts its delays: a zero delay is stopped where measurements are read
        meas = generate(benchmark_scenario(np.random.default_rng(15)), np.random.default_rng(0))
        doc = json.loads(meas.to_json())
        doc["delta_t_s"][1] = 0.0
        with pytest.raises(ValueError):
            ToaMeasurementSet.from_json(json.dumps(doc))


class TestBuildWeights:
    def test_unit_sigma_gives_identity(self):
        assert np.array_equal(weight_vector(NoiseSpec.uniform(1.0, 3)), np.ones(6))

    def test_inverse_variance_entries(self):
        w = weight_vector(NoiseSpec(np.array([0.5, 1.0, 1.0]), 1.0))
        assert w[0] == pytest.approx(4.0)
        assert np.allclose(w[1:], 1.0)

    def test_zero_sigma_rejected(self):
        with pytest.raises(InvalidNoise):
            weight_vector(NoiseSpec(np.array([0.0, 1.0]), 1.0))

    def test_diagonal_positive_for_random_specs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            spec = NoiseSpec(rng.uniform(0.01, 5.0, m), float(rng.uniform(0.01, 5.0)))
            w = weight_vector(spec)
            assert w.shape == (2 * m,)
            assert np.all(w > 0)


class TestGenerate:
    def test_zero_noise_is_exact(self):
        sc = benchmark_scenario(np.random.default_rng(2))
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, np.random.default_rng(0))
        assert np.array_equal(meas.stacked, model_of(sc))
        assert np.array_equal(meas.weights, np.ones(8))

    def test_deterministic(self):
        sc = benchmark_scenario(np.random.default_rng(3), sigma_m=0.3)
        a = generate(sc, np.random.default_rng(77))
        b = generate(sc, np.random.default_rng(77))
        assert np.array_equal(a.request, b.request)
        assert np.array_equal(a.response, b.response)

    def test_noise_standard_deviation(self):
        sc = benchmark_scenario(np.random.default_rng(4), sigma_m=1.0)
        model = model_of(sc)
        rng = np.random.default_rng(5)
        deviations = np.concatenate(
            [generate(sc, rng).stacked - model for _ in range(12_500)]
        )
        assert 0.99 <= deviations.std() <= 1.01

    def test_request_half_independent_of_schedule(self):
        sc = benchmark_scenario(np.random.default_rng(6), sigma_m=0.2)
        equal = Scenario(
            sc.anchors, sc.ud, ResponseSchedule(np.full(4, 0.01)), sc.noise
        )
        a = generate(sc, np.random.default_rng(8))
        b = generate(equal, np.random.default_rng(8))
        assert np.array_equal(a.request, b.request)

    def test_matches_scalar_models(self):
        # per-anchor evaluation of the two measurement equations
        sc = benchmark_scenario(np.random.default_rng(7))
        quiet = Scenario(sc.anchors, sc.ud, sc.schedule, NoiseSpec.uniform(0.0, 4))
        meas = generate(quiet, np.random.default_rng(0))
        ud = sc.ud
        for i in range(4):
            anchor, dt = sc.anchors.positions[i], sc.schedule.delays[i]
            request = np.linalg.norm(anchor - ud.position) - ud.clock_offset_m
            response = (
                np.linalg.norm(anchor - ud.position - ud.velocity * dt)
                + ud.clock_offset_m + ud.clock_drift_mps * dt
            )
            assert meas.request[i] == pytest.approx(request, rel=1e-12)
            assert meas.response[i] == pytest.approx(response, rel=1e-12)


class TestValidation:
    def test_non_finite_measurements_rejected(self):
        meas = generate(benchmark_scenario(np.random.default_rng(12)), np.random.default_rng(0))
        for field, bad in (("request", np.nan), ("response", np.inf)):
            values = getattr(meas, field).copy()
            values[1] = bad
            with pytest.raises(InvalidMeasurements):
                ToaMeasurementSet(
                    request=values if field == "request" else meas.request,
                    response=values if field == "response" else meas.response,
                    schedule=meas.schedule,
                    weights=meas.weights,
                )

    def test_non_finite_delay_rejected(self):
        meas = generate(benchmark_scenario(np.random.default_rng(13)), np.random.default_rng(0))
        schedule = ResponseSchedule(meas.schedule.delays.copy())
        schedule.delays[2] = np.nan  # arrays stay writable inside frozen dataclasses
        with pytest.raises(InvalidMeasurements):
            ToaMeasurementSet(meas.request, meas.response, schedule, meas.weights)

    def test_dense_weight_matrix_rejected(self):
        meas = generate(benchmark_scenario(np.random.default_rng(16)), np.random.default_rng(0))
        with pytest.raises(InvalidMeasurements):
            ToaMeasurementSet(meas.request, meas.response, meas.schedule, np.diag(meas.weights))

    def test_non_positive_weight_rejected(self):
        meas = generate(benchmark_scenario(np.random.default_rng(17)), np.random.default_rng(0))
        weights = meas.weights.copy()
        weights[5] = 0.0
        with pytest.raises(InvalidMeasurements):
            ToaMeasurementSet(meas.request, meas.response, meas.schedule, weights)

    def test_non_finite_json_rejected(self):
        meas = generate(benchmark_scenario(np.random.default_rng(14)), np.random.default_rng(0))
        doc = json.loads(meas.to_json())
        doc["request_m"][0] = float("nan")
        with pytest.raises(InvalidMeasurements):
            ToaMeasurementSet.from_json(json.dumps(doc))


class TestLayout:
    def test_halves_are_views_of_stacked(self):
        meas = generate(benchmark_scenario(np.random.default_rng(18)), np.random.default_rng(0))
        assert np.shares_memory(meas.request, meas.stacked)
        assert np.shares_memory(meas.response, meas.stacked)
        meas.response[0] += 1.0
        assert meas.stacked[meas.count] == meas.response[0]


# generate(...).to_json() of the seeded epoch below, recorded from the dense
# weight-matrix layout; the sigmas are derived from the stored weights
GOLDEN_JSON = (
    '{"request_m": [-60856563.523271956, -60856562.88743685, -60856312.95466318, '
    '-60856313.45283763], "response_m": [60857176.524224006, 60857149.27829727, '
    '60857370.74245805, 60857341.83927253], "delta_t_s": [0.01, 0.02, 0.03, 0.04], '
    '"sigma_m": {"request": [0.1, 0.2, 0.3, 0.6999999999999998], "response": 0.25}}'
)


class TestSerialization:
    def test_json_round_trip(self):
        sc = benchmark_scenario(np.random.default_rng(9), sigma_m=0.4)
        meas = generate(sc, np.random.default_rng(10))
        back = ToaMeasurementSet.from_json(meas.to_json())
        assert np.allclose(back.request, meas.request)
        assert np.allclose(back.response, meas.response)
        assert np.allclose(back.schedule.delays, meas.schedule.delays)
        assert np.allclose(back.weights, meas.weights)

    def test_json_field_names(self):
        sc = benchmark_scenario(np.random.default_rng(11))
        doc = json.loads(generate(sc, np.random.default_rng(0)).to_json())
        assert set(doc) == {"request_m", "response_m", "delta_t_s", "sigma_m"}

    def test_json_matches_golden(self):
        sc = benchmark_scenario(np.random.default_rng(11))
        noise = NoiseSpec(np.array([0.1, 0.2, 0.3, 0.7]), 0.25)
        sc = Scenario(sc.anchors, sc.ud, sc.schedule, noise)
        text = generate(sc, np.random.default_rng(0)).to_json()
        assert text == json.dumps(json.loads(GOLDEN_JSON), indent=2)


class TestBatchedForward:
    @pytest.mark.parametrize(
        "layout",
        [
            {"response": True, "velocity_columns": False},
            {"response": True, "velocity_columns": True},
            {"response": False, "velocity_columns": False},
        ],
        ids=["known", "estimated", "one-way"],
    )
    def test_rows_equal_lone_epochs(self, layout):
        rng = np.random.default_rng(21)
        t = 40
        anchors = rng.uniform(-400, 400, (t, 5, 2))
        delays = np.sort(rng.uniform(0.002, 0.08, (t, 5)), axis=1)
        position = rng.uniform(-250, 250, (t, 2))
        velocity = rng.uniform(-50, 50, (t, 2))
        offset = rng.uniform(-1e3, 1e3, (t, 1))
        drift = rng.uniform(-1e2, 1e2, (t, 1))
        h, g = forward(anchors, delays, position, velocity, offset, drift, jacobian=True, **layout)
        # a second call reusing g and a precomputed v*dt gives the same bits
        shift = velocity[:, None, :] * delays[:, :, None]
        h2, g2 = forward(
            anchors, delays, position, velocity, offset, drift, jacobian=True, shift=shift,
            g=g.copy(), **layout,
        )
        assert h2.tobytes() == h.tobytes() and g2.tobytes() == g.tobytes()
        for i in range(t):
            h1, g1 = forward(
                anchors[i], delays[i], position[i], velocity[i], float(offset[i, 0]),
                float(drift[i, 0]), jacobian=True, **layout,
            )
            assert h[i].tobytes() == h1.tobytes() and g[i].tobytes() == g1.tobytes()
            plain = forward(
                anchors[i], delays[i], position[i], velocity[i], float(offset[i, 0]),
                float(drift[i, 0]), response=layout["response"],
            )
            assert plain.tobytes() == h1.tobytes()

    def test_degenerate_rows_are_marked(self):
        anchors = np.array([[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]] * 3)
        position = np.array([[5.0, 5.0], [10.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(DegenerateGeometry) as exc:
            forward(anchors, np.full((3, 3), 0.01), position, np.zeros((3, 2)), 0.0, 0.0)
        assert exc.value.rows.tolist() == [False, True, False]


def one_row_draw_digest(draws: int = 500) -> str:
    """SHA-256 over seeded benchmark_scenario + generate draws: each draw's
    truth, schedule, sigmas, measurements, weights and the generator's next
    double (which pins how many variates the draw consumed)."""
    sha = hashlib.sha256()
    for i in range(draws):
        sigma = (0.01, 5.0)[i % 2]
        speed = (None, 30.0)[i // 2 % 2]
        step = (0.010, 0.005)[i // 4 % 2]
        rng = np.random.default_rng(1000 + i)
        sc = benchmark_scenario(rng, sigma_m=sigma, speed_mps=speed, delay_step_s=step)
        meas = generate(sc, rng)
        ud = sc.ud
        for array in (
            ud.position, ud.velocity, np.array([ud.clock_offset, ud.clock_drift]),
            sc.schedule.delays, sc.noise.sigma_request, np.array([sc.noise.sigma_response]),
            meas.stacked, meas.weights, np.array([rng.random()]),
        ):
            sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


# recorded when benchmark_scenario and generate drew through scalar uniform
# and normal calls, before the Monte-Carlo block drew raw variates
ONE_ROW_DRAW_GOLDEN = "d78216eac7961971a0a912f3f7d7f919ea14b0f21751cd0f3c4b928d595cda82"


def test_one_row_draws_match_golden():
    assert one_row_draw_digest() == ONE_ROW_DRAW_GOLDEN
