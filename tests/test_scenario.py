import numpy as np
import pytest

from toaloc.scenario import (
    BENCHMARK_ANCHORS_M,
    AnchorSet,
    NoiseSpec,
    ResponseSchedule,
    Scenario,
    benchmark_scenario,
    ppm_to_drift,
)


class TestTypes:
    def test_coincident_anchors_rejected(self):
        with pytest.raises(ValueError):
            AnchorSet(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_schedule_positive(self):
        with pytest.raises(ValueError):
            ResponseSchedule(np.array([0.0, 0.01]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(np.array([-0.1]), 0.1)


class TestBenchmarkScenario:
    def test_deterministic(self):
        a = benchmark_scenario(np.random.default_rng(11))
        b = benchmark_scenario(np.random.default_rng(11))
        assert np.array_equal(a.ud.position, b.ud.position)
        assert np.array_equal(a.ud.velocity, b.ud.velocity)
        assert a.ud.clock_offset == b.ud.clock_offset

    def test_anchor_coordinates(self):
        sc = benchmark_scenario(np.random.default_rng(0))
        assert np.array_equal(sc.anchors.positions, np.asarray(BENCHMARK_ANCHORS_M))

    def test_schedule_is_incremental_10ms(self):
        sc = benchmark_scenario(np.random.default_rng(0))
        assert np.allclose(sc.schedule.delays, [0.01, 0.02, 0.03, 0.04])

    def test_speed_mean(self):
        rng = np.random.default_rng(12)
        speeds = np.array(
            [np.linalg.norm(benchmark_scenario(rng).ud.velocity) for _ in range(100_000)]
        )
        assert abs(speeds.mean() - 25.0) < 0.5

    def test_draw_supports(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            sc = benchmark_scenario(rng)
            assert np.all(np.abs(sc.ud.position) <= 250.0)
            assert -1.0 <= sc.ud.clock_offset <= 1.0
            assert abs(sc.ud.clock_drift) <= ppm_to_drift(10.0)
            assert np.linalg.norm(sc.ud.velocity) <= 50.0

    def test_fixed_speed_override(self):
        sc = benchmark_scenario(np.random.default_rng(14), speed_mps=30.0)
        assert np.linalg.norm(sc.ud.velocity) == pytest.approx(30.0)

    def test_fixed_parts_shared_read_only(self):
        rng = np.random.default_rng(15)
        a, b = benchmark_scenario(rng, sigma_m=0.3), benchmark_scenario(rng, sigma_m=0.3)
        assert a.anchors is b.anchors and a.schedule is b.schedule and a.noise is b.noise
        assert benchmark_scenario(rng, sigma_m=0.4).noise.sigma_response == 0.4
        for array in (a.anchors.positions, a.schedule.delays, a.noise.sigma_request):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestSerialization:
    def test_json_round_trip(self):
        sc = benchmark_scenario(np.random.default_rng(15), sigma_m=0.5)
        back = Scenario.from_json(sc.to_json())
        assert np.allclose(back.anchors.positions, sc.anchors.positions)
        assert np.allclose(back.ud.position, sc.ud.position)
        assert np.allclose(back.ud.velocity, sc.ud.velocity)
        assert back.ud.clock_offset == pytest.approx(sc.ud.clock_offset, rel=1e-15)
        assert back.ud.clock_drift == pytest.approx(sc.ud.clock_drift, rel=1e-15)
        assert np.allclose(back.schedule.delays, sc.schedule.delays)
        assert np.allclose(back.noise.sigma_request, sc.noise.sigma_request)
        assert back.noise.sigma_response == sc.noise.sigma_response

    def test_json_field_names(self):
        import json

        doc = json.loads(benchmark_scenario(np.random.default_rng(16)).to_json())
        assert set(doc) >= {"anchors", "ud", "schedule_ms", "noise_m"}
