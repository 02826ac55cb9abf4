"""Ground-truth scenario types: anchor geometry, device kinematics and clock.

Unit conventions used throughout the package:

* positions and velocities in meters and m/s
* clock offset stored in seconds here, converted to range-equivalent
  meters (c * b) at the measurement/estimation boundary
* clock drift stored dimensionless (s/s); configuration inputs use ppm
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Canonical 2D benchmark geometry: four anchors on the side midpoints of a
# 600 m x 600 m square.
BENCHMARK_ANCHORS_M = (
    (-300.0, -300.0),
    (-300.0, 300.0),
    (300.0, 300.0),
    (300.0, -300.0),
)


def ppm_to_drift(ppm: float) -> float:
    """Clock drift in s/s from parts-per-million."""
    return ppm * 1e-6


def require_distinct(anchors: np.ndarray) -> None:
    """Raise ValueError("two anchors coincide") when any set of anchors in a
    (..., M, N) stack holds two at zero distance."""
    first, second = np.triu_indices(anchors.shape[-2], 1)
    d = anchors[..., first, :] - anchors[..., second, :]
    if (np.add.reduce(d * d, axis=-1) == 0.0).any():  # a zero np.linalg.norm
        raise ValueError("two anchors coincide")


@dataclass(frozen=True)
class AnchorSet:
    """Known anchor positions, shape (M, N) with N in {2, 3}."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3) or not pos.size:
            raise ValueError(f"anchor positions must be (M, 2) or (M, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("anchor positions must be finite")
        require_distinct(pos)
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def n_dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class UdState:
    """User-device kinematic and clock state at one instant."""

    position: np.ndarray  # (N,) m
    velocity: np.ndarray  # (N,) m/s
    clock_offset: float  # s
    clock_drift: float  # s/s

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        if pos.shape != vel.shape or pos.ndim != 1:
            raise ValueError("position and velocity must be 1-D vectors of equal length")
        if not (
            np.all(np.isfinite(pos))
            and np.all(np.isfinite(vel))
            and np.isfinite(self.clock_offset)
            and np.isfinite(self.clock_drift)
        ):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @property
    def clock_offset_m(self) -> float:
        """Clock offset in range-equivalent meters (c * b)."""
        return SPEED_OF_LIGHT * self.clock_offset

    @property
    def clock_drift_mps(self) -> float:
        """Clock drift in range-equivalent m/s (c * omega)."""
        return SPEED_OF_LIGHT * self.clock_drift


@dataclass(frozen=True)
class ResponseSchedule:
    """Per-anchor intervals from device request transmission to response reception."""

    delays: np.ndarray  # (M,) s

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("delays must be a non-empty 1-D array")
        if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
            raise ValueError("delays must be finite and positive")
        object.__setattr__(self, "delays", d)


@dataclass(frozen=True)
class NoiseSpec:
    """Range-equivalent noise standard deviations in meters.

    Zero sigmas are accepted so that exact, noise-free measurement sets can
    be synthesized; weights require strictly positive sigmas.
    """

    sigma_request: np.ndarray  # (M,) m, per anchor
    sigma_response: float  # m, shared by all response measurements

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.sigma_request, dtype=float))
        if s.ndim != 1 or np.any(s < 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("request sigmas must be a vector, finite and non-negative")
        if self.sigma_response < 0.0 or not np.isfinite(self.sigma_response):
            raise ValueError("response sigma must be finite and non-negative")
        object.__setattr__(self, "sigma_request", s)
        object.__setattr__(self, "sigma_response", float(self.sigma_response))

    @classmethod
    def uniform(cls, sigma_m: float, m: int) -> "NoiseSpec":
        return cls(np.full(m, float(sigma_m)), float(sigma_m))


@dataclass(frozen=True)
class Scenario:
    """Anchors, true device state, response schedule, and noise levels."""

    anchors: AnchorSet
    ud: UdState
    schedule: ResponseSchedule
    noise: NoiseSpec

    def __post_init__(self):
        if self.schedule.delays.size != self.anchors.count:
            raise ValueError("schedule length must match anchor count")
        if self.noise.sigma_request.size != self.anchors.count:
            raise ValueError("noise spec length must match anchor count")
        if self.ud.position.size != self.anchors.n_dim:
            raise ValueError("device state dimension must match anchors")

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "anchors": self.anchors.positions.tolist(),
            "ud": {
                "position_m": self.ud.position.tolist(),
                "velocity_mps": self.ud.velocity.tolist(),
                "clock_offset_s": self.ud.clock_offset,
                "clock_drift": self.ud.clock_drift,
            },
            "schedule_ms": (self.schedule.delays * 1e3).tolist(),
            "noise_m": {
                "request": self.noise.sigma_request.tolist(),
                "response": self.noise.sigma_response,
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        doc = json.loads(text)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        ud = doc["ud"]
        return cls(
            anchors=AnchorSet(np.asarray(doc["anchors"], dtype=float)),
            ud=UdState(
                position=np.asarray(ud["position_m"], dtype=float),
                velocity=np.asarray(ud["velocity_mps"], dtype=float),
                clock_offset=float(ud["clock_offset_s"]),
                clock_drift=float(ud["clock_drift"]),
            ),
            schedule=ResponseSchedule(np.asarray(doc["schedule_ms"], dtype=float) * 1e-3),
            noise=NoiseSpec(
                np.asarray(doc["noise_m"]["request"], dtype=float),
                float(doc["noise_m"]["response"]),
            ),
        )


@lru_cache(maxsize=64)
def benchmark_parts(sigma_m: float, delay_step_s: float = 0.010):
    """The benchmark's anchors, schedule (anchor #i responds after i * delay_step_s
    seconds) and noise, shared by every draw: validated once, read-only."""
    anchors = AnchorSet(np.array(BENCHMARK_ANCHORS_M))
    m = anchors.count
    schedule = ResponseSchedule(delay_step_s * np.arange(1, m + 1))
    noise = NoiseSpec.uniform(sigma_m, m)
    for array in (anchors.positions, schedule.delays, noise.sigma_request):
        array.flags.writeable = False
    return anchors, schedule, noise


# Generator.uniform(low, high) maps a raw double u to low + (high - low) * u: the
# lows and spans of position (x, y), clock offset (s), drift (ppm) and speed (m/s)
_STATE_LOW = np.array([-250.0, -250.0, -1.0, -10.0, 0.0])
_STATE_SPAN = np.array([250.0, 250.0, 1.0, 10.0, 50.0]) - _STATE_LOW


def direction(u) -> np.ndarray:
    """Unit vectors at the angles Generator.uniform(0, 2*pi) draws as the raw
    doubles u, on a new last axis."""
    angle = 2.0 * np.pi * np.asarray(u)  # uniform's 0 + 2*pi*u: adding 0 changes no bit
    out = np.empty(angle.shape + (2,))
    np.cos(angle, out=out[..., 0])
    np.sin(angle, out=out[..., 1])
    return out


def benchmark_states(u: np.ndarray, speed_mps: float | None = None):
    """Device states of the benchmark distribution from raw U[0, 1) doubles, u
    (..., 6) in benchmark_scenario's draw order, bit for bit: position and
    velocity (..., 2), clock offset (...) in s and clock drift (...) in s/s."""
    v = _STATE_LOW + _STATE_SPAN * u[..., :5]
    speed = v[..., 4:] if speed_mps is None else float(speed_mps)
    velocity = speed * direction(u[..., 5])
    return v[..., :2], velocity, v[..., 2], ppm_to_drift(v[..., 3])


def benchmark_scenario(
    rng: np.random.Generator,
    sigma_m: float = 0.1,
    speed_mps: float | None = None,
    delay_step_s: float = 0.010,
) -> Scenario:
    """Draw a random trial from the canonical square benchmark geometry.

    The device position is uniform in the (+-250, +-250) m square, clock
    offset ~ U(-1, 1) s, clock drift ~ U(-10, 10) ppm, speed ~ U(0, 50) m/s
    (or fixed via speed_mps) with direction angle ~ U(0, 2*pi). Anchor #i
    responds after i * delay_step_s seconds.

    Draw order is fixed (position, offset, drift, speed, angle) so that
    scenarios with different fixed speeds share all other draws for a given
    generator state. This is benchmark_states on one row of six doubles.
    """
    anchors, schedule, noise = benchmark_parts(sigma_m, delay_step_s)
    position, velocity, clock_offset, clock_drift = benchmark_states(rng.random(6), speed_mps)
    ud = UdState(position, velocity, float(clock_offset), float(clock_drift))
    return Scenario(anchors=anchors, ud=ud, schedule=schedule, noise=noise)
