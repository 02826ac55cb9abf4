"""Forward measurement model for the round-trip TOA exchange.

A localization epoch produces 2M stacked measurements, all expressed in
range-equivalent meters:

* M request measurements, one per anchor, taken when the anchors receive
  the device's request signal:  ||p_i - p|| - c*b
* M response measurements, taken when the device receives each anchor's
  reply after delay dt_i:  ||p_i - p - v*dt_i|| + c*b + c*omega*dt_i

where p, v, b, omega are the device state at request transmission time.
All noises are independent zero-mean Gaussians, so the ML weighting is the
diagonal diag(1/sigma^2), held as a vector of 2M inverse variances.
``forward`` evaluates this model and its Jacobian for synthesis, the solver
and the Fisher information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .scenario import NoiseSpec, ResponseSchedule, Scenario

# Distances below this are treated as a degenerate device/anchor overlap.
MIN_RANGE_M = 1e-9


class DegenerateGeometry(ValueError):
    """Device coincides (numerically) with an anchor."""


class InvalidNoise(ValueError):
    """Noise specification unusable for weighting (non-positive sigma)."""


class InvalidMeasurements(ValueError):
    """Measurement set with mismatched lengths, non-finite values or bad weights."""


@dataclass(frozen=True)
class ToaMeasurementSet:
    """2M stacked range-equivalent measurements with their weighting diagonal.

    ``stacked`` is the 2M vector [request, response], built once here;
    ``request`` and ``response`` are views of its two halves.
    """

    request: np.ndarray  # (M,) m
    response: np.ndarray  # (M,) m
    schedule: ResponseSchedule
    weights: np.ndarray  # (2M,) inverse variances 1/sigma^2, positive
    stacked: np.ndarray = field(init=False, repr=False, compare=False)  # (2M,) m

    def __post_init__(self):
        req = np.asarray(self.request, dtype=float)
        resp = np.asarray(self.response, dtype=float)
        m = req.size
        if resp.size != m or self.schedule.delays.size != m:
            raise InvalidMeasurements("request, response and schedule lengths must match")
        stacked = np.concatenate([req, resp])
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (2 * m,):
            raise InvalidMeasurements(f"weights must be a vector of {2*m} entries, got {w.shape}")
        if not np.isfinite(np.concatenate([stacked, self.schedule.delays, w])).all():
            raise InvalidMeasurements("measurements, delays and weights must be finite")
        if (w <= 0.0).any():
            raise InvalidMeasurements("weights must be positive")
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "request", stacked[:m])
        object.__setattr__(self, "response", stacked[m:])
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.request.size

    def to_json(self) -> str:
        sigma = 1.0 / np.sqrt(self.weights)
        doc = {
            "request_m": self.request.tolist(),
            "response_m": self.response.tolist(),
            "delta_t_s": self.schedule.delays.tolist(),
            "sigma_m": {
                "request": sigma[: self.count].tolist(),
                "response": float(sigma[self.count]),
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ToaMeasurementSet":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "ToaMeasurementSet":
        sigma = doc["sigma_m"]
        noise = NoiseSpec(np.asarray(sigma["request"], dtype=float), float(sigma["response"]))
        return cls(
            request=np.asarray(doc["request_m"], dtype=float),
            response=np.asarray(doc["response_m"], dtype=float),
            schedule=ResponseSchedule(np.asarray(doc["delta_t_s"], dtype=float)),
            weights=weight_vector(noise),
        )


def forward(
    anchors_m: np.ndarray, delays: np.ndarray | None, position: np.ndarray,
    velocity: np.ndarray | None, clock_offset_m: float, clock_drift_mps: float | None,
    response: bool = True, jacobian: bool = False, velocity_columns: bool = False,
):
    """Noise-free stacked model h and, with ``jacobian``, its Jacobian G.

    h holds the M request rows, then with ``response`` the M response rows.
    G is C-ordered with columns [p, c*b], then [c*omega] with ``response``
    and [v] with ``velocity_columns``. Returns h, or (h, G) with ``jacobian``.
    """
    m, n = anchors_m.shape
    rows = 2 * m if response else m
    # rows p - p_i and p + v*dt_i - p_i: line-of-sight vectors, negated as in G
    u = np.empty((rows, n))
    np.subtract(position, anchors_m, out=u[:m])
    if response:
        np.add(u[:m], velocity * delays[:, None], out=u[m:])
    # ranges by the formula np.linalg.norm(axis=-1) evaluates, without its dispatch
    h = np.sqrt(np.add.reduce(u * u, axis=-1))
    if h.min() < MIN_RANGE_M:
        raise DegenerateGeometry("position coincides with an anchor")
    if jacobian:
        g = np.zeros((rows, 2 * n + 2 if velocity_columns else n + 2 if response else n + 1))
        np.divide(u, h[:, None], out=g[:, :n])
        g[:m, n] = -1.0
        if response:
            g[m:, n] = 1.0
            g[m:, n + 1] = delays
            if velocity_columns:
                np.multiply(g[m:, :n], delays[:, None], out=g[m:, n + 2 :])
    h[:m] -= clock_offset_m
    if response:
        h[m:] += clock_offset_m
        h[m:] += clock_drift_mps * delays
    return (h, g) if jacobian else h


def weight_vector(noise: NoiseSpec) -> np.ndarray:
    """Weighting diagonal [1/sigma_i^2, ..., 1/sigma^2, ...], 2M entries."""
    if (noise.sigma_request <= 0.0).any() or noise.sigma_response <= 0.0:
        raise InvalidNoise("weighting requires strictly positive sigmas")
    m = noise.sigma_request.size
    return np.concatenate(
        [1.0 / noise.sigma_request**2, np.full(m, 1.0 / noise.sigma_response**2)]
    )


def generate(scenario: Scenario, rng: np.random.Generator) -> ToaMeasurementSet:
    """Draw one noisy measurement epoch from ground truth.

    Request noises are drawn first, then response noises, so two scenarios
    differing only in their schedules produce identical request halves for
    the same generator state. Response noises are i.i.d. per anchor.

    When any sigma is zero the measurements are exact at that index and every
    weight falls back to one (a zero-variance measurement has no finite ML
    weight).
    """
    noise = scenario.noise
    ud = scenario.ud
    m = scenario.anchors.count

    model = forward(
        scenario.anchors.positions, scenario.schedule.delays, ud.position, ud.velocity,
        ud.clock_offset_m, ud.clock_drift_mps,
    )
    eps_req = rng.normal(0.0, 1.0, size=m) * noise.sigma_request
    eps_resp = rng.normal(0.0, 1.0, size=m) * noise.sigma_response

    if np.all(noise.sigma_request > 0.0) and noise.sigma_response > 0.0:
        weights = weight_vector(noise)
    else:
        weights = np.ones(2 * m)

    return ToaMeasurementSet(
        request=model[:m] + eps_req,
        response=model[m:] + eps_resp,
        schedule=scenario.schedule,
        weights=weights,
    )
