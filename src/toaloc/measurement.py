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
``forward`` returns this model and its Jacobian, as (h, G), to synthesis,
the solver and the Fisher information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .scenario import NoiseSpec, ResponseSchedule, Scenario

# Distances below this are treated as a degenerate device/anchor overlap.
MIN_RANGE_M = 1e-9
# numpy's 1.0 / s**2 is a positive finite float exactly for s in this closed range
REQUEST_SIGMA_RANGE = (7.458340731200208e-155, 1.3407807929942596e154)


class DegenerateGeometry(ValueError):
    """Device coincides (numerically) with an anchor; ``rows`` marks the batch
    rows that do."""

    def __init__(self, message: str, rows=True):
        super().__init__(message)
        self.rows = rows


class InvalidNoise(ValueError):
    """Noise unusable for weighting: a sigma not positive, or a weight not a finite float."""


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
    velocity: np.ndarray | None, clock_offset_m, clock_drift_mps,
    response: bool = True, velocity_columns: bool = False,
    shift: np.ndarray | None = None, g: np.ndarray | None = None,
):
    """Noise-free stacked model h and its Jacobian G, returned as (h, G).

    h holds the M request rows, then with ``response`` the M response rows.
    G is C-ordered with columns [p, c*b], then [c*omega] with ``response``
    and [v] with ``velocity_columns``. h adds the clock offset c*b times G's
    offset column (-1 or +1): the bits of subtracting c*b, or adding it.

    Every argument may carry leading batch axes, one row per epoch, which the
    clock offset and drift carry as a trailing axis of length one; each row
    is evaluated by the same operations as a lone epoch. A caller iterating
    on fixed epochs may pass the response rows' displacement ``shift`` (v*dt)
    when v is known, and pass back a ``g`` this function returned: its
    constant columns (-1, +1, dt) are then left as they are. Raises
    DegenerateGeometry, whose ``rows`` marks the rows at an anchor.
    """
    m, n = anchors_m.shape[-2:]
    lead = position.shape[:-1]
    rows = 2 * m if response else m
    # rows p - p_i and p + v*dt_i - p_i: line-of-sight vectors, negated as in G
    u = np.empty(lead + (rows, n))
    np.subtract(position[..., None, :], anchors_m, out=u[..., :m, :])
    if response:
        if shift is None:
            shift = velocity[..., None, :] * delays[..., :, None]
        np.add(u[..., :m, :], shift, out=u[..., m:, :])
    # ranges by the formula np.linalg.norm(axis=-1) evaluates, without its dispatch
    h = np.sqrt(np.add.reduce(u * u, axis=-1))
    if not h.min() >= MIN_RANGE_M:  # also when a row is not finite
        near = h.min(axis=-1) < MIN_RANGE_M
        if near.any():
            raise DegenerateGeometry("position coincides with an anchor", near)
    if g is None:
        columns = 2 * n + 2 if velocity_columns else n + 2 if response else n + 1
        g = np.zeros(lead + (rows, columns))
        g[..., :m, n] = -1.0
        if response:
            g[..., m:, n] = 1.0
            g[..., m:, n + 1] = delays
    np.divide(u, h[..., None], out=g[..., :n])
    if velocity_columns:
        np.multiply(g[..., m:, :n], delays[..., :, None], out=g[..., m:, n + 2 :])
    # G's offset column is exactly -1 or +1, and x + (-1*c) is x - c in IEEE arithmetic
    h += g[..., n] * clock_offset_m
    if response:
        h[..., m:] += clock_drift_mps * delays
    return h, g


def weight_rows(sigma_request: np.ndarray, sigma_response) -> np.ndarray:
    """weight_vector of T rows: request sigmas (T, M) and T response sigmas.
    The response weight is the float 1.0 / s**2, not numpy's array square
    (the two differ on 0.08% of doubles); a sigma whose weight is not a
    positive finite float raises InvalidNoise too."""
    sigma_response = [float(s) for s in sigma_response]
    if np.count_nonzero(sigma_request <= 0.0) or any(s <= 0.0 for s in sigma_response):
        raise InvalidNoise("weighting requires strictly positive sigmas")
    low, high = REQUEST_SIGMA_RANGE  # a NaN sigma makes both reductions NaN
    if not (np.minimum.reduce(sigma_request, axis=None, initial=low) >= low
            and np.maximum.reduce(sigma_request, axis=None, initial=high) <= high):
        raise InvalidNoise("request sigma out of range for weighting")
    request = 1.0 / sigma_request**2
    try:
        response = np.array([[1.0 / s**2] for s in sigma_response])
    except ArithmeticError:  # the square underflows to zero or overflows
        raise InvalidNoise("response sigma out of range for weighting") from None
    m = sigma_request.shape[-1]
    return np.concatenate([request, response.repeat(m, axis=1)], axis=1)


def weight_vector(noise: NoiseSpec) -> np.ndarray:
    """Weighting diagonal [1/sigma_i^2, ..., 1/sigma^2, ...], 2M entries."""
    return weight_rows(noise.sigma_request[None], [noise.sigma_response])[0]


def synthesize(
    anchors_m: np.ndarray, delays: np.ndarray, position: np.ndarray, velocity: np.ndarray,
    clock_offset_m, clock_drift_mps, sigma, z: np.ndarray,
) -> np.ndarray:
    """Noisy stacked measurements (..., 2M): forward's model plus the standard
    normals z (..., 2M) times ``sigma``, which broadcasts against z (a float,
    per-row sigmas (..., 1) or 2M sigmas), on states batched as in forward.
    Weights are left to generate and the Monte-Carlo block (weight_rows)."""
    model = forward(anchors_m, delays, position, velocity, clock_offset_m, clock_drift_mps)[0]
    return model + z * sigma


def generate(scenario: Scenario, rng: np.random.Generator) -> ToaMeasurementSet:
    """Draw one noisy measurement epoch from ground truth: synthesize on one row.

    Request noises are drawn first, then response noises, so two scenarios
    differing only in their schedules produce identical request halves for
    the same generator state. Response noises are i.i.d. per anchor. The
    weights are weight_vector(noise); when any sigma is zero, that
    measurement is exact and every weight falls back to one (a
    zero-variance measurement has no finite ML weight).
    """
    ud = scenario.ud
    noise, m = scenario.noise, scenario.anchors.count
    sigma = np.concatenate([noise.sigma_request, np.full(m, noise.sigma_response)])
    stacked = synthesize(
        scenario.anchors.positions, scenario.schedule.delays, ud.position, ud.velocity,
        ud.clock_offset_m, ud.clock_drift_mps, sigma, rng.standard_normal(2 * m),
    )
    weights = weight_vector(noise) if (sigma > 0.0).all() else np.ones(2 * m)
    return ToaMeasurementSet(
        request=stacked[:m], response=stacked[m:], schedule=scenario.schedule, weights=weights
    )
