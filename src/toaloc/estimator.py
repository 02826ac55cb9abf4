"""Gauss-Newton weighted least-squares solvers for round-trip TOA epochs.

Four estimator modes share one iteration:

* ``known-velocity``     - device velocity supplied externally; estimates
                           position, clock offset and clock drift (N+2 unknowns)
* ``estimated-velocity`` - velocity estimated jointly (2N+2 unknowns)
* ``stationary``         - conventional two-way baseline: identical to
                           known-velocity with the velocity pinned to zero
* ``one-way``            - request half only; estimates position and clock
                           offset (N+1 unknowns)

Clock states inside parameter vectors are in range-equivalent units:
``clock_offset_m = c*b`` (m) and ``clock_drift_mps = c*omega`` (m/s).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import DimensionMismatch, NonFiniteMatrix, SingularMatrix, solve_spd
from .measurement import DegenerateGeometry, ToaMeasurementSet, forward
from .scenario import AnchorSet, ResponseSchedule


class Mode(str, Enum):
    KNOWN_VELOCITY = "known-velocity"
    ESTIMATED_VELOCITY = "estimated-velocity"
    STATIONARY = "stationary"
    ONE_WAY = "one-way"

    def param_dim(self, n_dim: int) -> int:
        if self is Mode.ESTIMATED_VELOCITY:
            return 2 * n_dim + 2
        if self is Mode.ONE_WAY:
            return n_dim + 1
        return n_dim + 2

    @property
    def uses_response(self) -> bool:
        return self is not Mode.ONE_WAY

    @property
    def layout(self) -> dict[str, bool]:
        """The mode's rows and Jacobian columns, as keyword arguments of forward()."""
        return {"response": self.uses_response, "velocity_columns": self is Mode.ESTIMATED_VELOCITY}


class InsufficientMeasurements(ValueError):
    """Fewer measurements than unknowns for the requested mode."""


class MissingKnownVelocity(ValueError):
    """The known-velocity mode was run without a known velocity."""


class SingularNormalEquations(SingularMatrix):
    """Normal equations of a Gauss-Newton step could not be solved."""


class NonFiniteIterate(ValueError):
    """An iterate, its residual or its normal equations are not finite."""


@dataclass(slots=True)
class ParamVector:
    """Unknown parameter vector in a fixed layout per mode.

    Layouts: [p, c*b, c*omega] (known-velocity / stationary),
    [p, c*b, c*omega, v] (estimated-velocity), [p, c*b] (one-way).
    """

    mode: Mode
    position: np.ndarray  # (N,) m
    clock_offset_m: float
    clock_drift_mps: float | None = None
    velocity: np.ndarray | None = None  # estimated, present for estimated-velocity

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.mode is Mode.ESTIMATED_VELOCITY and self.velocity is None:
            raise ValueError("estimated-velocity parameters require a velocity block")
        if self.mode is not Mode.ONE_WAY and self.clock_drift_mps is None:
            raise ValueError(f"{self.mode.value} parameters require a clock drift")
        if self.velocity is not None:
            self.velocity = np.asarray(self.velocity, dtype=float)

    @property
    def n_dim(self) -> int:
        return self.position.size

    def to_array(self) -> np.ndarray:
        parts = [self.position, [self.clock_offset_m]]
        if self.mode is not Mode.ONE_WAY:
            parts.append([self.clock_drift_mps])
        if self.mode is Mode.ESTIMATED_VELOCITY:
            parts.append(self.velocity)
        return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])

    @classmethod
    def from_array(cls, mode: Mode, theta: np.ndarray, n_dim: int) -> "ParamVector":
        theta = np.asarray(theta, dtype=float)
        if theta.size != mode.param_dim(n_dim):
            raise ValueError(
                f"{mode.value} expects {mode.param_dim(n_dim)} parameters, got {theta.size}"
            )
        return cls(
            mode=mode,
            position=theta[:n_dim].copy(),
            clock_offset_m=float(theta[n_dim]),
            clock_drift_mps=None if mode is Mode.ONE_WAY else float(theta[n_dim + 1]),
            velocity=theta[n_dim + 2 :].copy() if mode is Mode.ESTIMATED_VELOCITY else None,
        )


@dataclass
class SolverConfig:
    """Iteration controls for the Gauss-Newton solver.

    A ``convergence_threshold_m`` of None means sigma/10, derived from the
    measurement weights at solve time. ``known_velocity_mps`` is required
    for the known-velocity mode; the stationary baseline pins it to zero.
    """

    max_iterations: int = 10
    convergence_threshold_m: float | None = None
    known_velocity_mps: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_threshold_m is not None and self.convergence_threshold_m <= 0.0:
            raise ValueError("convergence threshold must be positive")
        if self.known_velocity_mps is not None:
            self.known_velocity_mps = np.asarray(self.known_velocity_mps, dtype=float)


@dataclass(slots=True)
class EstimateReport:
    """Solver outcome: final iterate, iteration trace and convergence flag."""

    estimate: ParamVector
    iterations_used: int
    converged: bool
    trace: list[tuple[float, float]] = field(default_factory=list)
    failure_reason: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.estimate.mode.value,
                "theta": self.estimate.to_array().tolist(),
                "iterations": self.iterations_used,
                "converged": self.converged,
                "trace": [[s, r] for s, r in self.trace],
            },
            indent=2,
        )


def _resolve_velocity(theta: ParamVector, config_velocity: np.ndarray | None) -> np.ndarray:
    if theta.mode is Mode.ESTIMATED_VELOCITY:
        return theta.velocity
    if theta.mode is not Mode.KNOWN_VELOCITY or config_velocity is None:
        return np.zeros(theta.n_dim)
    return np.asarray(config_velocity, dtype=float)


def _forward(
    theta: ParamVector, anchors: AnchorSet, schedule: ResponseSchedule,
    known_velocity: np.ndarray | None, jacobian: bool = False,
):
    return forward(
        anchors.positions, schedule.delays, theta.position,
        _resolve_velocity(theta, known_velocity), theta.clock_offset_m, theta.clock_drift_mps,
        jacobian=jacobian, **theta.mode.layout,
    )


def model_h(
    theta: ParamVector,
    anchors: AnchorSet,
    schedule: ResponseSchedule,
    known_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Noise-free measurement model at the parameter vector theta."""
    return _forward(theta, anchors, schedule, known_velocity)


def design_matrix(
    theta: ParamVector,
    anchors: AnchorSet,
    schedule: ResponseSchedule,
    known_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Jacobian of model_h with respect to theta, in range units."""
    return _forward(theta, anchors, schedule, known_velocity, jacobian=True)[1]


def gauss_newton_step(
    theta: ParamVector,
    measurements: ToaMeasurementSet,
    anchors: AnchorSet,
    config: SolverConfig,
) -> tuple[np.ndarray, float]:
    """One WLS update: delta = (G'WG)^-1 G'W r, plus the weighted residual norm.

    The mode fits the leading rows of the stacked measurements: all 2M, or
    the M request rows for one-way data."""
    h, g = _forward(theta, anchors, measurements.schedule, config.known_velocity_mps, jacobian=True)
    rows = h.size
    r = measurements.stacked[:rows] - h
    weights = measurements.weights[:rows]
    res_norm = math.sqrt(r @ (weights * r))
    if not math.isfinite(res_norm):
        raise NonFiniteIterate("weighted residual is not finite")
    gw = g * weights[:, None]
    try:
        delta = solve_spd(gw.T @ g, gw.T @ r)
    except SingularMatrix as exc:
        raise SingularNormalEquations(str(exc)) from None
    except NonFiniteMatrix as exc:
        raise NonFiniteIterate(f"normal equations: {exc}") from None
    return delta, res_norm


def default_initial(
    mode: Mode,
    position_guess: np.ndarray,
    measurements: ToaMeasurementSet,
) -> ParamVector:
    """Initial parameter vector: caller's position guess, clock offset seeded
    from the first response measurement, zero drift and velocity."""
    position_guess = np.asarray(position_guess, dtype=float)
    n = position_guess.size
    cb0 = float(measurements.response[0])
    return ParamVector(
        mode=mode,
        position=position_guess,
        clock_offset_m=cb0,
        clock_drift_mps=None if mode is Mode.ONE_WAY else 0.0,
        velocity=np.zeros(n) if mode is Mode.ESTIMATED_VELOCITY else None,
    )


def solve(
    measurements: ToaMeasurementSet,
    anchors: AnchorSet,
    config: SolverConfig,
    initial: ParamVector,
) -> EstimateReport:
    """Iterate Gauss-Newton updates until the position step norm drops below
    the convergence threshold or the iteration budget is exhausted.

    Singular normal equations, an iterate at an anchor and a non-finite
    iterate abort the iteration and are reported as a non-converged result
    with a ``failure_reason`` rather than raised. Unusable input raises:
    ``MissingKnownVelocity``, ``DimensionMismatch`` when the anchors,
    measurements, iterate and velocity do not conform, and
    ``InsufficientMeasurements``.
    """
    mode = initial.mode
    n = initial.n_dim
    m = anchors.count
    if mode is Mode.KNOWN_VELOCITY and config.known_velocity_mps is None:
        raise MissingKnownVelocity("known-velocity mode requires known_velocity_mps")
    velocity = _resolve_velocity(initial, config.known_velocity_mps)
    if (measurements.count, anchors.n_dim, np.shape(velocity)) != (m, n, (n,)):
        raise DimensionMismatch(
            f"{measurements.count} measurements for {m} anchors in {anchors.n_dim}-D, "
            f"a {n}-D iterate and a velocity of shape {np.shape(velocity)}"
        )
    n_meas = m if mode is Mode.ONE_WAY else 2 * m
    if n_meas < mode.param_dim(n):
        raise InsufficientMeasurements(
            f"{mode.value} needs at least {mode.param_dim(n)} measurements, have {n_meas}"
        )

    threshold = config.convergence_threshold_m
    if threshold is None:
        # sigma/10 with sigma the smallest measurement sigma; weights are 1/sigma^2.
        threshold = 1.0 / math.sqrt(measurements.weights.max()) / 10.0

    theta = initial.to_array()
    if not np.isfinite(theta).all():
        return EstimateReport(
            initial, 0, False, failure_reason="NonFiniteIterate: initial iterate is not finite"
        )
    trace: list[tuple[float, float]] = []
    converged = False
    iterations = 0
    failure = None
    current = initial
    for _ in range(config.max_iterations):
        try:
            delta, res_norm = gauss_newton_step(current, measurements, anchors, config)
        except (SingularNormalEquations, DegenerateGeometry, NonFiniteIterate) as exc:
            failure = f"{type(exc).__name__}: {exc}"
            break
        theta = theta + delta
        current = ParamVector.from_array(mode, theta, n)
        iterations += 1
        step_pos = math.sqrt(delta[:n].dot(delta[:n]))  # np.linalg.norm's formula
        trace.append((step_pos, res_norm))
        if step_pos < threshold:
            converged = True
            break

    return EstimateReport(
        estimate=current,
        iterations_used=iterations,
        converged=converged,
        trace=trace,
        failure_reason=failure,
    )
