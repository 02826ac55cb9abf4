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

# the solver calls solve_spd_rows; solve_spd stays importable here because
# perfbench/spans.py wraps it at estimator.solve_spd
from .linalg import (  # noqa: F401
    DimensionMismatch, NonFiniteMatrix, SingularMatrix, solve_spd, solve_spd_rows,
)
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
        n = self.position.size
        theta = np.empty(self.mode.param_dim(n))
        theta[:n] = self.position
        theta[n] = self.clock_offset_m
        if self.mode is not Mode.ONE_WAY:
            theta[n + 1] = self.clock_drift_mps
        if self.mode is Mode.ESTIMATED_VELOCITY:
            theta[n + 2 :] = self.velocity
        return theta

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
        threshold = self.convergence_threshold_m
        if threshold is not None and not 0.0 < threshold < math.inf:
            raise ValueError("convergence threshold must be positive and finite")
        if self.known_velocity_mps is not None:
            self.known_velocity_mps = np.asarray(self.known_velocity_mps, dtype=float)
            if not np.isfinite(self.known_velocity_mps).all():
                raise ValueError("known velocity must be finite")


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


@dataclass(slots=True)
class BatchEstimate:
    """solve_batch's outcome, one row per epoch: the final iterates, and per
    row the iterations, convergence flag, (position step, weighted residual)
    norms of each iteration, and the exception that stopped a failed row."""

    theta: np.ndarray  # (T, P)
    iterations: list[int]
    converged: list[bool]
    traces: list[list[tuple[float, float]]]
    failures: list

    @classmethod
    def empty(cls, t: int, p: int) -> "BatchEstimate":
        return cls(np.empty((t, p)), [0] * t, [False] * t, [[] for _ in range(t)], [None] * t)

    def failure_reason(self, row: int) -> str | None:
        exc = self.failures[row]
        return None if exc is None else f"{type(exc).__name__}: {exc}"


class _Rows:
    """The epochs of a batch still iterating, their row numbers in the batch,
    and the Jacobians they reuse across iterations."""

    ARRAYS = ("anchors", "delays", "observed", "weights", "theta", "velocity", "threshold",
              "index", "g")
    __slots__ = ARRAYS + ("shift", "done")

    def __init__(self, mode: Mode, *arrays):
        """arrays: solve_batch's anchors, delays, observed, weights, initial,
        velocity and threshold (None for a step without a convergence test)."""
        for name, value in zip(self.ARRAYS, arrays + (np.arange(len(arrays[4])), None)):
            setattr(self, name, value)
        self.shift = None  # forward's v*dt, when it is fixed over the iterations
        if mode in (Mode.KNOWN_VELOCITY, Mode.STATIONARY):
            self.shift = self.velocity[:, None, :] * self.delays[:, :, None]
        self.done = 0  # iterations every row still here has completed

    def retire(self, mask, out: BatchEstimate, error=None, converged: bool = False) -> None:
        """Write out the masked rows, with ``error`` (one exception, or one
        per masked row), and drop them from the batch."""
        everything = all(mask)
        index = self.index if everything else self.index[mask]
        out.theta[index] = self.theta if everything else self.theta[mask]
        errors = error if isinstance(error, list) else [error] * index.size
        for row, exc in zip(index.tolist(), errors):
            out.iterations[row] = self.done
            out.converged[row] = converged
            out.failures[row] = exc
        if everything:
            self.index = self.index[:0]
            return
        keep = np.logical_not(mask)
        for name in self.ARRAYS + ("shift",):
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name)[keep])


def _step(mode: Mode, n: int, rows: _Rows, out: BatchEstimate):
    """One update delta = (G'WG)^-1 G'W r for every row, and its weighted
    residual norm. A row that cannot take the step is retired with the
    exception the step raises for it alone, in the same order of checks."""
    response, velocity_columns = mode.uses_response, mode is Mode.ESTIMATED_VELOCITY
    while rows.index.size:
        theta = rows.theta
        try:
            h, rows.g = forward(
                rows.anchors, rows.delays, theta[:, :n],
                theta[:, n + 2 :] if velocity_columns else rows.velocity, theta[:, n : n + 1],
                theta[:, n + 1 : n + 2] if response else None, response, True, velocity_columns,
                rows.shift, rows.g,
            )
        except DegenerateGeometry as exc:
            rows.retire(exc.rows, out, exc)
            continue
        r = rows.observed - h
        # r @ (w * r) and G'W r as matmuls: per row the BLAS calls of one epoch, and its
        # dtrtrs bits (stacked ddots from linalg.STACKED_ROWS rows, import-checked)
        wrr = r[:, None, :] @ (rows.weights * r)[:, :, None]
        res_norm = [math.sqrt(x) for x in wrr.ravel().tolist()]
        if not all(map(math.isfinite, res_norm)):
            bad = [not math.isfinite(x) for x in res_norm]
            rows.retire(bad, out, NonFiniteIterate("weighted residual is not finite"))
            continue
        gwt = (rows.g * rows.weights[:, :, None]).swapaxes(1, 2)
        delta, errors = solve_spd_rows(gwt @ rows.g, (gwt @ r[:, :, None])[:, :, 0])
        if any(errors):
            failed = [exc is not None for exc in errors]
            rows.retire(failed, out, [
                NonFiniteIterate(f"normal equations: {exc}") if isinstance(exc, NonFiniteMatrix)
                else SingularNormalEquations(str(exc)) for exc in errors if exc
            ])
            if not rows.index.size:
                break
            delta = delta[np.logical_not(failed)]
            res_norm = [x for x, exc in zip(res_norm, errors) if exc is None]
        return delta, res_norm
    return None, None


def _one_epoch(theta: ParamVector, measurements: ToaMeasurementSet, anchors: AnchorSet, velocity):
    """solve_batch's arguments for one epoch, but the threshold and budget."""
    rows = anchors.count if theta.mode is Mode.ONE_WAY else 2 * anchors.count
    return (
        theta.mode, anchors.positions[None], measurements.schedule.delays[None],
        measurements.stacked[None, :rows], measurements.weights[None, :rows],
        theta.to_array()[None], velocity[None],
    )


def gauss_newton_step(
    theta: ParamVector,
    measurements: ToaMeasurementSet,
    anchors: AnchorSet,
    config: SolverConfig,
) -> tuple[np.ndarray, float]:
    """One WLS update: delta = (G'WG)^-1 G'W r, plus the weighted residual norm.

    The mode fits the leading rows of the stacked measurements: all 2M, or
    the M request rows for one-way data. This is the step solve_batch takes,
    on one epoch."""
    velocity = _resolve_velocity(theta, config.known_velocity_mps)
    rows = _Rows(*_one_epoch(theta, measurements, anchors, velocity), None)
    out = BatchEstimate.empty(*rows.theta.shape)
    delta, res_norm = _step(theta.mode, theta.n_dim, rows, out)
    if out.failures[0] is not None:
        raise out.failures[0]
    return delta[0], res_norm[0]


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


def solve_batch(
    mode: Mode,
    anchors: np.ndarray,
    delays: np.ndarray,
    observed: np.ndarray,
    weights: np.ndarray,
    initial: np.ndarray,
    velocity: np.ndarray,
    threshold: np.ndarray,
    max_iterations: int,
) -> BatchEstimate:
    """Gauss-Newton on T epochs of one mode, one row each: every row ends with
    the bits, iteration count, trace and failure that solve gives its epoch.

    anchors (T, M, N), delays (T, M), observed and weights (T, R) for the R
    rows the mode fits, initial (T, P), velocity (T, N) the velocity the
    model assumes (zeros but for the known-velocity mode; estimated-velocity
    reads the iterate's), and threshold (T,) each row's convergence
    threshold. The inputs are trusted: solve checks its own.
    """
    n = anchors.shape[-1]
    rows = _Rows(mode, anchors, delays, observed, weights, initial, velocity, threshold)
    out = BatchEstimate.empty(*initial.shape)
    if not math.isfinite(np.add.reduce(initial, axis=None)):
        finite = np.isfinite(initial).all(axis=1)
        rows.retire(np.logical_not(finite), out, NonFiniteIterate("initial iterate is not finite"))
    for _ in range(max_iterations):
        delta, res_norm = _step(mode, n, rows, out)
        if delta is None:
            break
        rows.theta = rows.theta + delta
        rows.done += 1
        # the position step norm by np.linalg.norm's ddot
        step = [math.sqrt(x) for x in (delta[:, None, :n] @ delta[:, :n, None]).ravel().tolist()]
        done = []  # per row, the step norm below the row's threshold
        for row, x, res, limit in zip(rows.index.tolist(), step, res_norm, rows.threshold.tolist()):
            out.traces[row].append((x, res))
            done.append(x < limit)
        if any(done):
            rows.retire(done, out, converged=True)
    if rows.index.size:
        rows.retire([True] * rows.index.size, out)  # the budget is spent
    return out


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
    ``InsufficientMeasurements``. This is solve_batch on one epoch.
    """
    mode = initial.mode
    n = initial.n_dim
    m = anchors.count
    if mode is Mode.KNOWN_VELOCITY and config.known_velocity_mps is None:
        raise MissingKnownVelocity("known-velocity mode requires known_velocity_mps")
    velocity = _resolve_velocity(initial, config.known_velocity_mps)
    shapes = (initial.position.shape, np.shape(velocity))
    if (measurements.count, anchors.n_dim, shapes) != (m, n, ((n,), (n,))):
        raise DimensionMismatch(
            f"{measurements.count} measurements for {m} anchors in {anchors.n_dim}-D, "
            f"an iterate and a velocity of shapes {shapes[0]} and {shapes[1]}"
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

    out = solve_batch(  # np.array([x]) costs less than np.full on this per-epoch path
        *_one_epoch(initial, measurements, anchors, velocity), np.array([threshold]),
        config.max_iterations,
    )
    iterations = out.iterations[0]
    return EstimateReport(
        estimate=ParamVector.from_array(mode, out.theta[0], n) if iterations else initial,
        iterations_used=iterations,
        converged=out.converged[0],
        trace=out.traces[0],
        failure_reason=out.failure_reason(0),
    )
