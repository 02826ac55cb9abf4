"""Estimation-error analysis: Fisher information, CRLBs, accuracy-ordering
checks between estimator modes, and first-order bias/RMSE predictors for
model-mismatch cases (stationary assumption, deviated velocity).

All quantities are evaluated at the true parameter and carry range units
(meters and meters-squared).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimator import Mode
from .linalg import invert_spd, is_positive_semidefinite, solve_spd_rows
from .measurement import forward, weight_vector
from .scenario import AnchorSet, NoiseSpec, ResponseSchedule, UdState


@dataclass(frozen=True)
class FimReport:
    """Fisher information and CRLB diagonals for one estimator mode."""

    mode: Mode
    fim: np.ndarray
    crlb_diag: np.ndarray  # per-parameter variance lower bounds, m^2
    position_crlb_rss: float  # sqrt(sum of the N position variances), m
    clock_crlb: float  # sqrt of the clock-offset variance, m

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode.value,
                "fim": self.fim.tolist(),
                "crlb_diag": self.crlb_diag.tolist(),
                "position_crlb_rss_m": self.position_crlb_rss,
                "clock_crlb_m": self.clock_crlb,
            },
            indent=2,
        )


@dataclass(frozen=True)
class BiasReport:
    """First-order bias and predicted RMSEs under a mismatched velocity model.

    ``bias`` follows the sign convention of the linearized residual
    projection (the expected estimate error is its negation); only its
    magnitude enters the RMSE predictions.
    """

    bias: np.ndarray  # (N+2,) range units
    predicted_rmse_total: float  # m, full-trace form (mixes position/clock/drift units)
    predicted_rmse_position: float  # m
    predicted_rmse_clock: float  # m

    def to_json(self) -> str:
        return json.dumps(
            {
                "bias": self.bias.tolist(),
                "predicted_rmse_total_m": self.predicted_rmse_total,
                "predicted_rmse_position_m": self.predicted_rmse_position,
                "predicted_rmse_clock_m": self.predicted_rmse_clock,
            },
            indent=2,
        )


def _design_at_truth(mode: Mode, anchors_m, delays, position, velocity) -> np.ndarray:
    """Jacobian at the true state, of one epoch or a stack of them; the
    stationary baseline assumes zero velocity."""
    if mode is Mode.STATIONARY:
        velocity = np.zeros_like(velocity)
    return forward(anchors_m, delays, position, velocity, 0.0, 0.0, jacobian=True, **mode.layout)[1]


def _fisher(g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """F = G'WG from a Jacobian (or a stack of them) and its weighting diagonal."""
    return g.swapaxes(-1, -2) @ (g * weights[..., : g.shape[-2], None])


def fim(
    mode: Mode,
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
) -> FimReport:
    """Fisher information F = G'WG at the true parameter, and CRLB diagonals."""
    g = _design_at_truth(mode, anchors.positions, schedule.delays, ud.position, ud.velocity)
    f = _fisher(g, weight_vector(noise))
    cov = invert_spd(f)
    crlb = cov.diagonal().copy()
    n = anchors.n_dim
    return FimReport(
        mode=mode,
        fim=f,
        crlb_diag=crlb,
        position_crlb_rss=float(np.sqrt(crlb[:n].sum())),
        clock_crlb=float(np.sqrt(crlb[n])),
    )


def position_clock_crlb(
    mode: Mode,
    anchors_m: np.ndarray,
    delays: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """fim()'s position_crlb_rss and clock_crlb for a batch of T truths, bit
    for bit, from one stack of F = G'WG.

    anchors_m (T, M, N), delays (T, M), positions and true velocities
    (T, N) and the weighting diagonals (T, 2M) are per row. Only the first
    N+1 columns of each inverse are solved for: they hold the diagonal
    entries read, with the bits the full identity gives. Raises as fim does
    when a row's F is singular or not finite.
    """
    f = _fisher(_design_at_truth(mode, anchors_m, delays, positions, velocities), weights)
    n = positions.shape[-1]
    columns = np.repeat(np.eye(f.shape[-1])[None, :, : n + 1], len(f), axis=0)
    cov, errors = solve_spd_rows(f, columns)
    error = next((exc for exc in errors if exc is not None), None)
    if error is not None:
        raise error
    crlb = cov.diagonal(0, 1, 2)  # invert_spd's symmetrization leaves the diagonal as solved
    return np.sqrt(np.add.reduce(crlb[:, :n], axis=-1)), np.sqrt(crlb[:, n])


def check_known_velocity_advantage(
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
    tol: float = 1e-9,
) -> dict:
    """Verify that knowing the velocity strictly tightens the position and
    clock-offset CRLBs relative to estimating it.

    Returns the per-index margins (estimated-velocity CRLB minus
    known-velocity CRLB over the first N+1 diagonal entries) and also checks
    the underlying mechanism: the information lost to the velocity block,
    B (L'W L)^-1 B', is positive semi-definite.
    """
    n = anchors.n_dim
    crlb_kv = fim(Mode.KNOWN_VELOCITY, anchors, ud, schedule, noise).crlb_diag
    crlb_ev = fim(Mode.ESTIMATED_VELOCITY, anchors, ud, schedule, noise).crlb_diag
    margins = crlb_ev[: n + 1] - crlb_kv[: n + 1]
    scale = np.maximum(np.abs(crlb_ev[: n + 1]), np.abs(crlb_kv[: n + 1]))
    holds = bool(np.all(margins > -tol * scale))

    # mechanism: split the velocity columns out of the joint design matrix
    g_ev = _design_at_truth(
        Mode.ESTIMATED_VELOCITY, anchors.positions, schedule.delays, ud.position, ud.velocity
    )
    m = anchors.count
    w_tau = weight_vector(noise)[m:]
    g1_lam = g_ev[m:, : n + 2]  # [G1, delay column]
    l_block = g_ev[m:, n + 2 :]  # velocity columns = -l_i * dt_i
    b = g1_lam.T @ (l_block * w_tau[:, None])
    lwl = l_block.T @ (l_block * w_tau[:, None])
    shed = b @ invert_spd(lwl) @ b.T
    mechanism_psd = is_positive_semidefinite(shed, tol)

    return {"holds": holds and mechanism_psd, "margins": margins, "mechanism_psd": mechanism_psd}


def check_two_way_advantage(
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
    tol: float = 1e-9,
) -> dict:
    """Verify that the joint round-trip estimator is at least as accurate as
    the one-way (request-only) estimator on position and clock offset.

    Margins are one-way CRLB minus joint CRLB over the first N+1 diagonal
    entries; they vanish when all response delays are equal. Also checks
    that the response half's net information contribution D is PSD.
    """
    n = anchors.n_dim
    m = anchors.count
    crlb_ev = fim(Mode.ESTIMATED_VELOCITY, anchors, ud, schedule, noise).crlb_diag
    crlb_ow = fim(Mode.ONE_WAY, anchors, ud, schedule, noise).crlb_diag
    margins = crlb_ow - crlb_ev[: n + 1]
    scale = np.maximum(np.abs(crlb_ow), np.abs(crlb_ev[: n + 1]))
    holds = bool(np.all(margins >= -tol * scale))

    g_ev = _design_at_truth(
        Mode.ESTIMATED_VELOCITY, anchors.positions, schedule.delays, ud.position, ud.velocity
    )
    w_tau = weight_vector(noise)[m:]
    g1 = g_ev[m:, : n + 1]
    g2 = g_ev[m:, n + 1 :]
    g1w = g1 * w_tau[:, None]
    g2w = g2 * w_tau[:, None]
    d = g1w.T @ g1 - g1w.T @ g2 @ invert_spd(g2.T @ g2w) @ g2w.T @ g1
    # D vanishes when the delays are equal; judge its eigenvalues against the
    # scale of the matrices it is a difference of, not against D itself
    d_psd = is_positive_semidefinite(d, tol, scale=float(np.max(np.abs(g1w.T @ g1))))

    return {
        "holds": holds and d_psd,
        "margins": margins,
        "equality": bool(np.all(np.abs(margins) <= tol * scale)),
        "d_matrix": d,
        "d_psd": d_psd,
    }


def velocity_mismatch_bias(
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
    assumed_velocity: np.ndarray,
) -> BiasReport:
    """First-order bias and RMSE of the known-velocity estimator when it is
    fed ``assumed_velocity`` while the device truly moves with ud.velocity.

    The residual induced by the mismatch lives in the response half only:
    row i is ||p_i - p - v_assumed*dt_i|| - ||p_i - p - v_true*dt_i||. The
    bias is its WLS projection through the mismatched design matrix, and
    the RMSE predictions add the CRLB covariance of that estimator.
    """
    assumed_velocity = np.asarray(assumed_velocity, dtype=float)
    n = anchors.n_dim
    pos, dt = anchors.positions, schedule.delays
    # with zero clock states the model rows are the bare ranges, so the
    # request halves cancel exactly and g is the mismatched design matrix
    h, g = forward(pos, dt, ud.position, assumed_velocity, 0.0, 0.0, jacobian=True)
    r = h - forward(pos, dt, ud.position, ud.velocity, 0.0, 0.0)
    w = weight_vector(noise)
    gw = g * w[:, None]
    q = invert_spd(gw.T @ g)
    mu = q @ (gw.T @ r)

    trace_q = float(np.trace(q))
    trace_pos = float(np.trace(q[:n, :n]))
    var_clock = float(q[n, n])
    return BiasReport(
        bias=mu,
        predicted_rmse_total=float(np.sqrt(mu @ mu + trace_q)),
        predicted_rmse_position=float(np.sqrt(mu[:n] @ mu[:n] + trace_pos)),
        predicted_rmse_clock=float(np.sqrt(mu[n] ** 2 + var_clock)),
    )


def stationary_assumption_bias(
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
) -> BiasReport:
    """Bias and RMSE of the conventional stationary-device baseline applied to
    a moving device: the zero-assumed-velocity special case of the
    velocity-mismatch predictor."""
    return velocity_mismatch_bias(
        anchors, ud, schedule, noise, np.zeros(anchors.n_dim)
    )
