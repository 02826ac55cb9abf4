"""Estimation-error analysis: Fisher information, CRLBs, accuracy-ordering
checks between estimator modes, and first-order bias/RMSE predictors for
model-mismatch cases (stationary assumption, deviated velocity).

All quantities are evaluated at the true parameter and carry range units
(meters and meters-squared). ``check_instances``, the core of both
accuracy-ordering checks, reads plain arrays and stacks the instances that
share an anchor shape, with the output of one-at-a-time checks; the two
public ``check_*_advantage`` functions convert their dataclasses to it. Both
bias predictors are the one-row case of ``mismatch_bias_rows``, which stacks
T truths as ``position_clock_crlb`` does. Stacked inverses come from
``linalg.invert_spd_rows``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimator import Mode
from .linalg import invert_spd, invert_spd_rows, psd_rows
from .measurement import forward, weight_rows, weight_vector
from .scenario import AnchorSet, NoiseSpec, ResponseSchedule, UdState, require_distinct


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


def _crlb_rows(g: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """fim()'s first ``count`` CRLB diagonal entries for a stack of designs
    (invert_spd's symmetrization leaves the diagonal as solved)."""
    return invert_spd_rows(_fisher(g, weights), count).diagonal(0, 1, 2)


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
    g = _design_at_truth(mode, anchors_m, delays, positions, velocities)
    n = positions.shape[-1]
    crlb = _crlb_rows(g, weights, n + 1)
    return np.sqrt(np.add.reduce(crlb[:, :n], axis=-1)), np.sqrt(crlb[:, n])


def _instance(anchors: AnchorSet, ud: UdState, schedule: ResponseSchedule, noise: NoiseSpec):
    """A check's arguments as the plain arrays check_instances reads."""
    return (anchors.positions, ud.position, ud.velocity, schedule.delays, noise.sigma_request,
            noise.sigma_response)


def _stack(instances) -> tuple[np.ndarray, np.ndarray]:
    """Estimated-velocity designs at the truth and weighting diagonals of
    instances with one anchor count and dimension. The known-velocity design
    is its first N+2 columns and the one-way design the first N+1 of its
    request rows, bit for bit."""
    anchors, positions, velocities, delays, sigma_request, sigma_response = zip(*instances)
    g = _design_at_truth(Mode.ESTIMATED_VELOCITY, np.array(anchors), np.array(delays),
                         np.array(positions), np.array(velocities))
    return g, weight_rows(np.array(sigma_request), sigma_response)


def _known_velocity_rows(g, weights, crlb_kv, crlb_ev, tol) -> dict:
    """check_known_velocity_advantage on a _stack, given both modes' CRLBs."""
    m, n = weights.shape[-1] // 2, crlb_ev.shape[-1] - 1
    margins = crlb_ev - crlb_kv
    scale = np.maximum(np.abs(crlb_ev), np.abs(crlb_kv))
    holds = np.all(margins > -tol * scale, axis=-1)

    # mechanism: split the velocity columns out of the joint design matrix
    w_tau = weights[:, m:, None]
    g1_lam = g[:, m:, : n + 2]  # [G1, delay column]
    l_block = g[:, m:, n + 2 :]  # velocity columns = -l_i * dt_i
    b = g1_lam.swapaxes(-1, -2) @ (l_block * w_tau)
    lwl = l_block.swapaxes(-1, -2) @ (l_block * w_tau)
    mechanism_psd = psd_rows(b @ invert_spd_rows(lwl) @ b.swapaxes(-1, -2), tol)
    return {"holds": holds & mechanism_psd, "margins": margins, "mechanism_psd": mechanism_psd}


def _two_way_rows(g, weights, crlb_ev, crlb_ow, tol) -> dict:
    """check_two_way_advantage on a _stack, given both modes' CRLBs."""
    m, n = weights.shape[-1] // 2, crlb_ev.shape[-1] - 1
    margins = crlb_ow - crlb_ev
    scale = np.maximum(np.abs(crlb_ow), np.abs(crlb_ev))
    holds = np.all(margins >= -tol * scale, axis=-1)

    w_tau = weights[:, m:, None]
    g1 = g[:, m:, : n + 1]
    g2 = g[:, m:, n + 1 :]
    g1w = g1 * w_tau
    g2w = g2 * w_tau
    g1wg1 = g1w.swapaxes(-1, -2) @ g1
    g2wg2_inv = invert_spd_rows(g2.swapaxes(-1, -2) @ g2w)
    d = g1wg1 - g1w.swapaxes(-1, -2) @ g2 @ g2wg2_inv @ g2w.swapaxes(-1, -2) @ g1
    # D vanishes when the delays are equal; judge its eigenvalues against the
    # scale of the matrices it is a difference of, not against D itself
    d_psd = psd_rows(d, tol, scale=np.max(np.abs(g1wg1), axis=(1, 2)))
    equality = np.all(np.abs(margins) <= tol * scale, axis=-1)
    return {"holds": holds & d_psd, "margins": margins, "equality": equality, "d_matrix": d,
            "d_psd": d_psd}


def _row(out: dict, i: int) -> dict:
    """Row i of a batched check's outputs, with its flags as bools."""
    return {key: value[i] if value.ndim > 1 else bool(value[i]) for key, value in out.items()}


def _check(instance, tol: float, two_way: bool) -> dict:
    """One check of one instance, each step in the order of that check alone."""
    g, w = _stack([instance])
    m, n = instance[0].shape
    if two_way:
        crlb_ev = _crlb_rows(g, w, n + 1)
        return _row(_two_way_rows(g, w, crlb_ev, _crlb_rows(g[:, :m, : n + 1], w, n + 1), tol), 0)
    crlb_kv = _crlb_rows(g[..., : n + 2], w, n + 1)
    return _row(_known_velocity_rows(g, w, crlb_kv, _crlb_rows(g, w, n + 1), tol), 0)


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
    B (L'W L)^-1 B', is positive semi-definite. The one-row case of
    check_instances.
    """
    return _check(_instance(anchors, ud, schedule, noise), tol, two_way=False)


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
    that the response half's net information contribution D is PSD. The
    one-row case of check_instances.
    """
    return _check(_instance(anchors, ud, schedule, noise), tol, two_way=True)


def check_instances(instances, tol: float = 1e-9) -> list[tuple[dict, dict]]:
    """check_known_velocity_advantage and check_two_way_advantage of each
    instance, in order. An instance is plain arrays: anchors (M, N), device
    position and velocity (N,), delays (M,), request sigmas (M,) and the
    response sigma, a float. The instances of one anchor shape form one
    stack, whose designs and Fisher matrices both checks share. Raises
    require_distinct's error before any check, else what checking the
    instances one at a time raises first (degenerate geometry, singular...).
    """
    groups: dict = {}
    for i, instance in enumerate(instances):
        groups.setdefault(instance[0].shape, []).append(i)
    for rows in groups.values():
        require_distinct(np.array([instances[i][0] for i in rows]))
    out: list = [None] * len(instances)
    try:
        for (m, n), rows in groups.items():
            g, w = _stack([instances[i] for i in rows])
            crlb_ev = _crlb_rows(g, w, n + 1)
            kv = _known_velocity_rows(g, w, _crlb_rows(g[..., : n + 2], w, n + 1), crlb_ev, tol)
            tw = _two_way_rows(g, w, crlb_ev, _crlb_rows(g[:, :m, : n + 1], w, n + 1), tol)
            for j, i in enumerate(rows):
                out[i] = (_row(kv, j), _row(tw, j))
    except ValueError:  # stacks meet failing instances out of instance order
        return [(_check(x, tol, False), _check(x, tol, True)) for x in instances]
    return out


def mismatch_bias_rows(anchors_m: np.ndarray, delays: np.ndarray, positions: np.ndarray,
                       velocities: np.ndarray, assumed: np.ndarray, weights: np.ndarray):
    """velocity_mismatch_bias of T rows, bit for bit: the biases (T, N+2), then the
    predicted total, position and clock RMSEs (T,). The arrays are position_clock_crlb's
    plus the assumed velocities (T, N); raises what forward and invert_spd_rows raise."""
    n = positions.shape[-1]
    # with zero clock states the model rows are the bare ranges, so the
    # request halves cancel exactly and g is the mismatched design matrix
    h, g = forward(anchors_m, delays, positions, assumed, 0.0, 0.0, jacobian=True)
    r = h - forward(anchors_m, delays, positions, velocities, 0.0, 0.0)
    gw = g * weights[..., None]
    q = invert_spd_rows(gw.swapaxes(-1, -2) @ g)
    mu = (q @ (gw.swapaxes(-1, -2) @ r[..., None]))[..., 0]
    var = q.diagonal(0, 1, 2)
    # the dots are np.dot's ddot; the clock bias is squared as a Python float,
    # as numpy's array square rounds some squares differently
    total = (mu[:, None] @ mu[:, :, None])[:, 0, 0] + np.add.reduce(var, axis=-1)
    position = (mu[:, None, :n] @ mu[:, :n, None])[:, 0, 0] + np.add.reduce(var[:, :n], axis=-1)
    clock = np.array([c**2 for c in mu[:, n].tolist()]) + var[:, n]
    return mu, np.sqrt(total), np.sqrt(position), np.sqrt(clock)


def velocity_mismatch_bias(
    anchors: AnchorSet,
    ud: UdState,
    schedule: ResponseSchedule,
    noise: NoiseSpec,
    assumed_velocity: np.ndarray,
) -> BiasReport:
    """First-order bias and RMSE of the known-velocity estimator when it is
    fed ``assumed_velocity`` while the device truly moves with ud.velocity:
    the one-row case of mismatch_bias_rows.

    The residual induced by the mismatch lives in the response half only:
    row i is ||p_i - p - v_assumed*dt_i|| - ||p_i - p - v_true*dt_i||. The
    bias is its WLS projection through the mismatched design matrix, and
    the RMSE predictions add the CRLB covariance of that estimator.
    """
    row = (anchors.positions, schedule.delays, ud.position, ud.velocity,
           np.asarray(assumed_velocity, dtype=float), weight_vector(noise))
    mu, *rmse = mismatch_bias_rows(*(x[None] for x in row))
    return BiasReport(mu[0], *(float(x[0]) for x in rmse))


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
