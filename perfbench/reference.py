"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by 20-40%
over tens of seconds, as neighbours load the host; within one speed state,
batch times repeat to about 1%. The benchmark therefore runs this fixed
kernel next to every batch and every set-up probe, and scales each raw time
by ``REFERENCE_S / kernel time``: the reported times are those of a machine
on which the kernel takes ``REFERENCE_S``. Raw times are printed beside them.

The kernel is a frozen Gauss-Newton iteration on a fixed four-anchor
problem, written with the same mix of small numpy calls, a Cholesky factor,
scipy triangular solves and dataclass construction as the package, so a
change of speed state moves it about as much as the workloads. It imports
nothing from ``toaloc``: no change to the program moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular

# Kernel time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, scipy 1.17,
# one BLAS thread), median over a few minutes.
REFERENCE_S = 0.0028
ITERATIONS = 40

_ANCHORS = np.array([[-300.0, -300.0], [-300.0, 300.0], [300.0, 300.0], [300.0, -300.0]])
_WEIGHTS = np.full(8, 100.0)
_TRUTH = np.array([12.0, 18.0])


@dataclass
class _Iterate:
    position: np.ndarray
    clock_m: float


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    ranges = np.linalg.norm(_ANCHORS - _TRUTH, axis=-1)
    observed = np.concatenate([ranges - 3.0, ranges + 3.0])
    theta = _Iterate(np.array([10.0, 20.0]), 0.0)
    ones = np.ones((4, 1))
    for _ in range(ITERATIONS):
        diff = _ANCHORS - theta.position
        dist = np.linalg.norm(diff, axis=-1)
        los = diff / dist[:, None]
        g = np.vstack([np.hstack([-los, -ones]), np.hstack([-los, ones])])
        residual = observed - np.concatenate([dist - theta.clock_m, dist + theta.clock_m])
        gw = g * _WEIGHTS[:, None]
        low = np.linalg.cholesky(gw.T @ g)
        y = solve_triangular(low, gw.T @ residual, lower=True, check_finite=False)
        step = solve_triangular(low, y, trans="T", lower=True, check_finite=False)
        # the step is discarded so that every iteration does the same work
        theta = _Iterate(theta.position + 0.0 * step[:2], theta.clock_m)
    return perf_counter() - start
