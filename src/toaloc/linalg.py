"""Dense real-matrix kernel for the solver and analysis code.

Everything here operates on plain float64 numpy arrays. The systems are
tiny (normal equations of at most 2N+2 unknowns, stacked models of at most
a few dozen rows), so a call costs more in library dispatch than in
arithmetic. ``solve_spd`` therefore calls LAPACK's ``dtrtrs`` directly on
``low.T``: numpy's Cholesky factor is C-ordered, so its transpose is the
Fortran-ordered upper factor LAPACK reads without a copy, and these are the
exact calls ``scipy.linalg.solve_triangular`` makes, so results match it bit
for bit. ``dpotrs``, ``np.linalg.solve`` and scipy's ``dpotrf`` round
differently and would change the solver's outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs

# A Cholesky pivot d_jj below this fraction of the largest diagonal entry
# of the input declares the matrix numerically singular.
SINGULARITY_RTOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands do not conform."""


class SingularMatrix(ValueError):
    """Matrix is numerically singular (non-positive Cholesky pivot)."""


class NonFiniteMatrix(ValueError):
    """Matrix has a NaN or infinite entry."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteMatrix(f"{name} contains non-finite entries")
    return a


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising SingularMatrix on non-positive pivots."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from None
    # numpy may succeed on barely positive matrices; enforce the pivot floor.
    max_diag = float(a.diagonal().max()) if a.size else 0.0
    if max_diag <= 0.0 or low.diagonal().min() ** 2 <= SINGULARITY_RTOL * max_diag:
        raise SingularMatrix("pivot below singularity tolerance")
    return low


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a.

    b may be a vector or a matrix of right-hand sides. Raises
    SingularMatrix when the factorization encounters a non-positive pivot.
    """
    a = _as_matrix(a, "a")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"a must be square, got shape {a.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, expected {n}")
    up = _cholesky(a).T
    y, _ = dtrtrs(up, b, lower=0, trans=1)
    x, info = dtrtrs(up, y, lower=0, trans=0)
    if info != 0:
        raise SingularMatrix(f"triangular solve failed (LAPACK info {info})")
    return x


def invert_spd(a) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via solve_spd."""
    a = _as_matrix(a, "a")
    inv = solve_spd(a, np.eye(a.shape[0]))
    # symmetrize to kill factorization round-off
    return 0.5 * (inv + inv.T)


def is_positive_semidefinite(a, tol: float = 1e-12, scale: float | None = None) -> bool:
    """True iff the symmetrized input has smallest eigenvalue >= -tol * scale.

    ``scale`` defaults to the largest eigenvalue magnitude of the input.
    Pass it explicitly when the input is a difference of much larger
    matrices, whose cancellation round-off lives at the scale of the
    operands rather than of the result.
    """
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"a must be square, got shape {a.shape}")
    sym = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs.size == 0:
        return True
    if scale is None:
        scale = float(np.max(np.abs(eigs)))
    return bool(eigs[0] >= -tol * scale)
