"""Dense real-matrix kernel for the solver and analysis code.

Everything here operates on plain float64 numpy arrays. The systems are
tiny (normal equations of at most 2N+2 unknowns, stacked models of at most
a few dozen rows), so a call costs more in dispatch than in arithmetic.
``solve_spd_rows``, and ``solve_spd`` as its one-row case, call LAPACK's
``dtrtrs`` on ``low.T`` (numpy's C-ordered Cholesky factor transposed: the
Fortran-ordered upper factor, read without a copy) with trans='T' then 'N', as
``scipy.linalg.solve_triangular`` does, or from ``STACKED_ROWS`` one-column rows
``_substitute``: dtrsv's order in stacked ddots, the same bits where an import
check finds that ddot sums in one chain. ``dpotrs``, ``np.linalg.solve``, scipy's
``dpotrf`` and numpy substitution round differently and would change the solver's
outputs. ``invert_spd_rows`` and its one-row case ``invert_spd`` solve against identities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

# A Cholesky pivot d_jj below this fraction of the largest diagonal entry
# of the input declares the matrix numerically singular.
SINGULARITY_RTOL = 1e-12
STACKED_ROWS = 32  # from this many one-column rows _substitute costs less than dtrtrs pairs
_STACKED_ORDER = 8  # the most unknowns _substitute takes: those of the import check


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
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteMatrix(f"{name} contains non-finite entries")
    return a


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a: the one-row case
    of solve_spd_rows.

    b may be a vector or a matrix of right-hand sides. Raises
    SingularMatrix when the factorization encounters a non-positive pivot.
    """
    a = _as_matrix(a, "a")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, expected {n}")
    if n == 0:  # an empty matrix has no pivot to clear the floor
        raise SingularMatrix("pivot below singularity tolerance")
    x, errors = solve_spd_rows(a[None], b[None])
    if errors[0] is not None:
        raise errors[0]
    return x[0]


def solve_spd_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list]:
    """Solve a[i] @ x[i] = b[i] for each matrix of a (T, P, P) stack.

    A row that cannot be solved gets its exception, which solve_spd raises,
    in the returned list (None for a solved row) in place of x[i]. One batched
    Cholesky call factors the stack (one matrix at a time only when it fails);
    the dtrtrs pair, where _substitute does not serve, runs per row over zipped
    views, flags by position, as per-row indexing and f2py's keyword parsing
    cost more than LAPACK's work.
    """
    errors: list = [None] * len(a)
    if not math.isfinite(np.add.reduce(a, axis=None)):  # or a sum past the float range
        finite = np.isfinite(a).all(axis=(1, 2))
        errors = [None if ok else NonFiniteMatrix("a contains non-finite entries") for ok in finite]
        a = np.where(finite[:, None, None], a, np.eye(a.shape[1]))
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = np.zeros_like(a)
        for i, matrix in enumerate(a):
            try:
                low[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                errors[i] = errors[i] or SingularMatrix(str(exc))
    # numpy may succeed on barely positive matrices; enforce the pivot floor
    # in float arithmetic (a float64 square by pow() is not always x*x). A
    # factor has a positive diagonal, and no matrix is below the floor when
    # the stack's smallest pivot clears its largest diagonal entry.
    pivots, diagonals = low.diagonal(0, 1, 2), a.diagonal(0, 1, 2)
    smallest = float(np.minimum.reduce(pivots, axis=None))
    if not smallest**2 > SINGULARITY_RTOL * float(np.maximum.reduce(diagonals, axis=None)):
        for i, (pivot, top) in enumerate(zip(pivots.min(1).tolist(), diagonals.max(1).tolist())):
            if pivot**2 <= SINGULARITY_RTOL * top:
                errors[i] = errors[i] or SingularMatrix("pivot below singularity tolerance")
    x, skip = np.empty(b.shape), errors  # a truthy entry: no dtrtrs pair for that row
    if len(b) >= STACKED_ROWS and b.ndim == 2 and b.shape[1] <= _STACKED_ORDER and _STACKED_EXACT:
        # the orders part only on a signed zero or a NaN's bits: such rows take dtrtrs
        with np.errstate(all="ignore"):  # as dtrtrs is silent when a solution overflows
            x = _substitute(low, b)
            if x.all() and math.isfinite(np.add.reduce(x, axis=None)):
                return x, errors
        skip = [e or ok for e, ok in zip(errors, (np.isfinite(x) & (x != 0.0)).all(1).tolist())]
    for i, (done, upper, rhs) in enumerate(zip(skip, low.swapaxes(1, 2), b)):
        if not done:
            y, _ = dtrtrs(upper, rhs, 0, 1)  # lower=0, trans=1: solve upper.T @ y = rhs
            x[i], _ = dtrtrs(upper, y)  # info > 0 needs a zero pivot, which the floor rejects
    return x, errors


def _substitute(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with low[i] @ low[i].T @ x[i] = b[i] in OpenBLAS dtrsv's order: forward
    its dot, y_i = (b_i - low[i, :i] . y[:i]) / low_ii; back its axpy chain, as
    [y_i, -x_{p-1}, ..., -x_{i+1}] . [1, low[p-1, i], ..., low[i+1, i]] / low_ii.
    Every dot is over unit strides, as a strided ddot keeps two partial sums."""
    t, p = b.shape
    y, x, chain = np.empty((t, p)), np.empty((t, p)), np.empty((t, p + 1))
    for i in range(p):
        y[:, i] = (b[:, i] - (low[:, i, None, :i] @ y[:, :i, None])[:, 0, 0]) / low[:, i, i]
    column = np.ones((t, p, p))  # column[:, i, :p - i] = [1, low[p-1, i], ..., low[i+1, i]]
    column[:, :, 1:] = low.swapaxes(1, 2)[:, :, :0:-1]
    for i in reversed(range(p)):  # chain[:, :p - i] = [y_i, -x_{p-1}, ..., -x_{i+1}]
        chain[:, 0] = y[:, i]
        x[:, i] = (chain[:, None, : p - i] @ column[:, i, : p - i, None])[:, 0, 0] / low[:, i, i]
        chain[:, p - i] = -x[:, i]
    return x


def _substitution_is_exact() -> bool:
    """Whether _substitute gives a fixed, seeded stack the dtrtrs pairs' bits:
    not under kernels whose ddot keeps partial sums (OpenBLAS's Prescott)."""
    m = np.random.default_rng(20260823).normal(size=(16, _STACKED_ORDER + 2, _STACKED_ORDER))
    b, low = m[:, 0], np.linalg.cholesky(m.swapaxes(1, 2) @ m + np.eye(_STACKED_ORDER))
    pairs = [dtrtrs(u, dtrtrs(u, rhs, 0, 1)[0])[0] for u, rhs in zip(low.swapaxes(1, 2), b)]
    return _substitute(low, b).tobytes() == np.array(pairs).tobytes()


_STACKED_EXACT = _substitution_is_exact()


def invert_spd_rows(a: np.ndarray, count: int | None = None) -> np.ndarray:
    """Inverse of each symmetric positive-definite matrix of a (T, P, P) stack
    or, given ``count``, the first count columns of each inverse unsymmetrized,
    with the bits the full identity gives. Raises what solve_spd raises for
    the first bad row."""
    p = a.shape[-1]
    x, errors = solve_spd_rows(a, np.repeat(np.eye(p)[None, :, : count or p], len(a), axis=0))
    error = next((exc for exc in errors if exc is not None), None)
    if error is not None:
        raise error
    # symmetrize to kill factorization round-off
    return x if count else 0.5 * (x + x.swapaxes(-1, -2))


def invert_spd(a) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix: invert_spd_rows on one."""
    a = _as_matrix(a, "a")
    if a.size == 0:  # an empty matrix has no pivot to clear the floor
        raise SingularMatrix("pivot below singularity tolerance")
    return invert_spd_rows(a[None])[0]


def psd_rows(a: np.ndarray, tol: float, scale=None) -> np.ndarray:
    """Whether each symmetrized matrix of a non-empty (T, P, P) stack has its smallest
    eigenvalue >= -tol * scale (one eigvalsh call). ``scale``, per row or for all,
    defaults to each row's largest eigenvalue magnitude; pass it when the input is a
    difference of much larger matrices, whose round-off lives at their scale."""
    if not np.isfinite(a).all():
        raise NonFiniteMatrix("a contains non-finite entries")
    eigs = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(-1, -2)))
    if scale is None:
        scale = np.max(np.abs(eigs), axis=-1)
    return eigs[:, 0] >= -tol * scale
