import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import toaloc
from toaloc import linalg
from toaloc.linalg import (
    DimensionMismatch,
    NonFiniteMatrix,
    SingularMatrix,
    invert_spd,
    invert_spd_rows,
    psd_rows,
    solve_spd,
    solve_spd_rows,
)


class TestSolveSpd:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.ones((2, 3)), np.ones(2))

    def test_first_call_imports_nothing(self):
        # the LAPACK import happens with the module, not inside the first solve
        code = (
            "import sys, numpy as np\n"
            "from toaloc.linalg import solve_spd\n"
            "before = set(sys.modules)\n"
            "solve_spd(np.eye(2), np.ones(2))\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = os.path.dirname(os.path.dirname(toaloc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_identity(self):
        b = np.array([[1.0], [2.0], [-3.0], [4.0]])
        assert np.array_equal(solve_spd(np.eye(4), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 8.0]), np.array([2.0, 16.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_multiply_back_random_spd(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 5))
        a = m.T @ m + np.eye(5)
        b = rng.normal(size=5)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_singular_raises(self):
        a = np.ones((3, 3))  # rank 1
        with pytest.raises(SingularMatrix):
            solve_spd(a, np.ones(3))

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrix):
            solve_spd(np.diag([1.0, -1.0]), np.ones(2))

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteMatrix):
            solve_spd(np.diag([1.0, np.nan]), np.ones(2))

    def test_empty_matrix_is_singular(self):
        with pytest.raises(SingularMatrix, match="pivot below singularity tolerance"):
            solve_spd(np.zeros((0, 0)), np.zeros(0))


class TestInvertSpd:
    def test_diagonal(self):
        inv = invert_spd(np.diag([4.0, 9.0]))
        assert np.allclose(inv, np.diag([0.25, 1.0 / 9.0]), rtol=1e-12)

    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(7)), np.eye(7), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        a = m.T @ m + np.eye(6)
        assert np.max(np.abs(a @ invert_spd(a) - np.eye(6))) <= 1e-9

    def test_result_symmetric(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6))
        inv = invert_spd(m.T @ m + np.eye(6))
        assert np.max(np.abs(inv - inv.T)) <= 1e-10 * np.max(np.abs(inv))


def reference_solve_spd(a, b):
    """numpy Cholesky factor and two scipy triangular solves: the reference
    the direct LAPACK path of solve_spd must reproduce bit for bit."""
    low = np.linalg.cholesky(a)
    y = solve_triangular(low, b, lower=True, check_finite=False)
    return solve_triangular(low, y, trans="T", lower=True, check_finite=False)


def random_spd_systems(seed, count=200):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        m = rng.normal(size=(n + int(rng.integers(0, 4)), n)) * 10.0 ** rng.uniform(-3, 3, n)
        yield m.T @ m + 1e-3 * np.eye(n), rng.normal(size=n), rng.normal(size=(n, 2))


class TestBitIdentity:
    def test_solve_spd_matches_triangular_reference(self):
        for a, b_vec, b_mat in random_spd_systems(6):
            for b in (b_vec, b_mat, np.eye(a.shape[0])):
                assert np.array_equal(solve_spd(a, b), reference_solve_spd(a, b))

    def test_invert_spd_matches_triangular_reference(self):
        for a, _, _ in random_spd_systems(7):
            inv = reference_solve_spd(a, np.eye(a.shape[0]))
            assert np.array_equal(invert_spd(a), 0.5 * (inv + inv.T))


class TestPsdRows:
    def test_psd_boundary(self):
        assert psd_rows(np.diag([1.0, 0.0])[None], tol=1e-12)[0]

    def test_indefinite(self):
        assert not psd_rows(np.diag([1.0, -1.0])[None], tol=1e-12)[0]

    def test_gram_matrices(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(20, 6, 4))
        assert psd_rows(b.swapaxes(1, 2) @ b, tol=1e-12).all()

    def test_scale_per_row(self):
        # -1e-6 fails against its own scale but passes against a scale of 1e4
        a = np.array([np.diag([1.0, -1e-6])] * 2)
        assert psd_rows(a, 1e-9, scale=np.array([1.0, 1e4])).tolist() == [False, True]

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteMatrix):
            psd_rows(np.diag([1.0, np.nan])[None], 1e-12)


class TestInvertSpdRows:
    def test_every_row_equals_invert_spd(self):
        a = np.array([a for a, _, _ in random_spd_systems(8) if a.shape == (5, 5)])
        rows = invert_spd_rows(a)
        assert len(a) > 10
        for row, matrix in zip(rows, a):
            assert row.tobytes() == invert_spd(matrix).tobytes()

    def test_first_columns_have_the_bits_of_the_full_identity(self):
        a = np.array([a for a, _, _ in random_spd_systems(9) if a.shape == (4, 4)])
        full = np.array([solve_spd(matrix, np.eye(4)) for matrix in a])
        assert invert_spd_rows(a, 2).tobytes() == full[:, :, :2].tobytes()

    def test_raises_the_first_bad_row(self):
        a = np.array([np.eye(3), np.ones((3, 3)), np.diag([1.0, np.nan, 1.0])])
        with pytest.raises(SingularMatrix, match="not positive definite"):
            invert_spd_rows(a)
        with pytest.raises(NonFiniteMatrix):
            invert_spd_rows(a[::-1])

    def test_invert_spd_rejects_non_square_and_empty(self):
        with pytest.raises(DimensionMismatch, match="must be square"):
            invert_spd(np.ones((2, 3)))
        with pytest.raises(SingularMatrix, match="pivot below singularity tolerance"):
            invert_spd(np.zeros((0, 0)))


def triangular_oracle(a, b):
    """Each row of a (T, P, P) stack solved by scipy's public triangular solve
    on numpy's Cholesky factor, transposed to upper: first with trans='T',
    then with trans='N', the calls the linalg module docstring names."""
    x = np.empty(b.shape)
    for i, (matrix, rhs) in enumerate(zip(a, b)):
        upper = np.linalg.cholesky(matrix).T
        y = solve_triangular(upper, rhs, trans="T", lower=False, check_finite=False)
        x[i] = solve_triangular(upper, y, trans="N", lower=False, check_finite=False)
    return x


def outcome(a, b):
    """solve_spd's result, or the type and message of what it raises."""
    try:
        return solve_spd(a, b).tobytes()
    except (SingularMatrix, NonFiniteMatrix) as exc:
        return type(exc), str(exc)


class TestSolveSpdRows:
    def stack(self, seed, p):
        """SPD systems mixed with singular, indefinite, near-singular and
        non-finite ones."""
        rng = np.random.default_rng(seed)
        a, b = [], []
        for k in range(120):
            m = rng.normal(size=(p + 2, p)) * 10.0 ** rng.uniform(-3, 3, p)
            spd = m.T @ m + 1e-3 * np.eye(p)
            kind = k % 6
            if kind == 1:
                spd = np.outer(m[0], m[0])  # rank one
            elif kind == 2:
                spd = spd - 2.0 * np.abs(spd).max() * np.eye(p)  # indefinite
            elif kind == 3:
                spd[0, 0] = 1e-14 * spd[0, 0]
                spd[0, 1:] = spd[1:, 0] = 0.0  # below the pivot floor
            elif kind == 4:
                spd[1, 2] = spd[2, 1] = np.nan
            a.append(spd)
            b.append(rng.normal(size=p))
        return np.array(a), np.array(b)

    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_every_row_matches_solve_spd(self, p):
        a, b = self.stack(p, p)
        x, errors = solve_spd_rows(a, b)
        kinds = set()
        for i in range(len(a)):
            expected = outcome(a[i], b[i])
            got = (type(errors[i]), str(errors[i])) if errors[i] else x[i].tobytes()
            assert got == expected, i
            kinds.add(expected[1].split(" (")[0] if isinstance(expected, tuple) else "solved")
        assert kinds == {
            "solved", "Matrix is not positive definite", "pivot below singularity tolerance",
            "a contains non-finite entries",
        }

    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_solved_rows_match_scipy_triangular_solves(self, p):
        a, b = self.stack(20 + p, p)
        x, errors = solve_spd_rows(a, b)
        solved = [i for i, exc in enumerate(errors) if exc is None]
        a = a[solved]
        assert len(solved) >= 30
        assert x[solved].tobytes() == triangular_oracle(a, b[solved]).tobytes()
        full = triangular_oracle(a, np.repeat(np.eye(p)[None], len(a), axis=0))
        assert invert_spd_rows(a).tobytes() == (0.5 * (full + full.swapaxes(1, 2))).tobytes()
        part = triangular_oracle(a, np.repeat(np.eye(p)[None, :, :2], len(a), axis=0))
        assert invert_spd_rows(a, 2).tobytes() == part.tobytes() == full[:, :, :2].tobytes()

    def test_all_solvable_stack_matches_solve_spd(self):
        for p in (3, 4, 6):
            a, b = self.stack(10 + p, p)
            keep = [i for i in range(len(a)) if not isinstance(outcome(a[i], b[i]), tuple)]
            x, errors = solve_spd_rows(a[keep], b[keep])
            assert errors == [None] * len(keep)
            for row, i in enumerate(keep):
                assert x[row].tobytes() == solve_spd(a[i], b[i]).tobytes()


def mixed_stack(seed, t, p):
    """t one-column systems: random SPD ones, scaled over six decades, and at
    fixed rows a non-finite matrix, a rank-one matrix (Cholesky fails), one
    below the pivot floor, one whose solution overflows, and two diagonal
    ones whose first solution entry is 0.0 and -0.0: dtrsv's axpy chain keeps
    the -0.0, a dot from a zero accumulator does not."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(t, p + 2, p)) * 10.0 ** rng.uniform(-3, 3, (t, 1, p))
    a = m.swapaxes(1, 2) @ m + 1e-3 * np.eye(p)
    b = rng.normal(size=(t, p)) * 10.0 ** rng.uniform(-3, 3, (t, 1))
    a[0, 1, 2] = a[0, 2, 1] = np.inf
    a[1] = np.outer(m[1, 0], m[1, 0])
    a[2, 0, 0] = 1e-14 * a[2].diagonal()[1:].max()
    a[2, 0, 1:] = a[2, 1:, 0] = 0.0
    a[3] *= 1e-200
    b[3] *= 1e200 / np.abs(b[3]).max()
    a[4:6] = a[4:6].diagonal(0, 1, 2)[:, :, None] * np.eye(p)  # +0.0 off the diagonal
    b[4:6] = 1.0
    b[4, 0], b[5, 0] = 0.0, -0.0
    return a, b


CROSSOVER, SUBSTITUTE = linalg.STACKED_ROWS, linalg._substitute


class TestStackedSubstitution:
    """solve_spd_rows substitutes a stack of at least STACKED_ROWS one-column
    systems by stacked ddots where the import check found their order exact,
    and runs the dtrtrs pair per row otherwise: both must give every row the
    same bits, the same error and no warning."""

    def solve(self, monkeypatch, a, b, crossover):
        """Each row's solution bits or error type and message, with warnings
        raised, at the given crossover, and how often _substitute ran."""
        calls = []
        monkeypatch.setattr(linalg, "STACKED_ROWS", crossover)
        monkeypatch.setattr(linalg, "_substitute", lambda *a: calls.append(1) or SUBSTITUTE(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, errors = solve_spd_rows(a, b)
        rows = [
            x[i].tobytes() if exc is None else (type(exc), str(exc)) for i, exc in enumerate(errors)
        ]
        return rows, len(calls)

    @pytest.mark.parametrize("t", sorted({CROSSOVER - 1, CROSSOVER, 33, 128, 512}))
    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_both_orders_give_every_row_the_same_outcome(self, monkeypatch, t, p):
        a, b = mixed_stack(t + p, t, p)
        looped, calls = self.solve(monkeypatch, a, b, t + 1)
        assert calls == 0
        stacked, calls = self.solve(monkeypatch, a, b, 1)
        assert calls == int(linalg._STACKED_EXACT)
        default, calls = self.solve(monkeypatch, a, b, CROSSOVER)
        assert calls == int(linalg._STACKED_EXACT and t >= CROSSOVER)
        assert stacked == looped == default
        assert looped[:4] == [
            (NonFiniteMatrix, "a contains non-finite entries"),
            (SingularMatrix, "Matrix is not positive definite"),
            (SingularMatrix, "pivot below singularity tolerance"),
            solve_spd(a[3], b[3]).tobytes(),
        ]
        x = np.frombuffer(b"".join(looped[3:6]), dtype=float).reshape(3, p)
        assert not np.isfinite(x[0]).all()
        assert x[1, 0] == x[2, 0] == 0.0 and np.signbit(x[1:, 0]).tolist() == [False, True]
        if linalg._STACKED_EXACT:  # the rows with a zero take the dtrtrs pair
            assert not np.signbit(linalg._substitute(np.linalg.cholesky(a[5:6]), b[5:6])[0, 0])

    def test_multi_column_solves_keep_the_dtrtrs_pairs(self, monkeypatch):
        a, b = mixed_stack(1, 64, 4)
        _, calls = self.solve(monkeypatch, a, b[:, :, None], 1)
        assert calls == 0

    def test_systems_beyond_the_checked_order_keep_the_dtrtrs_pairs(self, monkeypatch):
        # the import check covers dots of up to _STACKED_ORDER terms; ddot
        # kernels keep partial sums from 16 terms up
        a, b = mixed_stack(2, 64, 20)
        stacked, calls = self.solve(monkeypatch, a, b, 1)
        assert calls == 0
        assert stacked == self.solve(monkeypatch, a, b, 65)[0]
