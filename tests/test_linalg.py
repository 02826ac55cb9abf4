import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import toaloc
from toaloc.linalg import (
    DimensionMismatch,
    NonFiniteMatrix,
    SingularMatrix,
    invert_spd,
    is_positive_semidefinite,
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


class TestIsPositiveSemidefinite:
    def test_psd_boundary(self):
        assert is_positive_semidefinite(np.diag([1.0, 0.0]), tol=1e-12)

    def test_indefinite(self):
        assert not is_positive_semidefinite(np.diag([1.0, -1.0]), tol=1e-12)

    def test_gram_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=(6, 4))
            assert is_positive_semidefinite(b.T @ b, tol=1e-12)


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

    def test_all_solvable_stack_matches_solve_spd(self):
        for p in (3, 4, 6):
            a, b = self.stack(10 + p, p)
            keep = [i for i in range(len(a)) if not isinstance(outcome(a[i], b[i]), tuple)]
            x, errors = solve_spd_rows(a[keep], b[keep])
            assert errors == [None] * len(keep)
            for row, i in enumerate(keep):
                assert x[row].tobytes() == solve_spd(a[i], b[i]).tobytes()
