import numpy as np
import pytest
from scipy.linalg import solve_triangular

from toaloc.linalg import (
    DimensionMismatch,
    NonFiniteMatrix,
    SingularMatrix,
    invert_spd,
    is_positive_semidefinite,
    mat_mul,
    solve_spd,
)


def naive_matmul(a, b):
    """Independent triple-loop product oracle."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatMul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(mat_mul(np.eye(3), a), a)

    def test_hand_permutation(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(mat_mul(a, perm), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=(5, 5))
        got = mat_mul(a, b)
        want = naive_matmul(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        c = rng.normal(size=(3, 5))
        left = mat_mul(mat_mul(a, b), c)
        right = mat_mul(a, mat_mul(b, c))
        assert np.max(np.abs(left - right)) <= 1e-10 * np.max(np.abs(left))


class TestSolveSpd:
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
